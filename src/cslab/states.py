"""Fiducial vectors and their canonical / affine coherent-state families.

A fiducial is a basic normalized wave function.  Transporting it by a phase
point (p, q) produces either the canonical family

    eta_{p,q}(x) = exp(i p (x - q) / hbar) * eta(x - q)

on the full line, or the affine family

    xi_{p,q}(x) = q**(-1/2) * exp(i p (x - q) / hbar) * xi(x / q)

on the half line (q > 0).  The phase factor exp(-i p q / hbar) inside the
affine definition is kept exactly as written; every ray-based quantity is
insensitive to it.

Physical centering (zero position/momentum moments for the canonical
fiducial; unit position moment and zero dilation moment for the affine one)
is what makes the labels (p, q) read back as position and momentum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CoverageError, DomainError, NumericError
from .grids import FULL_LINE, Grid, WaveFunction, half_line_grid, uniform_grid

# one name per sheet: a fiducial's kind, a phase point's domain, a
# symbol's provenance and the CLI's --family all use these
CANONICAL_DOMAIN = "canonical"
AFFINE_DOMAIN = "affine"
SHEETS = (CANONICAL_DOMAIN, AFFINE_DOMAIN)


@dataclass(frozen=True)
class PhasePoint:
    """Phase-space label (p, q); affine-domain points require q > 0."""

    p: float
    q: float
    domain: str = CANONICAL_DOMAIN

    def __post_init__(self):
        if self.domain not in SHEETS:
            raise DomainError(f"unknown phase-point domain {self.domain!r}")
        # written so that NaN fails
        if self.domain == AFFINE_DOMAIN and not self.q > 0:
            raise DomainError("affine phase points require q > 0")


def _finite_positive(value: float | None) -> bool:
    # written so that None and NaN fail
    return value is not None and math.isfinite(value) and value > 0


@dataclass(frozen=True)
class Fiducial:
    """Basic wave function from which a coherent family is generated.

    Use the factory functions :func:`gaussian_fiducial` and
    :func:`affine_fiducial`.
    """

    kind: str
    hbar: float = 1.0
    omega: float | None = None
    beta: float | None = None

    def __post_init__(self):
        if not _finite_positive(self.hbar):
            raise DomainError("hbar must be finite and positive")
        if self.kind == CANONICAL_DOMAIN:
            if not _finite_positive(self.omega):
                raise DomainError("Gaussian fiducial requires a finite omega > 0")
        elif self.kind == AFFINE_DOMAIN:
            if not _finite_positive(self.beta):
                raise DomainError("affine fiducial requires a finite beta > 0")
            if self.beta / self.hbar < 1.0:
                # keeps x**(beta/hbar - 1/2) bounded near 0 and the
                # kinetic-moment integrals convergent
                raise DomainError("affine fiducial requires beta/hbar >= 1")
        else:
            raise DomainError(f"unknown fiducial kind {self.kind!r}")

    @property
    def sigma(self) -> float:
        """Position spread used for window sizing."""
        if self.kind == CANONICAL_DOMAIN:
            return math.sqrt(self.hbar / (2 * self.omega))
        return math.sqrt(self.hbar / (2 * self.beta))


def gaussian_fiducial(omega: float = 1.0, hbar: float = 1.0) -> Fiducial:
    return Fiducial(CANONICAL_DOMAIN, hbar=hbar, omega=omega)


def affine_fiducial(beta: float = 1.0, hbar: float = 1.0) -> Fiducial:
    return Fiducial(AFFINE_DOMAIN, hbar=hbar, beta=beta)


# ---------------------------------------------------------------------------
# pointwise evaluation


def gaussian_values(omega: float, hbar: float, x: np.ndarray) -> np.ndarray:
    return (omega / (math.pi * hbar)) ** 0.25 * np.exp(-omega * x**2 / (2 * hbar))


def affine_log_norm(beta: float, hbar: float) -> float:
    """log M for the affine fiducial M x**(b-1/2) exp(-b x), b = beta/hbar."""
    nu = 2.0 * beta / hbar
    return 0.5 * (nu * math.log(nu) - math.lgamma(nu))


def affine_values(beta: float, hbar: float, u: np.ndarray) -> np.ndarray:
    b = beta / hbar
    a = b - 0.5
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0):
        raise DomainError("affine fiducial is defined for x > 0 only")
    return np.exp(affine_log_norm(beta, hbar) + a * np.log(u) - b * u)


# ---------------------------------------------------------------------------
# closed-form moments


def _affine_moment(beta: float, hbar: float, power: int) -> float:
    """Exact moment of x**power in |xi|^2 via Gamma-function ratios."""
    nu = 2.0 * beta / hbar
    if power >= 0:
        out = 1.0
        for t in range(power):
            out *= (nu + t) / nu
        return out
    k = -power
    if nu <= k:
        raise DomainError(f"moment x**{power} diverges for beta/hbar = {beta/hbar}")
    out = 1.0
    for t in range(1, k + 1):
        out *= nu / (nu - t)
    return out


def fiducial_moment(f: Fiducial, k: int) -> float:
    """Exact moment of x**k in the fiducial density |eta|^2 or |xi|^2.

    Gaussian moments are (k-1)!! (hbar / 2 omega)^(k/2) for even k and 0
    for odd k; affine moments are Gamma-function ratios and may be of
    negative order.  A divergent moment raises :class:`DomainError`.
    """
    if f.kind == AFFINE_DOMAIN:
        return _affine_moment(f.beta, f.hbar, k)
    if k < 0:
        raise DomainError("negative position powers on the full line")
    if k % 2:
        return 0.0
    val = 1.0
    var = f.hbar / (2 * f.omega)
    for t in range(1, k, 2):  # (k-1)!! var^(k/2)
        val *= t
    try:
        return val * var ** (k // 2)
    except OverflowError as exc:
        raise NumericError(f"moment x**{k} of the Gaussian fiducial overflows") from exc


def coherent_moments(f: Fiducial, pt: PhasePoint) -> tuple[float, float]:
    """Mean and variance of x in |psi_{p,q}|^2, from the fiducial's moments.

    Transport shifts x by q on the canonical sheet and dilates it by q on
    the affine one, so with m_k the fiducial moments the mean is q + m_1 or
    q m_1 and the variance m_2 - m_1^2 or q^2 (m_2 - m_1^2).  Products,
    not powers: an overflow gives inf for the callers' guards.
    """
    if f.kind != pt.domain:
        raise DomainError(f"a {f.kind} fiducial has no moments on the {pt.domain} sheet")
    m1 = fiducial_moment(f, 1)
    var = fiducial_moment(f, 2) - m1 * m1
    if pt.domain == AFFINE_DOMAIN:
        return pt.q * m1, pt.q * pt.q * var
    return pt.q + m1, var


# ---------------------------------------------------------------------------
# default grids


def default_canonical_grid(
    f: Fiducial, q: float = 0.0, p: float = 0.0, n: int | None = None
) -> Grid:
    """Full-line window [-L, L] with L = max(10 sqrt(hbar/omega), |q| + 10 sqrt(hbar/omega))."""
    width = 10 * math.sqrt(f.hbar / f.omega)
    L = max(width, abs(q) + width)
    if not math.isfinite(L):
        raise DomainError(f"canonical window half-width {L} is not finite")
    if n is None:
        # keep ~40 nodes per phase wavelength on top of the envelope default
        phase_nodes = 16 * L * abs(p) / f.hbar
        if not math.isfinite(phase_nodes):
            raise DomainError(f"node count {phase_nodes} for p = {p} is not finite")
        n = max(4097, int(phase_nodes) | 1)
    return uniform_grid(-L, L, n, kind=FULL_LINE)


def affine_node_count(beta: float, hbar: float, upper: float) -> int:
    """Node count keeping the norm the half-line trapezoid rule misses below 1e-8.

    Near 0, |xi|^2 ~ M^2 x^(nu - 1), nu = 2 beta / hbar; on nodes k eps with
    half weight at the first, the rule misses M^2 eps^nu (1/2 - zeta(1 - nu)),
    at most 7/12 M^2 eps^nu for 2 <= nu <= 3.  Above, the node floor governs.
    """
    nu = 2.0 * beta / hbar
    log_m2 = 2 * affine_log_norm(beta, hbar)
    log_eps = (math.log(1e-8) - log_m2 - math.log(7 / 12)) / nu
    eps = math.exp(log_eps)
    n = int(math.ceil(upper / eps))
    return min(max(n, 20_000), 2_000_000)


def default_affine_grid(f: Fiducial, q: float = 1.0, n: int | None = None) -> Grid:
    """Half-line window (eps, q (1 + margin)] with eps = spacing.

    The margin is max(20 hbar / beta, 10 sqrt(hbar / 2 beta)): the second
    term is ten relative spreads of the dilated state, which shrink like
    sqrt(hbar / beta), and it takes over from the first above beta / hbar = 8.
    The probability mass a dilated state keeps below the first node scales
    with eps/q, so the node count is chosen per unit dilation and the
    resolution is q-independent.
    """
    upper = q * (1 + max(20 * f.hbar / f.beta, 10 * f.sigma))
    if n is None:
        n = affine_node_count(f.beta, f.hbar, upper / q)
    return half_line_grid(upper, n)


def fiducial_wavefunction(f: Fiducial, grid: Grid | None = None) -> WaveFunction:
    """The fiducial itself as a WaveFunction (identity transport)."""
    if f.kind == CANONICAL_DOMAIN:
        grid = grid or default_canonical_grid(f)
        return WaveFunction(grid, gaussian_values(f.omega, f.hbar, grid.nodes), f.hbar)
    grid = grid or default_affine_grid(f)
    return WaveFunction(grid, affine_values(f.beta, f.hbar, grid.nodes), f.hbar)


# ---------------------------------------------------------------------------
# transported states


def _require_coverage(f: Fiducial, pt: PhasePoint, grid: Grid) -> None:
    sigma = f.sigma
    if grid.lower > pt.q - 8 * sigma or grid.upper < pt.q + 8 * sigma:
        raise CoverageError(
            f"grid [{grid.lower}, {grid.upper}] does not cover "
            f"[{pt.q - 8 * sigma:.3g}, {pt.q + 8 * sigma:.3g}]"
        )


def canonical_coherent(
    f: Fiducial, pt: PhasePoint, grid: Grid | None = None
) -> WaveFunction:
    """Canonical coherent state eta_{p,q} on a full-line grid.

    With no explicit grid, a window re-centered around q is chosen; an
    explicit grid must cover [q - 8 sigma, q + 8 sigma].
    """
    if f.kind != pt.domain or pt.domain != CANONICAL_DOMAIN:
        raise DomainError("canonical transport needs a canonical fiducial and phase point")
    if grid is None:
        grid = default_canonical_grid(f, q=pt.q, p=pt.p)
    _require_coverage(f, pt, grid)
    x = grid.nodes
    phase = np.exp(1j * pt.p * (x - pt.q) / f.hbar)
    envelope = gaussian_values(f.omega, f.hbar, x - pt.q)
    return WaveFunction(grid, phase * envelope, f.hbar)


def affine_coherent(
    f: Fiducial, pt: PhasePoint, grid: Grid | None = None
) -> WaveFunction:
    """Affine coherent state xi_{p,q} on a half-line grid (q > 0)."""
    if f.kind != pt.domain or pt.domain != AFFINE_DOMAIN:
        raise DomainError("affine transport needs an affine fiducial and phase point")
    if grid is None:
        grid = default_affine_grid(f, q=pt.q)
    x = grid.nodes
    values = (
        pt.q**-0.5
        * np.exp(1j * pt.p * (x - pt.q) / f.hbar)
        * affine_values(f.beta, f.hbar, x / pt.q)
    )
    return WaveFunction(grid, values, f.hbar)


# ---------------------------------------------------------------------------
# families (for geometry)


@dataclass(frozen=True)
class CoherentFamily:
    """(p, q) -> coherent state of one fiducial, optionally on one fixed grid.

    The fiducial's kind is the family's sheet: eta_{p,q} on the canonical
    one, xi_{p,q} on the affine one.  A shared grid is what makes overlaps
    between members defined.  The metric and the labels of a family come
    from closed-form moments (:func:`coherent_moments`) and need no grid.
    """

    fiducial: Fiducial
    grid: Grid | None = None

    @property
    def domain(self) -> str:
        return self.fiducial.kind

    def __call__(self, p: float, q: float) -> WaveFunction:
        pt = PhasePoint(p, q, domain=self.domain)
        if self.domain == AFFINE_DOMAIN:
            return affine_coherent(self.fiducial, pt, grid=self.grid)
        return canonical_coherent(self.fiducial, pt, grid=self.grid)


# ---------------------------------------------------------------------------
# centering


@dataclass(frozen=True)
class CenteringReport:
    x_moment: float
    conjugate_moment: float  # momentum (canonical) or dilation moment (affine)
    passed: bool


def verify_centering(f: Fiducial, tol: float = 1e-7) -> CenteringReport:
    """Moment report that gives (p, q) their physical meaning.

    Canonical fiducials must have vanishing position and momentum moments;
    the affine fiducial must have unit position moment and vanishing
    dilation moment.  The moments are the labels read back at the reference
    point, (0, 0) or (0, 1); the dilation moment is p q.  The p label
    there is 0 by construction, so the check tests the position moment.
    Failures are reported, never corrected.
    """
    affine = f.kind == AFFINE_DOMAIN
    x_expected = 1.0 if affine else 0.0
    p_read, q_read = state_labels(f, PhasePoint(0.0, x_expected, domain=f.kind))
    conjugate = p_read * q_read if affine else p_read
    passed = abs(q_read - x_expected) <= tol and abs(conjugate) <= tol
    return CenteringReport(q_read, conjugate, passed)


def state_labels(f: Fiducial, pt: PhasePoint) -> tuple[float, float]:
    """Read back (p, q) from the moments of the state transported to ``pt``.

    For Gaussian and affine-Beta fiducials the q label is the mean of x in
    |psi_{p,q}|^2 (:func:`coherent_moments`).  The phase
    exp(i p (x - q) / hbar) contributes p |psi|^2 to the momentum density
    and p x |psi|^2 to the dilation density, so on a state of norm 1 the p
    label is p on the canonical sheet and p X / X = p on the affine one.
    """
    mean, _ = coherent_moments(f, pt)
    return pt.p, mean
