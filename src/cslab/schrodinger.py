"""Full quantum dynamics: the flow the restricted (coherent-sheet) dynamics
is compared with.

This is the benchmark side: the unrestricted Schrodinger flow
i hbar dpsi/dt = Hop psi.  It has two routes, one per sheet.

Canonical sheet: the Hermite (number) basis of the Gaussian fiducial,
exact in time (:func:`evolve_hermite`).  The fiducial is the ground state
of the (omega, hbar) oscillator; with s = sqrt(hbar / 2 omega),
X = s (a + a^+) and D = -i hbar d/dx = i (hbar / 2s) (a^+ - a), so every
ordered polynomial Hop is a banded matrix, and eta_{p,q} has the closed
coefficients exp(-|z|^2 / 2) z^n / sqrt(n!), z = q / 2s + i p s / hbar.
Each term is a product of (K + degree)-size ladder matrices cropped to
K x K, which leaves every kept element exact.  One ``eigh`` of the K x K
matrix gives the state at every recorded time, so dt only places the
records.  K doubles until the weight of the top ``TAIL_STATES`` basis
states stays under ``TAIL_WEIGHT`` at every record; past ``MAX_BASIS`` the
run stops, so a Hamiltonian unbounded below does not run inside a box.
The final state is sampled on the window's nodes by the Hermite-function
recurrence.

Half line: Crank-Nicolson on a grid (:func:`evolve`).  Supported
Hamiltonians are tridiagonal on the grid:

  * potentials     c * X^k          -> diagonal,
  * ordered forms  c * D X^k D      -> symmetric -hbar^2 d(x^k d.) with the
                                       coefficient evaluated at half nodes;
                                       the kinetic term c * D D is k = 0, the
                                       3-point stencil of -hbar^2 d2/dx2.

The grid's first node is positive (see :func:`~cslab.grids.half_line_grid`):
its far end is pinned by a homogeneous Dirichlet condition, and x = 0 is a
ghost zero, not a node.  Crank-Nicolson is the Cayley form of the
discrete Hamiltonian, hence unitary in the discrete norm up to solver
roundoff.  With A = 1 + i lam H and B = 1 - i lam H, A + B = 2, so a step
u' = A^-1 B u is u' = 2 A^-1 u - u: one solve with A and no right-hand-side
product.  A is factored once per run as L D L^T without pivoting (see
:func:`ldlt_tridiagonal`), so each step is the two unit-bidiagonal sweeps of
:class:`LDLTSweeps`, written as row-wise prefix sums in numpy, around one
multiply by 2/D, guarded by the residual A u' - B u from one tridiagonal
product.  Each row is as long as the span of its running products allows
once they are centred by a power of two, so a run takes few rows and few
Python-level carries between them.  The run is measured as it steps, on
the vector of unknowns with the grid's quadrature (<H> from H u, formed on
recorded steps only); the full-grid state is built once, at the end.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .dynamics import Trajectory
from .errors import ConfigError, DomainError, NumericError
from .grids import Grid, WaveFunction, half_line_grid, uniform_grid
from .states import AFFINE_DOMAIN, Fiducial, PhasePoint
from .symbols import D_FACTOR, X_FACTOR, OperatorExpr

# largest share of the norm of psi0 that evolve may drop on the pinned far
# end; it matches the normalization tolerance evolve requires of psi0
PINNED_NORM_TOL = 1e-6
# largest phase |p0| h / hbar that psi0's plane wave may turn per grid
# spacing.  On the half line it bounds the 3-point stencil's error in the
# kinetic energy, (p0 h / hbar)^2 / 12 < 1e-3 relative; on the canonical
# sheet the flow takes no stencil, and it keeps the plane wave resolved in
# the sampled final state.
MAX_PHASE_PER_NODE = 0.1
# largest grid spacing per position spread of the start: h / sigma on the
# canonical sheet's window, sigma the Gaussian fiducial's spread, and
# h / (q0 sigma) on the half line, sigma = sqrt(hbar / 2 beta).  The canonical
# flow takes no stencil (see evolve_hermite); there the bound only keeps the
# fiducial resolved in the sampled final state.  The half-line window scales
# with q0 but not with the spread, which shrinks as beta / hbar grows: at
# 2048 nodes the bound admits beta / hbar up to about 5.5e4, and <H> of
# 1.0 * D X D from (0, 1) comes out under the symbol's beta / 2 by 0.3% at
# beta / hbar = 1e4 and 1.4% at 5e4.
MAX_SPACING_PER_WIDTH = 0.5


@dataclass(frozen=True)
class EvolutionSetup:
    hamiltonian: OperatorExpr
    grid: Grid
    dt: float
    steps: int
    hbar: float = 1.0
    # (diag, off) of the discrete Hamiltonian, built once by __post_init__
    tridiagonal: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (math.isfinite(self.hbar) and self.hbar > 0):
            raise DomainError(f"hbar = {self.hbar!r} must be finite and positive")
        require_time_steps(self.dt, self.steps)
        if not self.grid.lower > 0:  # a NaN end fails too
            raise DomainError(f"Crank-Nicolson runs on the half line, but the grid's "
                              f"first node {self.grid.lower!r} is not positive")
        if self.grid.nodes[self.unknown_slice()].size < 3:
            raise DomainError("the tridiagonal solver needs three unpinned grid nodes")
        diag, off = hamiltonian_tridiagonal(self)  # validates the operator form
        object.__setattr__(self, "tridiagonal", (diag, off))
        rho = spectral_radius_estimate(diag, off)
        if not self.dt * rho / (2 * self.hbar) <= 1e6:  # a NaN radius fails too
            raise DomainError(
                f"dt * spectral radius = {self.dt * rho:.3e} is not finite or "
                "unreasonably large; reduce dt or coarsen the grid"
            )

    def unknown_slice(self) -> slice:
        # the pinned far end is excluded from the evolving vector; x = 0 is
        # not a node (ghost zero), so every other node is unknown
        return slice(0, self.grid.n - 1)


def _term_shape(factors) -> tuple[str, int]:
    kinds = [f.kind for f in factors]
    if all(k == X_FACTOR for k in kinds):
        return "potential", sum(f.power for f in factors)
    if (
        len(kinds) >= 2
        and kinds[0] == D_FACTOR
        and kinds[-1] == D_FACTOR
        and all(k == X_FACTOR for k in kinds[1:-1])
    ):
        return "dxd", sum(f.power for f in factors[1:-1])
    raise DomainError(
        "operator term "
        + " ".join(str(f) for f in factors)
        + " is not tridiagonal (supported: D D, X^k, D X^k D)"
    )


def hamiltonian_tridiagonal(setup: EvolutionSetup) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and symmetric off-diagonal of the discrete Hamiltonian."""
    grid = setup.grid
    h = grid.spacing
    sl = setup.unknown_slice()
    x = grid.nodes[sl]
    m = x.size
    # products, not **: an overflow gives inf for the guards, not OverflowError
    hb2 = setup.hbar * setup.hbar
    h2 = h * h
    if not 0 < h2 < math.inf:
        raise NumericError(f"grid spacing {h:.3e} is out of range for the stencil")
    diag = np.zeros(m)
    off = np.zeros(m - 1)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is the guards' to stop
        for coeff, factors in setup.hamiltonian.terms:
            shape, power = _term_shape(factors)
            if shape == "potential":
                diag += coeff * x**power
            else:
                left = (x - h / 2) ** power
                right = (x + h / 2) ** power
                diag += coeff * hb2 * (left + right) / h2
                off += -coeff * hb2 * right[:-1] / h2
    return diag, off


def tridiagonal_product(diag: np.ndarray, off: np.ndarray, u: np.ndarray) -> np.ndarray:
    """H u for the symmetric tridiagonal H with diagonal diag and off-diagonal off."""
    hu = diag * u
    hu[:-1] += off * u[1:]
    hu[1:] += off * u[:-1]
    return hu


def spectral_radius_estimate(diag: np.ndarray, off: np.ndarray) -> float:
    """Gershgorin bound for the tridiagonal Hamiltonian: the largest row sum of |H|."""
    return float(np.max(tridiagonal_product(np.abs(diag), np.abs(off), np.ones(diag.size))))


def ldlt_tridiagonal(diag: np.ndarray, off: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Multipliers l and pivots d of A = L D L^T, without pivoting.

    A is the complex symmetric tridiagonal matrix with diagonal ``diag``
    and off-diagonal ``off``; L is unit lower-bidiagonal with l below its
    diagonal.  For A = 1 + i lam H, H real symmetric, the Hermitian part of
    A is 1, so Re(x* A x) = |x|^2 and every leading block is nonsingular:
    elimination without row swaps completes, and each pivot
    d_i = 1 + i lam H_ii + lam^2 H_i,i-1^2 / d_(i-1) keeps Re d_i >= 1, so
    |l_i| <= |lam H_i,i-1| whatever the sign of H.  A zero or non-finite
    pivot (an H that overflowed) raises NumericError.
    """
    failure = NumericError(
        f"tridiagonal factorization met a zero or non-finite pivot (n={diag.size})"
    )
    a, e = diag.tolist(), off.tolist()
    pivots, multipliers = [a[0]], []
    try:
        for ai, ei in zip(a[1:], e):
            li = ei / pivots[-1]
            multipliers.append(li)
            pivots.append(ai - li * ei)
    except ZeroDivisionError:
        raise failure from None
    # a multiplier that overflows makes the next pivot non-finite
    d = np.array(pivots)
    if not (np.all(d) and np.all(np.isfinite(d))):
        raise failure
    return np.array(multipliers, dtype=complex), d


# half the span, in bits, that the running products of one row may cover;
# each row's products are centred by a power of two, so the scaled values,
# y / g of the forward sweep and g x of the back sweep, stay within about a
# factor 2^300 of the values they scale
ROW_PRODUCT_BITS = 300


def _chain(factors: Iterable[complex], ends: list[complex]) -> np.ndarray:
    """The carries c_r = k_r (c_(r-1) + e_(r-1)) of a row-to-row recurrence, c_0 = 0."""
    carry, carries = 0j, []
    for k, e in zip(factors, ends):
        carry = k * (carry + e)
        carries.append(carry)
    return np.array(carries)


def _row_links(links: np.ndarray, width: int, identity: float) -> np.ndarray:
    """``links`` in rows of ``width``, with ``identity`` at each row's start and
    on the padding."""
    rows = -(-links.size // width)
    out = np.full(rows * width, identity, dtype=links.dtype)
    out[: links.size] = links
    out = out.reshape(rows, width)
    out[:, 0] = identity
    return out


class LDLTSweeps:
    """Solves L D L^T x = b for unit lower-bidiagonal L (multipliers l below
    its diagonal) and diagonal D, in numpy alone.

    With c_i = -l_(i-1), the forward sweep L y = b is y_i = b_i + c_i y_(i-1).
    The m unknowns are laid out as rows of ``width`` (the last row padded),
    and g is the running product of c from each row's start, scaled there
    by a power of two, so within a row y = g cumsum(b / g), and each row adds
    one carry from the row before it.  The back sweep L^T x = D^-1 y,
    x_i = v_i + c_(i+1) x_(i+1), is the same with suffix sums:
    x = (1/g) suffix-sum(g v), so one multiply by g^2 / D, zero on the
    padding, joins the two sweeps.  A width is admissible when the log2 of
    every row's running product (0 at its start) spans at most
    2 ROW_PRODUCT_BITS; each row's scale 2^-round((max + min) / 2) centres
    that span on 0.  ``width`` is m, one row without padding, if that is
    admissible, and otherwise the widest admissible power of two.  Scaling
    by a power of two is exact, so a row's scale changes no result, only
    the range the scaled values span.  A zero link needs rows of one node,
    so when l is 0 both sweeps are the identity.
    """

    def __init__(self, multipliers: np.ndarray, pivots: np.ndarray):
        m = pivots.size
        links = np.ones(m, dtype=complex)  # links[i] = c_i; links[0] is unused
        links[1:] = -multipliers
        with np.errstate(divide="ignore"):  # a zero link is -inf bits
            bits = np.log2(np.abs(links))
        width = m
        while True:
            logs = np.cumsum(_row_links(bits, width, 0.0), axis=1)
            top, bottom = logs.max(axis=1), logs.min(axis=1)
            # a -inf or NaN span fails too
            if width == 1 or np.all(top - bottom <= 2 * ROW_PRODUCT_BITS):
                break
            width = 1 << ((width - 1).bit_length() - 1)  # the widest power of two below
        scales = np.ldexp(1.0, -np.round((top + bottom) / 2).astype(int))
        rows = _row_links(links, width, 1.0)
        rows[:, 0] = scales
        g = np.cumprod(rows, axis=1)
        # the carry factors c_(r width) g_(r-1, end) / scale_r, the back sweep
        # takes them in reverse; none when every carry is 0
        carries = links[width::width] * g[:-1, -1] / scales[1:]
        self.size, self.width = m, width
        self._carries = carries.tolist() if carries.any() else []
        self._inverse = 1 / g
        join = np.zeros(g.size, dtype=complex)
        join[:m] = (g * g).reshape(-1)[:m] / pivots
        self._join = join.reshape(g.shape)

    def buffer(self) -> tuple[np.ndarray, np.ndarray]:
        """A zeroed array of the sweeps' row layout, and the view of its m unknowns."""
        rows = np.zeros(self._join.shape, dtype=complex)
        return rows, rows.reshape(-1)[: self.size]

    def solve(self, b: np.ndarray, out: np.ndarray) -> None:
        """out = (L D L^T)^-1 b, both in the row layout of :meth:`buffer`.

        ``b``'s padding never reaches the unknowns, and ``out``'s padding ends zero.
        """
        np.multiply(b, self._inverse, out=out)
        np.cumsum(out, axis=1, out=out)
        if self._carries:
            out[1:] += _chain(self._carries, out[:-1, -1].tolist())[:, None]
        out *= self._join
        back = out[:, ::-1]
        np.cumsum(back, axis=1, out=back)
        if self._carries:
            out[:-1] += _chain(reversed(self._carries), out[:0:-1, 0].tolist())[::-1, None]
        out *= self._inverse


def require_time_steps(dt: float, steps: int) -> None:
    if not (math.isfinite(dt) and dt > 0):
        raise DomainError("dt must be finite and positive")
    if steps < 1:
        raise DomainError("steps must be >= 1")


def record_steps(steps: int, snapshot_every: int | None) -> np.ndarray:
    """The steps a run records: 0, every ``snapshot_every``-th and the last.
    ``snapshot_every`` defaults to the least stride that records at most 513."""
    if snapshot_every is None:
        snapshot_every = -(-steps // 512)
    if snapshot_every < 1:
        raise DomainError(f"snapshot_every must be >= 1, got {snapshot_every}")
    recorded = np.arange(0, steps + 1, snapshot_every)
    return recorded if recorded[-1] == steps else np.append(recorded, steps)


@dataclass
class EvolutionResult:
    """A run's setup, its last state, and its trajectory: t, <p>, <x> and <H>
    at t = 0, every ``snapshot_every`` steps and the end."""

    setup: EvolutionSetup
    trajectory: Trajectory
    final: WaveFunction


def evolve(
    psi0: WaveFunction,
    setup: EvolutionSetup,
    snapshot_every: int | None = None,
) -> EvolutionResult:
    """Run Crank-Nicolson and measure the state at strided steps.

    ``snapshot_every`` defaults to at most 513 recorded steps per run; pass 1
    to record every step.  The pinned Dirichlet value of ``psi0`` at the far
    end is dropped, so it may carry at most ``PINNED_NORM_TOL`` of its norm.
    Each record is measured on the unknowns with the grid's quadrature (see
    :func:`track_expectations`); the full-grid state is built once, for
    ``EvolutionResult.final``.
    """
    if psi0.grid != setup.grid:
        raise DomainError("initial state must live on the setup grid")
    psi0.require_normalized(1e-6)
    recorded = set(record_steps(setup.steps, snapshot_every).tolist())

    grid = setup.grid
    sl = setup.unknown_slice()
    h = grid.spacing
    pinned_norm = h * abs(psi0.values[-1]) ** 2
    if not pinned_norm <= PINNED_NORM_TOL:  # a NaN norm fails too
        raise NumericError(
            f"psi0 carries {pinned_norm:.3e} of its norm on the pinned Dirichlet node "
            f"(limit {PINNED_NORM_TOL:g}); widen the window or add nodes"
        )
    diag, off = setup.tridiagonal
    lam = setup.dt / (2 * setup.hbar)
    # A = 1 + i lam H = L D L^T, so L (D/2) L^T w = u gives w = 2 A^-1 u; the
    # state and the solution live in the sweeps' row layout, swapped each step
    a_diag, a_off = 1 + 1j * lam * diag, 1j * lam * off
    multipliers, pivots = ldlt_tridiagonal(a_diag, a_off)
    m = diag.size
    sweeps = LDLTSweeps(multipliers, pivots / 2)
    (u_rows, u), (w_rows, w) = sweeps.buffer(), sweeps.buffer()
    # complex copies, so that each product multiplies like with like
    diag, off = diag.astype(complex), off.astype(complex)

    u[:] = psi0.values[sl]
    norm0 = math.sqrt(np.vdot(u, u).real * h)
    hu = tridiagonal_product(diag, off, u)
    records = [(0.0, *track_expectations(u, hu, setup))]  # (t, <p>, <x>, <H>)
    for step in range(1, setup.steps + 1):
        sweeps.solve(u_rows, w_rows)  # w = 2 A^-1 u
        # A u' - B u = A w - 2 u must stay under 1e-10 max(|u|, 1), which
        # |B u| >= |u| makes no looser a bound than 1e-10 max(|B u|, 1);
        # |u| is formed only when the residual exceeds 1e-10
        r = tridiagonal_product(a_diag, a_off, w)
        r -= u
        r -= u
        res = math.sqrt(np.vdot(r, r).real)
        if not res <= 1e-10 and not res <= 1e-10 * math.sqrt(np.vdot(u, u).real):
            # a NaN residual fails too
            raise NumericError(
                f"tridiagonal solve residual {res:.2e} at step {step} "
                f"(dt={setup.dt:g}, n={m})"
            )
        w -= u
        (u_rows, u), (w_rows, w) = (w_rows, w), (u_rows, u)
        if step in recorded:
            hu = tridiagonal_product(diag, off, u)
            records.append((step * setup.dt, *track_expectations(u, hu, setup)))

    norm1 = math.sqrt(np.vdot(u, u).real * h)
    budget = 1e-8 * (setup.steps / 1000 + 1)
    if not abs(norm1 - norm0) <= budget:
        raise NumericError(
            f"unitarity violated: norm drift {abs(norm1 - norm0):.2e} "
            f"over {setup.steps} steps"
        )
    full = np.zeros(grid.n, dtype=complex)
    full[sl] = u
    final = WaveFunction(grid, full, setup.hbar)
    return EvolutionResult(setup, Trajectory(*zip(*records)), final)


def track_expectations(
    u: np.ndarray, hu: np.ndarray, setup: EvolutionSetup
) -> tuple[float, float, float]:
    """<-i hbar d/dx>, <x> and <H> of the state whose unpinned values are u.

    ``hu`` is H u.  The pinned value and the ghost at x = 0 are zero, so
    these are the grid's quadratures (see :mod:`cslab.grids`): <p> is
    hbar Im sum conj(u_i) u_{i+1}, the central difference with zero ghosts,
    and <x> and <H> are h sum x |u|^2 and h sum conj(u) H u.
    """
    h = setup.grid.spacing
    drift = np.vdot(u[:-1], u[1:]).imag
    x = setup.grid.nodes[setup.unknown_slice()]
    q = np.vdot(u, x * u).real * h
    energy = np.vdot(u, hu).real * h
    return setup.hbar * float(drift), float(q), float(energy)


# ---------------------------------------------------------------------------
# the canonical sheet in the fiducial's Hermite basis

# the basis is accepted once its top TAIL_STATES states hold at most
# TAIL_WEIGHT of the norm at every record.  The error in <x> then stays
# within about 100 times that weight: measured against K = 1024, 6e-8 at a
# weight of 6.5e-8 (free packet) and 2.2e-11 at 3.9e-13 (0.25 X^4)
TAIL_STATES = 8
TAIL_WEIGHT = 1e-14
# largest basis tried; one eigh at this size takes about a second
MAX_BASIS = 1024
# a Hamiltonian matrix whose anti-Hermitian part exceeds this share of its
# largest element is not Hermitian to roundoff
HERMITIAN_RTOL = 1e-12
# records propagated together: bounds the K x chunk block of coefficients
RECORD_CHUNK = 1024


@dataclass(frozen=True)
class HermiteEvolution:
    """A canonical run: its trajectory, its last state sampled on the window,
    the basis size K it was accepted at and the weight of that basis's top
    ``TAIL_STATES`` states, largest over the records."""

    trajectory: Trajectory
    final: WaveFunction
    basis_size: int
    tail_weight: float


def _degree(factors) -> int:
    return sum(f.power if f.kind == X_FACTOR else 1 for f in factors)


def hermite_hamiltonian(op: OperatorExpr, k: int, s: float, hbar: float) -> np.ndarray:
    """The K x K matrix of ``op`` in the number basis whose ground state has
    position spread s: X = s (a + a^+), D = i (hbar / 2s) (a^+ - a).

    Each term is applied, factor by factor from the right, to the first K
    unit vectors of a basis of K + degree states, and only then cropped to
    K rows, so every kept element is exact.  A term whose elements are not
    finite is a NumericError naming it; a matrix that is not Hermitian to
    roundoff is a ConfigError naming the operator.  The result is real
    when every element is.
    """
    m = k + max((_degree(fs) for _, fs in op.terms), default=0)
    root = np.sqrt(np.arange(1.0, m))[:, None]
    h = np.zeros((k, k), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named below
        for coeff, factors in op.terms:
            y = np.eye(m, k, dtype=complex)
            for f in reversed(factors):
                for _ in range(f.power if f.kind == X_FACTOR else 1):
                    lowered = np.zeros_like(y)  # a y
                    lowered[:-1] = root * y[1:]
                    raised = np.zeros_like(y)  # a^+ y
                    raised[1:] = root * y[:-1]
                    if f.kind == X_FACTOR:
                        y = s * (raised + lowered)
                    else:  # times i exactly: an even count of D leaves zero imaginary parts
                        y = 1j * (hbar / (2 * s) * (raised - lowered))
            term = coeff * y[:k]
            if not np.isfinite(term).all():
                raise NumericError(
                    f"operator term {' '.join(map(str, factors))} has non-finite elements "
                    f"in the {k}-state Hermite basis"
                )
            h += term
        if not h.imag.any():
            h = h.real
        if not np.isfinite(h).all():
            raise NumericError(f"the {k}-state matrix of {op} is not finite")
        skew = float(np.max(np.abs(h - h.conj().T)))
        scale = float(np.max(np.abs(h)))
    if not skew <= HERMITIAN_RTOL * scale:
        raise ConfigError(
            f"the operator {op} is not Hermitian: its {k}-state matrix differs from "
            f"its adjoint by {skew:.3g}"
        )
    return h


def coherent_coefficients(z: complex, k: int) -> np.ndarray:
    """The first K number-basis coefficients exp(-|z|^2/2) z^n / sqrt(n!) of a
    coherent state, by c_n = c_(n-1) z / sqrt(n)."""
    c = np.empty(k, dtype=complex)
    c[0] = math.exp(-0.5 * abs(z) ** 2)
    for n in range(1, k):
        c[n] = c[n - 1] * z / math.sqrt(n)
    return c


def hermite_series(coeffs: np.ndarray, x: np.ndarray, s: float) -> np.ndarray:
    """sum_n coeffs[n] phi_n(x) for the number states phi_n whose ground state
    has position spread s, by the recurrence
    phi_n = ((x/s) phi_(n-1) - sqrt(n-1) phi_(n-2)) / sqrt(n).

    The Gaussian factor is kept as a logarithm and the polynomial part is
    rescaled where it grows past 1e100, so neither underflows nor overflows
    on its own far from the origin.
    """
    y = x / s
    log_factor = -0.25 * y * y - 0.25 * math.log(2 * math.pi * s * s)
    previous, current = np.zeros_like(y), np.ones_like(y)
    total = coeffs[0] * current
    for n in range(1, coeffs.size):
        previous, current = current, (y * current - math.sqrt(n - 1) * previous) / math.sqrt(n)
        total += coeffs[n] * current
        big = np.abs(current) > 1e100
        if big.any():
            for part in (previous, current, total):
                part[big] *= 1e-100
            log_factor[big] += 100 * math.log(10)
    return total * np.exp(log_factor)


def _propagated(vectors, energies, b, times, hbar):
    """vectors (exp(-i E t / hbar) b) for each record time t, one chunk of
    records at a time: the basis coefficients of the state at those times."""
    for first in range(0, times.size, RECORD_CHUNK):
        t = times[first:first + RECORD_CHUNK]
        yield vectors @ (b[:, None] * np.exp(-1j / hbar * np.outer(energies, t)))


def evolve_hermite(
    op: OperatorExpr,
    f: Fiducial,
    start: PhasePoint,
    grid: Grid,
    dt: float,
    steps: int,
    snapshot_every: int | None = None,
) -> HermiteEvolution:
    """The canonical flow from eta_{p0,q0} of ``f``, exact in time, recorded at
    t = k dt for the strided steps k that :func:`evolve` records.

    <x> = 2s Re<a> and <p> = (hbar/s) Im<a>, with <a> the sum over n of
    conj(C_n) sqrt(n+1) C_(n+1), and <H> is the banded form C^+ H C.  The
    last state is sampled on ``grid`` with the global phase
    exp(-i p0 q0 / 2 hbar), which makes the t = 0 sample the grid's
    ``canonical_coherent`` state.
    """
    require_time_steps(dt, steps)
    times = record_steps(steps, snapshot_every) * dt
    hbar, s = f.hbar, f.sigma
    z = start.q / (2 * s) + 1j * start.p * s / hbar
    degree = max((_degree(fs) for _, fs in op.terms), default=0)
    # the start's mean number |z|^2, 12 of its spreads |z|, 8 states per power of H
    first = 8 * (degree + 1) + abs(z) ** 2 + 12 * abs(z)
    if not first <= MAX_BASIS:  # a NaN start fails too
        raise NumericError(
            f"an operator of degree {degree} from (p0, q0) = ({start.p:g}, {start.q:g}) "
            f"needs K = {first:.4g} Hermite states, over MAX_BASIS = {MAX_BASIS}"
        )
    k = math.ceil(first)
    while True:
        h = hermite_hamiltonian(op, k, s, hbar)
        energies, vectors = np.linalg.eigh(h)
        b = vectors.conj().T @ coherent_coefficients(z, k)
        tail_weight = max(
            float(np.max(np.sum(np.abs(top) ** 2, axis=0)))
            for top in _propagated(vectors[-TAIL_STATES:], energies, b, times, hbar)
        )
        if tail_weight <= TAIL_WEIGHT:
            break
        if k == MAX_BASIS:  # a NaN weight stops here too
            raise NumericError(
                f"the Hermite basis does not hold the flow: at K = {k} (MAX_BASIS) its top "
                f"{TAIL_STATES} states carry {tail_weight:.3g} of the norm, over "
                f"TAIL_WEIGHT = {TAIL_WEIGHT:g}; shorten the run, or check that H is "
                "bounded below"
            )
        k = min(2 * k, MAX_BASIS)

    root = np.sqrt(np.arange(1.0, k))[:, None]
    bands = [(d, np.diagonal(h, d)[:, None]) for d in range(1, degree + 1)]
    lowered, energy = [], []
    for coeffs in _propagated(vectors, energies, b, times, hbar):
        lowered.append(np.sum(coeffs[:-1].conj() * root * coeffs[1:], axis=0))  # <a>
        form = np.sum(np.diagonal(h).real[:, None] * np.abs(coeffs) ** 2, axis=0)
        for d, band in bands:
            form += 2 * np.sum(coeffs[:-d].conj() * band * coeffs[d:], axis=0).real
        energy.append(form)
    a_mean = np.concatenate(lowered)
    trajectory = Trajectory(
        times, hbar / s * a_mean.imag, 2 * s * a_mean.real, np.concatenate(energy)
    )
    last = coeffs[:, -1]  # the last chunk ends at the last record
    phase = np.exp(-0.5j * start.p * start.q / hbar)
    values = phase * hermite_series(last, grid.nodes, s)
    return HermiteEvolution(trajectory, WaveFunction(grid, values, hbar), k, tail_weight)


# ---------------------------------------------------------------------------
# the windows evolve-quantum samples and evolves on


def oscillation_window(f: Fiducial, p0: float, q0: float, n: int) -> Grid:
    """Full-line grid covering the classical oscillation with 10-sigma margins."""
    amp = math.hypot(q0, p0 / f.omega)
    half = amp + 10 * f.sigma
    if not math.isfinite(2 * half):
        raise DomainError(f"p0 = {p0!r}, q0 = {q0!r} needs a window of non-finite width")
    return uniform_grid(-half, half, n)


def half_line_window(f: Fiducial, q0: float, n: int) -> Grid:
    """Half-line grid covering dilated states up to 3 q0 with 10-sigma margins."""
    upper = 3 * q0 * (1 + 10 * f.sigma)
    if not math.isfinite(upper):
        raise DomainError(f"q0 = {q0!r} needs a window of non-finite width; lower q0")
    return half_line_grid(upper, n)


def evolution_window(f: Fiducial, p0: float, q0: float, n: int) -> Grid:
    """The n-node window of the sheet of ``f`` for a run from (p0, q0), refused
    if it breaks ``MAX_SPACING_PER_WIDTH`` or ``MAX_PHASE_PER_NODE``."""
    if f.kind == AFFINE_DOMAIN:
        grid = half_line_window(f, q0, n)
        width, spread, unit, remedy = q0 * f.sigma, "the start's spread", "q0 sigma", "beta / hbar"
    else:
        grid = oscillation_window(f, p0, q0, n)
        width, spread, unit, remedy = f.sigma, "the fiducial width", "sigma", "|q0|"
    spacing_per_width = grid.spacing / width
    if not spacing_per_width <= MAX_SPACING_PER_WIDTH:  # a NaN spacing fails too
        raise NumericError(
            f"the {grid.n}-node grid does not resolve {spread} {unit} = {width:.3g}: its "
            f"spacing is {spacing_per_width:.4g} {unit}, over the resolution limit "
            f"{MAX_SPACING_PER_WIDTH:g}; add nodes or lower {remedy}"
        )
    phase_per_node = abs(p0) * grid.spacing / f.hbar
    if not phase_per_node <= MAX_PHASE_PER_NODE:  # a NaN phase fails too
        raise NumericError(
            f"the {grid.n}-node grid does not resolve p0 = {p0:g}: its phase turns "
            f"{phase_per_node:.3g} rad per node, over the resolution limit "
            f"{MAX_PHASE_PER_NODE:g}; add nodes or lower |p0|"
        )
    return grid
