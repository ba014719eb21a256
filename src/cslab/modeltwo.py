"""Exact ladder-operator calculus for the reducible quartic oscillator.

A second, independent set of canonical pairs (R, S) is coupled to (P, Q)
through a correlated Gaussian ground state with correlation 0 <= zeta < 1.
The annihilators of that ground state are

    A_n = P_n - i m (Q_n + zeta S_n),    B_n = R_n - i m (S_n + zeta Q_n),

and coherent displacement by (p, q) shifts their eigenvalues to

    <A_n> = p_n - i m q_n,               <B_n> = -i m zeta q_n.

Because displaced coherent states are joint eigenstates of all A_n and B_n,
the expectation of any normal-ordered polynomial is the polynomial evaluated
at those c-numbers; everything in this module is exact arithmetic, valid
uniformly in the number of degrees of freedom N.

The quartic Hamiltonian  H1 = H_p + H_r + 4 nu :H_r^2:  (with
H_p = (1/2) sum A+A and H_r = (1/2) sum B+B) then reproduces

    <p,q| H1 |p,q> = (1/2)[p^2 + (1+zeta^2) m^2 q^2] + nu zeta^4 m^4 (q^2)^2

so an arbitrary quartic target (m0^2, lambda0 > 0) is matched by choosing
m^2 = m0^2/(1+zeta^2) and nu = lambda0/(zeta^4 m^4).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import AccuracyError, DomainError, NumericError, PreconditionError

MultiIndex = tuple[tuple[int, int], ...]  # sorted ((site, power), ...)
SLOTS = ("A+", "B+", "A", "B")


def _power(base: float, exponent: int) -> float:
    """``base**exponent`` of a Python float; overflow is a numerical failure."""
    try:
        return float(base) ** exponent
    except OverflowError as exc:
        raise NumericError(f"{base!r}**{exponent} overflows a float") from exc


@dataclass(frozen=True)
class ReducibleRep:
    """Reducible representation parameters; zeta = 0 is the irreducible case."""

    N: int
    m: float
    zeta: float
    hbar: float = 1.0

    def __post_init__(self):
        if self.N < 1:
            raise DomainError("N must be a positive integer")
        if not (self.m > 0 and self.hbar > 0):
            raise DomainError("m and hbar must be positive")
        if not 0.0 <= self.zeta < 1.0:
            raise DomainError("zeta must lie in [0, 1)")

    @property
    def K(self) -> float:
        """Overlap-width parameter K = (1 - zeta^2)^-1 >= 1."""
        return 1.0 / (1.0 - self.zeta**2)

    def alpha(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        return p - 1j * self.m * q

    def beta(self, q: np.ndarray) -> np.ndarray:
        return -1j * self.m * self.zeta * q

    def couplings(self, nu: float) -> tuple[float, float]:
        """(m0^2, lambda0) of the quartic target the model reproduces."""
        m0_sq = (1 + self.zeta**2) * _power(self.m, 2)
        return m0_sq, nu * self.zeta**4 * _power(self.m, 4)


def _normalize_index(index) -> MultiIndex:
    if isinstance(index, dict):
        items = index.items()
    else:
        items = index
    out: dict[int, int] = {}
    for site, power in items:
        if power < 0:
            raise DomainError("multi-index powers must be non-negative")
        if power:
            out[site] = out.get(site, 0) + power
    return tuple(sorted(out.items()))


def _pack(indices: Sequence[MultiIndex]) -> tuple[np.ndarray, np.ndarray]:
    """Padded (T, k) site and power arrays of normalized multi-indices."""
    width = max((len(index) for index in indices), default=0)
    sites = np.zeros((len(indices), width), dtype=np.intp)
    powers = np.zeros((len(indices), width), dtype=np.intp)
    for t, index in enumerate(indices):
        for j, (site, power) in enumerate(index):
            sites[t, j] = site
            powers[t, j] = power
    return sites, powers


def _widen(index: np.ndarray, width: int) -> np.ndarray:
    """Pad a (T, k) index array with zero columns to (T, width)."""
    if index.shape[1] == width:
        return index
    out = np.zeros((len(index), width), dtype=index.dtype)
    out[:, : index.shape[1]] = index
    return out


def _stack(top: np.ndarray, bottom: np.ndarray) -> np.ndarray:
    width = max(top.shape[1], bottom.shape[1])
    return np.concatenate([_widen(top, width), _widen(bottom, width)])


def _aggregate(keys: np.ndarray, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct key rows in lexicographic order and their summed coefficients.

    Sums that vanish are dropped; NaN sums are kept, so they never compare
    equal to anything.
    """
    if keys.shape[1]:
        order = np.lexsort(keys.T[::-1])
        keys, coeffs = keys[order], coeffs[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = np.any(keys[1:] != keys[:-1], axis=1)
    starts = np.flatnonzero(first)
    sums = np.add.reduceat(coeffs, starts) if len(starts) else coeffs
    keep = ~(np.abs(sums) <= 1e-300)
    return keys[starts][keep], sums[keep]


@dataclass(frozen=True, eq=False)
class LadderPolynomial:
    """Normal-ordered polynomial: every term has daggers left of annihilators.

    Terms are stored as flat arrays.  ``coeffs[t]`` is the coefficient of
    term t.  For each slot s of ``SLOTS`` = (A+, B+, A, B), row t of
    ``sites[s]`` and ``powers[s]`` is the term's multi-index in that slot:
    distinct sites in increasing order, then padding at site 0 with power 0.
    """

    coeffs: np.ndarray
    sites: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    powers: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

    @property
    def terms(self) -> np.ndarray:
        """One coefficient per term, so ``len(poly.terms)`` is the term count."""
        return self.coeffs

    @staticmethod
    def build(terms) -> "LadderPolynomial":
        """Polynomial from (coeff, adag, bdag, a, b) tuples of multi-indices."""
        terms = [(complex(c), adag, bdag, a, b) for c, adag, bdag, a, b in terms]
        packed = [_pack([_normalize_index(t[s + 1]) for t in terms]) for s in range(4)]
        return LadderPolynomial(
            np.array([t[0] for t in terms], dtype=complex),
            tuple(sites for sites, _ in packed),
            tuple(powers for _, powers in packed),
        )

    @staticmethod
    def from_factors(coeff: complex, factors: Sequence[tuple[str, int]]) -> "LadderPolynomial":
        """Single term from an ordered factor list like [("A+", 1), ("A", 1)].

        Raises a structural error if any daggered factor appears to the
        right of an annihilator (the input would not be normal ordered).
        """
        slots: tuple[list, ...] = ([], [], [], [])
        seen_annihilator = False
        for kind, site in factors:
            if kind not in SLOTS:
                raise DomainError(f"unknown ladder factor {kind!r}")
            if kind in ("A+", "B+"):
                if seen_annihilator:
                    raise DomainError(
                        f"factor {kind} right of an annihilator: not normal ordered"
                    )
            else:
                seen_annihilator = True
            slots[SLOTS.index(kind)].append((site, 1))
        return LadderPolynomial.build([(coeff, *slots)])

    def __add__(self, other: "LadderPolynomial") -> "LadderPolynomial":
        return LadderPolynomial(
            np.concatenate([self.coeffs, other.coeffs]),
            tuple(_stack(a, b) for a, b in zip(self.sites, other.sites)),
            tuple(_stack(a, b) for a, b in zip(self.powers, other.powers)),
        )

    def scaled(self, factor: complex) -> "LadderPolynomial":
        return LadderPolynomial(self.coeffs * factor, self.sites, self.powers)

    def dagger(self) -> "LadderPolynomial":
        """Adjoint: conjugate coefficients, swap A+ with A and B+ with B."""
        swap = (2, 3, 0, 1)
        return LadderPolynomial(
            np.conj(self.coeffs),
            tuple(self.sites[s] for s in swap),
            tuple(self.powers[s] for s in swap),
        )

    def _keys(self, widths: Sequence[int], radix: int) -> np.ndarray:
        """(T, sum(widths)) rows that are equal exactly for equal monomials."""
        return np.concatenate(
            [
                _widen(sites, w) * radix + _widen(powers, w)
                for sites, powers, w in zip(self.sites, self.powers, widths)
            ],
            axis=1,
        )

    def is_hermitian(self, rtol: float = 1e-12) -> bool:
        adjoint = self.dagger()
        width_a = max(self.sites[0].shape[1], self.sites[2].shape[1])
        width_b = max(self.sites[1].shape[1], self.sites[3].shape[1])
        widths = (width_a, width_b, width_a, width_b)
        radix = 1 + max(int(p.max(initial=0)) for p in self.powers)
        mine, mine_sums = _aggregate(self._keys(widths, radix), self.coeffs)
        theirs, their_sums = _aggregate(adjoint._keys(widths, radix), adjoint.coeffs)
        if mine.shape != theirs.shape or np.any(mine != theirs):
            return False
        scale = float(np.max(np.abs(mine_sums))) if len(mine_sums) else 1.0
        return bool(np.all(np.abs(mine_sums - their_sums) <= rtol * scale))


def _evaluate(
    poly: LadderPolynomial,
    left_alpha: np.ndarray,
    left_beta: np.ndarray,
    right_alpha: np.ndarray,
    right_beta: np.ndarray,
) -> complex:
    values = (np.conj(left_alpha), np.conj(left_beta), right_alpha, right_beta)
    product = poly.coeffs
    for v, sites, powers in zip(values, poly.sites, poly.powers):
        product = product * np.prod(v[sites] ** powers, axis=1)
    return complex(np.sum(product))


def _vectors(rep: ReducibleRep, p, q) -> tuple[np.ndarray, np.ndarray]:
    p = np.atleast_1d(np.asarray(p, dtype=float))
    q = np.atleast_1d(np.asarray(q, dtype=float))
    if p.shape != (rep.N,) or q.shape != (rep.N,):
        raise DomainError(f"p and q must be vectors of length N = {rep.N}")
    return p, q


def displaced_expectation(poly: LadderPolynomial, rep: ReducibleRep, p, q) -> float:
    """<p,q| :poly: |p,q> = poly at <A_n> = p_n - i m q_n, <B_n> = -i m zeta q_n."""
    p, q = _vectors(rep, p, q)
    alpha = rep.alpha(p, q)
    beta = rep.beta(q)
    value = _evaluate(poly, alpha, beta, alpha, beta)
    if not abs(value.imag) <= 1e-12 * (1 + abs(value.real)) and poly.is_hermitian():
        raise AccuracyError(
            f"Hermitian polynomial produced imaginary residue {value.imag:.2e}"
        )
    return float(value.real)


# ---------------------------------------------------------------------------
# the quartic model


def _pair_operator(rep: ReducibleRep, slot: int) -> LadderPolynomial:
    """(1/2) sum_n X+_n X_n for the ladder pair whose dagger is SLOTS[slot]."""
    n = np.arange(rep.N)[:, None]
    one = np.ones_like(n)
    none = np.zeros((rep.N, 0), dtype=np.intp)
    sites = [none] * 4
    powers = [none] * 4
    sites[slot] = sites[slot + 2] = n
    powers[slot] = powers[slot + 2] = one
    return LadderPolynomial(np.full(rep.N, 0.5 + 0j), tuple(sites), tuple(powers))


def h_p_operator(rep: ReducibleRep) -> LadderPolynomial:
    """(1/2) sum_n A+_n A_n (free-looking kinetic-plus-trap block)."""
    return _pair_operator(rep, 0)


def h_r_operator(rep: ReducibleRep) -> LadderPolynomial:
    """(1/2) sum_n B+_n B_n (the partner block)."""
    return _pair_operator(rep, 1)


def quartic_operator(rep: ReducibleRep, nu: float) -> LadderPolynomial:
    """4 nu :H_r^2: = nu sum_{m,n} B+_m B+_n B_m B_n."""
    N = rep.N
    mm, nn = divmod(np.arange(N * N), N)
    same = mm == nn
    # one term per ordered pair (m, n); m == n is the single site m at power 2
    sites = np.stack([np.minimum(mm, nn), np.where(same, 0, np.maximum(mm, nn))], axis=1)
    powers = np.stack([np.where(same, 2, 1), np.where(same, 0, 1)], axis=1)
    none = np.zeros((N * N, 0), dtype=np.intp)
    return LadderPolynomial(
        np.full(N * N, complex(nu)), (none, sites, none, sites), (none, powers, none, powers)
    )


def h1_operator(rep: ReducibleRep, nu: float) -> LadderPolynomial:
    if not nu >= 0:
        raise DomainError("nu must be non-negative")
    return h_p_operator(rep) + h_r_operator(rep) + quartic_operator(rep, nu)


def h1_closed_form(rep: ReducibleRep, nu: float, p, q) -> float:
    p, q = _vectors(rep, p, q)
    p2 = float(p @ p)
    q2 = float(q @ q)
    m0_sq, lam0 = rep.couplings(nu)
    return 0.5 * (p2 + m0_sq * q2) + lam0 * _power(q2, 2)


def h1_expectation(rep: ReducibleRep, nu: float, p, q) -> float:
    """Diagonal expectation of H1, evaluated through the ladder engine."""
    return displaced_expectation(h1_operator(rep, nu), rep, p, q)


def match_target(m0_sq: float, lambda0: float, zeta: float) -> tuple[float, float]:
    """Solve (m, nu) so that the quartic model reproduces (m0^2, lambda0)."""
    if not 0 < zeta < 1:
        raise DomainError("target matching needs zeta in (0, 1)")
    if not (m0_sq > 0 and lambda0 > 0):
        raise DomainError("target parameters must be positive")
    m_sq = m0_sq / (1 + zeta**2)
    nu = lambda0 / (zeta**4 * _power(m_sq, 2))
    return math.sqrt(m_sq), nu


# ---------------------------------------------------------------------------
# overlaps and matrix elements


def overlap_reducible(rep: ReducibleRep, p_left, q_left, p_right, q_right) -> complex:
    """<p',q';zeta|p,q;zeta> in closed form; K = (1-zeta^2)^-1 widens momentum."""
    pl, ql = _vectors(rep, p_left, q_left)
    pr, qr = _vectors(rep, p_right, q_right)
    hbar, m = rep.hbar, rep.m
    phase = np.dot(pl + pr, ql - qr) / (2 * hbar)
    decay = np.dot(pl - pr, pl - pr) * rep.K / (4 * m * hbar) + m * np.dot(
        ql - qr, ql - qr
    ) / (4 * hbar)
    return complex(np.exp(1j * phase - decay))


def matrix_element(
    poly: LadderPolynomial, rep: ReducibleRep, p_left, q_left, p_right, q_right
) -> complex:
    """<p',q'| :poly: |p,q> = poly(conj-left, right eigenvalues) * overlap."""
    pl, ql = _vectors(rep, p_left, q_left)
    pr, qr = _vectors(rep, p_right, q_right)
    factor = _evaluate(
        poly, rep.alpha(pl, ql), rep.beta(ql), rep.alpha(pr, qr), rep.beta(qr)
    )
    return factor * overlap_reducible(rep, pl, ql, pr, qr)


def h1_matrix_element(
    rep: ReducibleRep, nu: float, p_left, q_left, p_right, q_right
) -> complex:
    return matrix_element(h1_operator(rep, nu), rep, p_left, q_left, p_right, q_right)


# ---------------------------------------------------------------------------
# rotationally symmetric characteristic functions


@functools.cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes and weights of the n-point rule on [-1, 1].

    numpy builds a rule by an O(n^3) eigen-solve, which costs far more than
    any one integral below, so each node count is built once per process.
    """
    x, w = leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _log_solid_angle(dim: int) -> float:
    return math.log(2) + dim / 2 * math.log(math.pi) - math.lgamma(dim / 2)


def solid_angle(dim: int) -> float:
    """Surface area of the unit sphere S^(dim-1) in R^dim."""
    return math.exp(_log_solid_angle(dim))


@dataclass(frozen=True)
class RadialDensity:
    """Rotationally symmetric ground-state density rho(|x|) in N dimensions.

    ``log_rho``, when given, is log rho evaluated directly; a density whose
    values underflow in high dimension (the Gaussian one does near N = 600)
    supplies it so that no weight is formed from an underflowed rho.
    """

    rho: Callable[[np.ndarray], np.ndarray]
    N: int
    r_max: float
    log_rho: Callable[[np.ndarray], np.ndarray] | None = None

    def _log_radial(self, r: np.ndarray) -> np.ndarray:
        """log[rho(r) r^(N-1)]: r^(N-1) alone overflows once N is in the hundreds."""
        if self.log_rho is not None:
            log_rho = self.log_rho(r)
        else:
            with np.errstate(divide="ignore"):
                log_rho = np.log(self.rho(r))
        return log_rho + (self.N - 1) * np.log(r)

    def weight(self, r: np.ndarray) -> np.ndarray:
        """Induced radial weight rho(r) r^(N-1) times the full solid angle."""
        return np.exp(self._log_radial(r) + _log_solid_angle(self.N))

    def normalization(self, n_nodes: int = 2000) -> float:
        x, w = _gauss_legendre(n_nodes)
        r = (x + 1) / 2 * self.r_max
        return float(np.sum(w / 2 * self.r_max * self.weight(r)))

    def require_normalized(self, tol: float = 1e-8) -> None:
        dev = abs(self.normalization() - 1.0)
        if not dev <= tol:
            raise PreconditionError(f"radial density normalization off by {dev:.3e}")


def gaussian_radial_density(N: int, m_prime: float, hbar: float = 1.0) -> RadialDensity:
    """Ground-state density of N independent oscillators of mass m_prime."""
    if not m_prime > 0:
        raise DomainError("m_prime must be positive")
    log_norm = 0.5 * N * math.log(m_prime / (math.pi * hbar))

    def log_rho(r):
        return log_norm - m_prime * np.asarray(r, dtype=float) ** 2 / hbar

    def rho(r):
        return np.exp(log_rho(r))

    r_max = 2.5 * math.sqrt((N + 10 * math.sqrt(N) + 10) * hbar / (2 * m_prime))
    return RadialDensity(rho, N, r_max, log_rho)


def characteristic_exact_gaussian(p_r: float, m_prime: float, hbar: float = 1.0) -> float:
    """Characteristic function of a free ground state: exp[-p^2 / 4 m' hbar]."""
    if not m_prime > 0:
        raise DomainError("m_prime must be positive")
    return math.exp(-_power(p_r, 2) / (4 * m_prime * hbar))


@dataclass(frozen=True)
class CharacteristicResult:
    exact: float
    descent: float

    @property
    def difference(self) -> float:
        return abs(self.exact - self.descent)


# largest cancellation bound at which the exact value is still reported
SERIES_ATOL = 1e-10
# the series stops once its weighted term is below this share of the weights
_SERIES_TAIL = 1e-18


def _angular_series(b: float, z: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, float]:
    """0F1(; b; -z) at every node, and sum_k sum_r w(r) |t_k(r)|.

    The terms are t_0 = 1 and t_(k+1) = -z t_k / ((b + k)(k + 1)), one array
    over the nodes per term.  For b >= 1, |t_k| <= z^k / (k!)^2 <=
    (e^2 z / k^2)^k, so from k = 2e sqrt(z) on |t_k| <= 4^-k, and 40 terms
    later that is below 1e-24 at every node: that is the cap.  The sum
    stops before it, once the next ratio is at most 1/2
    at every node (the weighted tail is then below the last weighted term)
    and the last weighted term is below 1e-18 of sum(w).  A non-finite z,
    weight or term, or a run past the cap, raises AccuracyError.
    """
    z_max = float(np.max(z))
    if not 0 <= z_max < math.inf:
        raise AccuracyError(f"series argument {z_max!r} is not finite")
    size = float(np.sum(w))
    tail = _SERIES_TAIL * size
    term = np.ones_like(z)
    value = term.copy()
    for k in range(math.ceil(2 * math.e * math.sqrt(z_max)) + 40):
        with np.errstate(over="ignore", invalid="ignore"):
            term *= z
            term *= -1.0 / ((b + k) * (k + 1))
            last = float(w @ np.abs(term))
        if not math.isfinite(last):
            raise AccuracyError(f"term {k + 1} of the angular series is not finite")
        value += term
        size += last
        if z_max <= 0.5 * (b + k + 1) * (k + 2) and last <= tail:
            return value, size
    raise AccuracyError("the angular series did not converge within its term cap")


def characteristic_radial(
    density: RadialDensity,
    p_r: float,
    hbar: float = 1.0,
    n_r: int = 800,
    n_theta: int = 800,
) -> CharacteristicResult:
    """Characteristic function of a radial density, exactly and by steepest
    descent, on an ``n_r``-point radial Gauss-Legendre rule.

    With lambda = p_r r / hbar, the angular integral is Poisson's integral
    for J_nu (DLMF 10.9.4):

        int_0^pi exp(i lambda cos theta) sin^(N-2) theta dtheta
            = B(1/2, (N-1)/2) 0F1(; N/2; -lambda^2/4),

    and S^(N-2) times that beta function is the full solid angle S^(N-1), so
    the exact value is the radial weights ``density.weight(r) w`` applied to
    the angular average 0F1(; N/2; -z), z = lambda^2 / 4, summed as its
    alternating power series (``_angular_series``).  For large N the angular
    integrand concentrates at theta = pi/2; the quadratic-order descent
    approximation of the average is exp(-lambda^2 / 2N).

    Both sums are divided by the rule's own sum of weights.  rho is
    normalized (``require_normalized`` checks it to 1e-8), and the division
    cancels the rounding the weights share from their log-space form, which
    at N in the hundreds is ~1e-13 relative.

    Cancellation bound: each t_k(r) carries the roundings of its 2k
    multiplications and of one addition, so the computed series at r is
    off by a few ulps of sum_k |t_k(r)|, and the weighted mean by about

        eps * sum_r w(r) sum_k |t_k(r)| / sum_r w(r),

    which for a Gaussian rho is eps exp(p_r^2 / 4 m' hbar).  Measured errors
    against that closed form stay 20-100 times below the bound (N = 3 to 400,
    p_r up to 10).  Above SERIES_ATOL = 1e-10 the series is not trusted and
    AccuracyError is raised; at N = 4, m' = hbar = 1 that is p_r above ~7.2.

    ``n_theta`` is unused: no angular rule is built.  It stays because
    ``perfbench/tracer.py`` reads it from every call (ROADMAP item 1).
    """
    N = density.N
    if N < 3:
        raise DomainError("the angular reduction requires N >= 3")
    density.require_normalized()
    p_sq = _power(p_r, 2)

    x, w = _gauss_legendre(n_r)
    r = (x + 1) / 2 * density.r_max
    w = density.weight(r) * (w / 2 * density.r_max)
    w_sum = float(np.sum(w))
    scaled = (r / hbar) ** 2

    angular, size = _angular_series(N / 2, p_sq * scaled / 4, w)
    bound = float(np.finfo(float).eps) * size / w_sum
    if not bound <= SERIES_ATOL:
        raise AccuracyError(
            f"angular series at p_r = {p_r!r} may lose {bound:.2e} to cancellation "
            f"(bound {SERIES_ATOL:g})"
        )
    exact = float(w @ angular) / w_sum
    descent = float(w @ np.exp(-p_sq * scaled / (2 * N))) / w_sum
    return CharacteristicResult(exact, descent)


def measure_superposition(
    weights: Sequence[tuple[float, float]], p_r: float, hbar: float = 1.0
) -> float:
    """Convex Gaussian mixture C(p) = sum_i mu_i exp(-b_i p^2 / hbar).

    A single atom at b = 1/(4 m') reproduces the free ground state.
    """
    total = sum(mu for _, mu in weights)
    if not abs(total - 1.0) <= 1e-9:
        raise PreconditionError(f"measure weights sum to {total!r}, not 1")
    for b, mu in weights:
        if not (b > 0 and mu >= 0 and math.isfinite(b) and math.isfinite(mu)):
            raise DomainError(f"atom (b={b!r}, mu={mu!r}) needs finite b > 0 and mu >= 0")
    p_sq = _power(p_r, 2)
    return float(sum(mu * math.exp(-b * p_sq / hbar) for b, mu in weights))


def scenario_record(rep: ReducibleRep, nu: float, p, q) -> dict:
    """JSON-ready record of one quartic-model evaluation."""
    p, q = _vectors(rep, p, q)
    m0_sq, lam0 = rep.couplings(nu)
    return {
        "N": rep.N,
        "m": rep.m,
        "zeta": rep.zeta,
        "nu": nu,
        "p": [float(v) for v in p],
        "q": [float(v) for v in q],
        "H1": h1_expectation(rep, nu, p, q),
        "m0_sq": m0_sq,
        "lambda0": lam0,
    }
