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

Ladder polynomials are lists of normal-ordered terms, evaluated term by
term at those eigenvalues.  The quartic Hamiltonian
H1 = H_p + H_r + 4 nu :H_r^2:  (with H_p = (1/2) sum A+A and
H_r = (1/2) sum B+B) is never expanded for evaluation: at c-numbers
:H_r^2: is the square of the value of H_r, so H1 costs two O(N) pair
sums, and its N^2-term form (``h1_operator``) is kept for tests.  It
reproduces

    <p,q| H1 |p,q> = (1/2)[p^2 + (1+zeta^2) m^2 q^2] + nu zeta^4 m^4 (q^2)^2

so an arbitrary quartic target (m0^2, lambda0 > 0) is matched by choosing
m^2 = m0^2/(1+zeta^2) and nu = lambda0/(zeta^4 m^4).
"""

from __future__ import annotations

import cmath
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
    out: dict[int, int] = {}
    for site, power in index:
        if power < 0:
            raise DomainError("multi-index powers must be non-negative")
        if power:
            out[site] = out.get(site, 0) + power
    return tuple(sorted(out.items()))


@dataclass(frozen=True, eq=False)
class LadderPolynomial:
    """Normal-ordered polynomial: every term has daggers left of annihilators.

    ``terms`` holds one (coeff, A+, B+, A, B) tuple per term, each of the four
    a normalized multi-index: distinct sites in increasing order, each with
    a positive power.  Equal monomials are not merged, so ``len(poly.terms)``
    is the number of terms the polynomial was built from.
    """

    terms: tuple[tuple[complex, MultiIndex, MultiIndex, MultiIndex, MultiIndex], ...]

    @staticmethod
    def build(terms) -> "LadderPolynomial":
        """Polynomial from (coeff, adag, bdag, a, b) tuples of multi-indices."""
        return LadderPolynomial(
            tuple(
                (complex(c), *(_normalize_index(index) for index in (adag, bdag, a, b)))
                for c, adag, bdag, a, b in terms
            )
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
            if kind in ("A+", "B+") and seen_annihilator:
                raise DomainError(f"factor {kind} right of an annihilator: not normal ordered")
            seen_annihilator = seen_annihilator or kind in ("A", "B")
            slots[SLOTS.index(kind)].append((site, 1))
        return LadderPolynomial.build([(coeff, *slots)])

    def __add__(self, other: "LadderPolynomial") -> "LadderPolynomial":
        return LadderPolynomial(self.terms + other.terms)

    def scaled(self, factor: complex) -> "LadderPolynomial":
        factor = complex(factor)
        return LadderPolynomial(tuple((c * factor, *index) for c, *index in self.terms))

    def dagger(self) -> "LadderPolynomial":
        """Adjoint: conjugate coefficients, swap A+ with A and B+ with B."""
        return LadderPolynomial(
            tuple((c.conjugate(), a, b, adag, bdag) for c, adag, bdag, a, b in self.terms)
        )

    def _monomials(self) -> dict[tuple[MultiIndex, ...], complex]:
        """Summed coefficient of each distinct monomial; sums that vanish are
        dropped, NaN sums kept, so they never compare equal to anything."""
        sums: dict[tuple[MultiIndex, ...], complex] = {}
        for term in self.terms:
            key = term[1:]
            sums[key] = sums.get(key, 0j) + term[0]
        return {key: c for key, c in sums.items() if not abs(c) <= 1e-300}

    def is_hermitian(self, rtol: float = 1e-12) -> bool:
        mine = self._monomials()
        theirs = self.dagger()._monomials()
        if mine.keys() != theirs.keys():
            return False
        scale = max(map(abs, mine.values()), default=1.0)
        return all(abs(c - theirs[key]) <= rtol * scale for key, c in mine.items())


def _evaluate(poly: LadderPolynomial, values: tuple[list, ...]) -> complex:
    """Sum of the terms at the values of the slots (A+, B+, A, B); a power
    that overflows is a NumericError."""
    products = []
    try:
        for term, *indices in poly.terms:
            for index, v in zip(indices, values):
                for site, power in index:
                    term *= v[site] ** power
            products.append(term)
    except OverflowError as exc:
        raise NumericError(f"a ladder monomial overflows: {exc}") from exc
    return complex(np.sum(products))


def _vectors(rep: ReducibleRep, p, q) -> tuple[np.ndarray, np.ndarray]:
    p = np.atleast_1d(np.asarray(p, dtype=float))
    q = np.atleast_1d(np.asarray(q, dtype=float))
    if p.shape != (rep.N,) or q.shape != (rep.N,):
        raise DomainError(f"p and q must be vectors of length N = {rep.N}")
    return p, q


def _slot_values(rep: ReducibleRep, p_left, q_left, p_right, q_right) -> tuple[list, ...]:
    """Values of the slots (A+, B+, A, B) between <p',q'| and |p,q>: the
    conjugated eigenvalues of the left state, then those of the right one."""
    pl, ql = _vectors(rep, p_left, q_left)
    pr, qr = _vectors(rep, p_right, q_right)
    daggers = np.conj(rep.alpha(pl, ql)), np.conj(rep.beta(ql))
    return tuple(v.tolist() for v in (*daggers, rep.alpha(pr, qr), rep.beta(qr)))


def _require_finite(value, what: str):
    """``value`` itself; a NaN or infinite value is a NumericError."""
    if not cmath.isfinite(value):
        raise NumericError(f"non-finite {what}: {value!r}")
    return value


def _real_value(value: complex, hermitian: Callable[[], bool]) -> float:
    """Real part of a diagonal expectation.  An imaginary residue of a
    ``hermitian()`` operator is an AccuracyError, a non-finite value a
    NumericError."""
    if not abs(value.imag) <= 1e-12 * (1 + abs(value.real)) and hermitian():
        raise AccuracyError(f"Hermitian polynomial produced imaginary residue {value.imag:.2e}")
    return _require_finite(value, "ladder expectation").real


def displaced_expectation(poly: LadderPolynomial, rep: ReducibleRep, p, q) -> float:
    """<p,q| :poly: |p,q> = poly at <A_n> = p_n - i m q_n, <B_n> = -i m zeta q_n."""
    return _real_value(_evaluate(poly, _slot_values(rep, p, q, p, q)), poly.is_hermitian)


# ---------------------------------------------------------------------------
# the quartic model


def h_p_operator(rep: ReducibleRep) -> LadderPolynomial:
    """(1/2) sum_n A+_n A_n (free-looking kinetic-plus-trap block)."""
    return LadderPolynomial(tuple((0.5 + 0j, ((n, 1),), (), ((n, 1),), ()) for n in range(rep.N)))


def h_r_operator(rep: ReducibleRep) -> LadderPolynomial:
    """(1/2) sum_n B+_n B_n (the partner block)."""
    return LadderPolynomial(tuple((0.5 + 0j, (), ((n, 1),), (), ((n, 1),)) for n in range(rep.N)))


def quartic_operator(rep: ReducibleRep, nu: float) -> LadderPolynomial:
    """4 nu :H_r^2: = nu sum_{m,n} B+_m B+_n B_m B_n."""
    N = rep.N
    # one term per ordered pair (m, n); m == n is the single site m at power 2
    pairs = (
        ((m, 2),) if m == n else ((min(m, n), 1), (max(m, n), 1))
        for m in range(N)
        for n in range(N)
    )
    c = complex(nu)
    return LadderPolynomial(tuple((c, (), pair, (), pair) for pair in pairs))


def _require_nu(nu: float) -> None:
    if not nu >= 0:
        raise DomainError("nu must be non-negative")


def h1_operator(rep: ReducibleRep, nu: float) -> LadderPolynomial:
    """H1 as its explicit 2N + N^2 terms: the oracle the pair-sum route is tested against."""
    _require_nu(nu)
    return h_p_operator(rep) + h_r_operator(rep) + quartic_operator(rep, nu)


def _h1_value(rep: ReducibleRep, nu: float, values: tuple[list, ...]) -> complex:
    """H1 at the slot values as H_p + H_r + 4 nu H_r H_r.

    At c-numbers, 4 nu :H_r^2: = nu sum_{m,n} conj(b_m) conj(b_n) b'_m b'_n
    is nu (sum_m conj(b_m) b'_m)^2, four nu times the square of the value of
    H_r, so two O(N) pair sums give H1 without its N^2 quartic terms.
    """
    _require_nu(nu)
    h_p = _evaluate(h_p_operator(rep), values)
    h_r = _evaluate(h_r_operator(rep), values)
    return h_p + h_r + 4 * nu * h_r * h_r


def h1_closed_form(rep: ReducibleRep, nu: float, p, q) -> float:
    """(|p|^2 + m0^2 |q|^2) / 2 + lambda0 |q|^4; an overflow is a NumericError."""
    p, q = _vectors(rep, p, q)
    with np.errstate(over="ignore"):  # an overflowing |p|^2 is the inf stopped below
        p2 = float(p @ p)
        q2 = float(q @ q)
    m0_sq, lam0 = rep.couplings(nu)
    return _require_finite(0.5 * (p2 + m0_sq * q2) + lam0 * _power(q2, 2), "closed-form H1")


def h1_expectation(rep: ReducibleRep, nu: float, p, q) -> float:
    """Diagonal expectation of H1 from its two pair sums.  H1 is Hermitian by
    construction: a residue is an AccuracyError without a hermiticity check."""
    return _real_value(_h1_value(rep, nu, _slot_values(rep, p, q, p, q)), lambda: True)


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
    points = (p_left, q_left, p_right, q_right)
    value = _evaluate(poly, _slot_values(rep, *points)) * overlap_reducible(rep, *points)
    return _require_finite(value, "ladder matrix element")


def h1_matrix_element(
    rep: ReducibleRep, nu: float, p_left, q_left, p_right, q_right
) -> complex:
    """<p',q'| H1 |p,q> from the two pair sums, as in ``h1_expectation``."""
    points = (p_left, q_left, p_right, q_right)
    value = _h1_value(rep, nu, _slot_values(rep, *points)) * overlap_reducible(rep, *points)
    return _require_finite(value, "H1 matrix element")


# ---------------------------------------------------------------------------
# rotationally symmetric characteristic functions


# radial Gauss-Legendre nodes of the normalization check and, by default,
# of the characteristic function, so that both use one rule
RADIAL_NODES = 800


@functools.cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes and weights of the n-point rule on [-1, 1].

    numpy builds a rule by an O(n^3) eigen-solve, which costs far more than
    any one integral below, so each node count is built once per process.
    The normalization check and ``characteristic_radial`` share the
    RADIAL_NODES-point rule, so a process builds that one only.
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

    def _rule(self, n_nodes: int = RADIAL_NODES) -> tuple[np.ndarray, np.ndarray]:
        """Nodes r in [0, r_max] and weights w, sum(w f(r)) ~ int f rho d^N x."""
        x, w = _gauss_legendre(n_nodes)
        r = (x + 1) / 2 * self.r_max
        return r, self.weight(r) * (w / 2 * self.r_max)

    def normalization(self) -> float:
        """int rho d^N x on the RADIAL_NODES-point rule."""
        return float(np.sum(self._rule()[1]))

    def require_normalized(self, tol: float = 1e-8) -> None:
        _require_unit_mass(self.normalization(), tol)


def _require_unit_mass(total: float, tol: float = 1e-8) -> None:
    dev = abs(total - 1.0)
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
    n_r: int = RADIAL_NODES,
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

    Both sums are divided by the rule's own sum of weights.  That sum is
    rho's normalization, which must be 1 to within 1e-8 (PreconditionError
    otherwise); at the default ``n_r`` it is ``density.normalization()`` on
    the same rule, so no second rule is built.  The division cancels the
    rounding the weights share from their log-space form, which at N in the
    hundreds is ~1e-13 relative.

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
    r, w = density._rule(n_r)
    w_sum = float(np.sum(w))
    _require_unit_mass(w_sum)
    p_sq = _power(p_r, 2)
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
