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

The quartic Hamiltonian H1 = H_p + H_r + 4 nu :H_r^2:  (with
H_p = (1/2) sum A+A and H_r = (1/2) sum B+B) is never expanded for
evaluation: at c-numbers :H_r^2: is the square of the value of H_r, so H1
costs two O(N) dot products of the eigenvalues.  It reproduces

    <p,q| H1 |p,q> = (1/2)[p^2 + (1+zeta^2) m^2 q^2] + nu zeta^4 m^4 (q^2)^2

so an arbitrary quartic target (m0^2, lambda0 > 0) is matched by choosing
m^2 = m0^2/(1+zeta^2) and nu = lambda0/(zeta^4 m^4).

The characteristic function of N free oscillators in their ground state and
its large-N descent value are closed forms too: exp(-z) and (1 + 2z/N)^(-N/2).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, NumericError


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


def _vectors(rep: ReducibleRep, p, q) -> tuple[np.ndarray, np.ndarray]:
    p = np.atleast_1d(np.asarray(p, dtype=float))
    q = np.atleast_1d(np.asarray(q, dtype=float))
    if p.shape != (rep.N,) or q.shape != (rep.N,):
        raise DomainError(f"p and q must be vectors of length N = {rep.N}")
    return p, q


def _require_finite(value, what: str):
    """``value`` itself; a NaN or infinite value is a NumericError."""
    if not cmath.isfinite(value):
        raise NumericError(f"non-finite {what}: {value!r}")
    return value


# ---------------------------------------------------------------------------
# the quartic model


@dataclass(frozen=True, eq=False)
class LadderPolynomial:
    """Normal-ordered terms (coeff, A+, B+, A, B), each index a tuple of (site, power)."""

    terms: tuple


def _require_nu(nu: float) -> None:
    if not 0 <= nu < math.inf:
        raise DomainError("nu must be finite and non-negative")


def h1_operator(rep: ReducibleRep, nu: float) -> LadderPolynomial:
    """H1 as its 2N + N^2 normal-ordered terms, which nothing here evaluates.

    It stays because ``perfbench/tracer.py`` wraps it by name and counts its
    terms (ROADMAP item 1); the tests check them against ``tests/oracles.py``.
    """
    _require_nu(nu)
    N = rep.N
    sites = [((n, 1),) for n in range(N)]
    # one term nu B+_m B+_n B_m B_n per ordered pair; m == n is site m at power 2
    pairs = [((m, 2),) if m == n else ((min(m, n), 1), (max(m, n), 1))
             for m in range(N) for n in range(N)]
    terms = [(0.5 + 0j, site, (), site, ()) for site in sites]
    terms += [(0.5 + 0j, (), site, (), site) for site in sites]
    terms += [(complex(nu), (), pair, (), pair) for pair in pairs]
    return LadderPolynomial(tuple(terms))


def _h1_value(rep: ReducibleRep, nu: float, p_left, q_left, p_right, q_right) -> complex:
    """<p',q'| H1 |p,q> / <p',q'|p,q> from two O(N) dot products.

    With H_p = (1/2) sum conj(a'_n) a_n and H_r = (1/2) sum conj(b'_n) b_n,
    4 nu :H_r^2: at c-numbers is nu (sum conj(b'_m) b_m)^2 = 4 nu H_r^2, so
    none of the N^2 quartic terms is formed.
    """
    _require_nu(nu)
    pl, ql = _vectors(rep, p_left, q_left)
    pr, qr = _vectors(rep, p_right, q_right)
    # an overflow, in numpy's m q or in the Python complex arithmetic below,
    # leaves an inf or NaN for the caller's finiteness check
    with np.errstate(over="ignore", invalid="ignore"):
        h_p = 0.5 * complex(np.vdot(rep.alpha(pl, ql), rep.alpha(pr, qr)))
        h_r = 0.5 * complex(np.vdot(rep.beta(ql), rep.beta(qr)))
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
    """Diagonal expectation of H1.  A non-finite value is a NumericError,
    checked first (an overflowing pair sum has a NaN imaginary part too), as
    is a finite imaginary residue beyond roundoff."""
    value = _require_finite(_h1_value(rep, nu, p, q, p, q), "H1 expectation")
    if not abs(value.imag) <= 1e-12 * (1 + abs(value.real)):
        raise NumericError(f"H1 expectation has imaginary residue {value.imag:.2e}")
    return value.real


# ---------------------------------------------------------------------------
# overlaps


def overlap_reducible(rep: ReducibleRep, p_left, q_left, p_right, q_right) -> complex:
    """<p',q';zeta|p,q;zeta> in closed form; K = (1-zeta^2)^-1 widens momentum.
    No CLI route reaches it: it is the closed form acceptance criterion 9 checks."""
    pl, ql = _vectors(rep, p_left, q_left)
    pr, qr = _vectors(rep, p_right, q_right)
    hbar, m = rep.hbar, rep.m
    phase = np.dot(pl + pr, ql - qr) / (2 * hbar)
    decay = np.dot(pl - pr, pl - pr) * rep.K / (4 * m * hbar) + m * np.dot(
        ql - qr, ql - qr
    ) / (4 * hbar)
    return complex(np.exp(1j * phase - decay))


# ---------------------------------------------------------------------------
# rotationally symmetric characteristic functions


def _require_scale(value: float, what: str) -> None:
    if not 0 < value < math.inf:  # a NaN fails too
        raise DomainError(f"{what} = {value!r} must be finite and positive")


@dataclass(frozen=True)
class GaussianRadialDensity:
    """rho(x) = (m_prime / pi hbar)^(N/2) exp(-m_prime |x|^2 / hbar) on R^N."""

    N: int
    m_prime: float
    hbar: float


def gaussian_radial_density(N: int, m_prime: float, hbar: float = 1.0) -> GaussianRadialDensity:
    """Ground-state density of N independent oscillators of mass m_prime."""
    if not N >= 1:
        raise DomainError(f"N = {N!r} must be at least 1")
    _require_scale(m_prime, "m_prime")
    _require_scale(hbar, "hbar")
    return GaussianRadialDensity(N, m_prime, hbar)


def characteristic_exact_gaussian(p_r: float, m_prime: float, hbar: float = 1.0) -> float:
    """Characteristic function of a free ground state: exp[-p^2 / 4 m' hbar]."""
    if not m_prime > 0:
        raise DomainError("m_prime must be positive")
    # divided in turn: a tiny hbar overflows the quotient instead of zeroing the divisor
    return math.exp(-_power(p_r, 2) / (4 * m_prime) / hbar)


@dataclass(frozen=True)
class CharacteristicResult:
    exact: float
    descent: float

    @property
    def difference(self) -> float:
        return abs(self.exact - self.descent)


def characteristic_radial(
    density: GaussianRadialDensity,
    p_r: float,
    hbar: float = 1.0,
    n_r: int = 800,
    n_theta: int = 800,
) -> CharacteristicResult:
    """<exp(i p.x / hbar)> over the density at |p| = p_r, exactly and by
    steepest descent, in closed form for any N >= 1.

    With z = p_r^2 hbar_rho / (4 m' hbar^2), hbar_rho the density's hbar,
    exact = exp(-z) and descent = (1 + 2z/N)^(-N/2), the radial Gaussian
    integral of exp(-p_r^2 r^2 / 2N hbar^2), the angular average's descent
    value at theta = pi/2.  The descent is exp(-(N/2) log1p(2z/N)), so the
    difference z^2 exp(-z) / N (1 + O(1/N)) is not lost to rounding.

    ``n_r`` and ``n_theta`` are unused; they stay because ``perfbench/tracer.py``
    reads them from every call (ROADMAP item 1).
    """
    _require_scale(hbar, "hbar")
    # as in characteristic_exact_gaussian, which it equals when the two hbar agree
    z = _power(p_r, 2) / (4 * density.m_prime) / hbar * (density.hbar / hbar)
    if math.isnan(z):
        raise NumericError(f"p_r = {p_r!r} gives no characteristic function")
    half_n = density.N / 2
    return CharacteristicResult(math.exp(-z), math.exp(-half_n * math.log1p(z / half_n)))


def measure_superposition(
    weights: Sequence[tuple[float, float]], p_r: float, hbar: float = 1.0
) -> float:
    """Convex Gaussian mixture C(p) = sum_i mu_i exp(-b_i p^2 / hbar).

    A single atom at b = 1/(4 m') reproduces the free ground state.
    """
    _require_scale(hbar, "hbar")
    total = sum(mu for _, mu in weights)
    if not abs(total - 1.0) <= 1e-9:
        raise DomainError(f"measure weights sum to {total!r}, not 1")
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
