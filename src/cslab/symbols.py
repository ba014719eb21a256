"""Ordered operator expressions and their classical symbols.

An operator Hamiltonian is an ordered product of factors, each either a
position power ``X^k`` or the momentum factor ``D = -i hbar d/dx``.  Order
is significant and never rearranged: ``D X D`` and ``X D D`` are different
operators that differ at order hbar.

Restricting the quantum action to a coherent-state sheet turns an operator
into a classical Hamiltonian H(p, q):

  canonical sheet:  H(p,q) = <eta| Hop(p + D, q + x) |eta>
  affine sheet:     H(p,q) = <xi | Hop(p + D/q, q x)  |xi>

For the Gaussian and affine-Beta fiducials both maps are evaluated in
closed form, at any operator degree, by pushing the factors through the
fiducial exactly (the fiducial's log-derivative is a Laurent polynomial)
and then applying the known Gaussian / Gamma-function moments.  A
numerical-quadrature route for each sheet is kept alongside as an
independent cross-check of the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, ConfigError, DomainError, NumericError, PreconditionError
from .grids import Grid, WaveFunction, derivative, inner_product
from .states import (
    AFFINE_DOMAIN,
    CANONICAL_DOMAIN,
    Fiducial,
    affine_log_norm,
    fiducial_moment,
    fiducial_wavefunction,
)

X_FACTOR = "X"
D_FACTOR = "D"
AFFINE_DOMAIN_MESSAGE = "affine symbols are defined for q > 0 only"


@dataclass(frozen=True)
class Factor:
    """One ordered factor: a position power X^k (k >= 1) or D."""

    kind: str
    power: int = 1

    def __post_init__(self):
        if self.kind not in (X_FACTOR, D_FACTOR):
            raise DomainError(f"unknown factor kind {self.kind!r}")
        if self.kind == X_FACTOR and self.power < 1:
            raise DomainError("position powers require k >= 1")
        if self.kind == D_FACTOR and self.power != 1:
            raise DomainError("D factors carry no power; repeat the factor")

    def __str__(self):
        if self.kind == D_FACTOR:
            return "D"
        return "X" if self.power == 1 else f"X^{self.power}"


def X(power: int = 1) -> Factor:
    return Factor(X_FACTOR, power)


def D() -> Factor:
    return Factor(D_FACTOR)


@dataclass(frozen=True)
class OperatorExpr:
    """Sum of real-coefficient ordered factor products."""

    terms: tuple[tuple[float, tuple[Factor, ...]], ...]

    def __post_init__(self):
        for coeff, factors in self.terms:
            if not np.isfinite(coeff):
                raise DomainError("operator coefficients must be finite")
            for f in factors:
                if not isinstance(f, Factor):
                    raise DomainError("factors must be Factor instances")

    def _canonical_dict(self) -> dict[tuple[Factor, ...], float]:
        out: dict[tuple[Factor, ...], float] = {}
        for coeff, factors in self.terms:
            out[factors] = out.get(factors, 0.0) + coeff
        return {k: v for k, v in out.items() if abs(v) > 1e-300}

    def adjoint(self) -> "OperatorExpr":
        """Formal adjoint: reverse each factor sequence (factors are self-adjoint)."""
        return OperatorExpr(tuple((c, tuple(reversed(fs))) for c, fs in self.terms))

    def is_hermitian(self) -> bool:
        mine = self._canonical_dict()
        theirs = self.adjoint()._canonical_dict()
        if mine.keys() != theirs.keys():
            return False
        scale = max((abs(v) for v in mine.values()), default=1.0)
        return all(abs(mine[k] - theirs[k]) <= 1e-12 * scale for k in mine)

    def scaled(self, a: float) -> "OperatorExpr":
        return OperatorExpr(tuple((a * c, fs) for c, fs in self.terms))

    def __add__(self, other: "OperatorExpr") -> "OperatorExpr":
        return OperatorExpr(self.terms + other.terms)

    def __str__(self):
        parts = []
        for coeff, factors in self.terms:
            fs = " ".join(str(f) for f in factors) if factors else "1"
            parts.append(f"{coeff:g} * {fs}")
        return " + ".join(parts)


def parse_operator(text: str) -> OperatorExpr:
    """Parse the textual form, e.g. ``1.0 * D X D`` or ``0.5 * D D + 0.5 * X X``.

    Factors are whitespace-separated and read left to right in operator
    order; ``X^k`` abbreviates k adjacent position factors.
    """
    terms = []
    for raw in text.split("+"):
        part = raw.strip()
        if not part:
            raise ConfigError("empty operator term")
        if "*" not in part:
            raise ConfigError(f"term {part!r} must look like '<coeff> * <factors>'")
        coeff_text, _, factor_text = part.partition("*")
        try:
            coeff = float(coeff_text.strip())
        except ValueError as exc:
            raise ConfigError(f"bad coefficient {coeff_text.strip()!r}") from exc
        factors = []
        for token in factor_text.split():
            if token == D_FACTOR:
                factors.append(D())
            elif token == X_FACTOR:
                factors.append(X(1))
            elif token.startswith("X^"):
                try:
                    power = int(token[2:])
                except ValueError as exc:
                    raise ConfigError(f"bad factor {token!r}") from exc
                factors.append(X(power))
            else:
                raise ConfigError(f"unknown factor token {token!r}")
        if not factors:
            raise ConfigError(f"term {part!r} has no factors")
        terms.append((coeff, tuple(factors)))
    return OperatorExpr(tuple(terms))


# ---------------------------------------------------------------------------
# symbol functions


def _monomial_sum(terms: list[tuple[float, int, int]], p: float, q: float) -> float:
    """Sum of c p^i q^j over (c, i, j); a float power that overflows is numerical."""
    total = 0
    try:
        for c, i, j in terms:
            total += c * p**i * q**j
    except OverflowError as exc:
        raise NumericError(f"a symbol monomial at (p, q) = ({p!r}, {q!r}) overflows") from exc
    return total


@dataclass
class SymbolFn:
    """Classical Hamiltonian H(p, q) = sum of c p^i q^j over its (i, j) -> c.

    q powers may be negative (Laurent) for affine symbols.  The value and
    the gradient are monomial sums over ``poly``; every symbol is in closed
    form, which ``closed_form`` states for the symbol report.
    """

    poly: dict[tuple[int, int], float]
    provenance: str  # CANONICAL_DOMAIN or AFFINE_DOMAIN
    closed_form = True

    def __post_init__(self):
        self.poly = {k: float(v) for k, v in self.poly.items() if abs(v) > 1e-300}
        self._value = [(c, i, j) for (i, j), c in self.poly.items()]
        d_dp = [(c * i, i - 1, j) for (i, j), c in self.poly.items() if i]
        d_dq = [(c * j, i, j - 1) for (i, j), c in self.poly.items() if j]

        def gradient(p: float, q: float) -> tuple[float, float]:
            return _monomial_sum(d_dp, p, q), _monomial_sum(d_dq, p, q)

        # (dH/dp, dH/dq) without the domain check of grad; a closure, not a
        # method, since RK4 calls it four times a step and a bound-method
        # call costs about a third more
        self.gradient = gradient

    def __call__(self, p: float, q: float) -> float:
        if self.provenance == AFFINE_DOMAIN and q <= 0:
            raise DomainError(AFFINE_DOMAIN_MESSAGE)
        return _monomial_sum(self._value, p, q)

    def grad(self, p: float, q: float) -> tuple[float, float]:
        if self.provenance == AFFINE_DOMAIN and q <= 0:
            raise DomainError(AFFINE_DOMAIN_MESSAGE)
        return self.gradient(p, q)


def polynomial_symbol(
    poly: dict[tuple[int, int], float], provenance: str = CANONICAL_DOMAIN
) -> SymbolFn:
    return SymbolFn(poly, provenance)


# ---------------------------------------------------------------------------
# exact factor pushing
#
# The working representation is a Laurent polynomial
#     f(p, q, x) = sum c[i, j, k] p^i q^j x^k
# such that the state reached so far is f * fiducial.  Applying D uses the
# fiducial's exact log-derivative, applying X^k multiplies by the mapped
# position factor.  At the end <fiducial| f |fiducial> is a moment sum.

Poly = dict[tuple[int, int, int], complex]


def _poly_add(poly: Poly, key: tuple[int, int, int], value: complex) -> None:
    poly[key] = poly.get(key, 0.0 + 0.0j) + value


def _apply_x_canonical(poly: Poly, m: int) -> Poly:
    # multiply by (q + x)^m
    out: Poly = {}
    for r in range(m + 1):
        try:
            binom = float(math.comb(m, r))
        except OverflowError as exc:
            raise NumericError(f"binomial coefficient C({m}, {r}) overflows a float") from exc
        for (i, j, k), c in poly.items():
            _poly_add(out, (i, j + m - r, k + r), binom * c)
    return out


def _apply_d_canonical(poly: Poly, omega: float, hbar: float) -> Poly:
    # (p + D) (f eta) = [p f - i hbar f' + i omega x f] eta
    out: Poly = {}
    for (i, j, k), c in poly.items():
        _poly_add(out, (i + 1, j, k), c)
        if k != 0:
            _poly_add(out, (i, j, k - 1), -1j * hbar * k * c)
        _poly_add(out, (i, j, k + 1), 1j * omega * c)
    return out


def _apply_x_affine(poly: Poly, m: int) -> Poly:
    # multiply by (q x)^m
    return {(i, j + m, k + m): c for (i, j, k), c in poly.items()}


def _apply_d_affine(poly: Poly, a: float, b: float, hbar: float) -> Poly:
    # (p + D/q)(f xi) = [p f - (i hbar / q)(f' + (a/x - b) f)] xi
    out: Poly = {}
    for (i, j, k), c in poly.items():
        _poly_add(out, (i + 1, j, k), c)
        if k != 0:
            _poly_add(out, (i, j - 1, k - 1), -1j * hbar * k * c)
        _poly_add(out, (i, j - 1, k - 1), -1j * hbar * a * c)
        _poly_add(out, (i, j - 1, k), 1j * hbar * b * c)
    return out


def _push_factors(factors: tuple[Factor, ...], f: Fiducial) -> Poly:
    poly: Poly = {(0, 0, 0): 1.0 + 0.0j}
    for factor in reversed(factors):
        if f.kind == CANONICAL_DOMAIN:
            if factor.kind == X_FACTOR:
                poly = _apply_x_canonical(poly, factor.power)
            else:
                poly = _apply_d_canonical(poly, f.omega, f.hbar)
        else:
            if factor.kind == X_FACTOR:
                poly = _apply_x_affine(poly, factor.power)
            else:
                b = f.beta / f.hbar
                poly = _apply_d_affine(poly, b - 0.5, b, f.hbar)
    return poly


def _reduce_moments(poly: Poly, f: Fiducial) -> dict[tuple[int, int], complex]:
    out: dict[tuple[int, int], complex] = {}
    for (i, j, k), c in poly.items():
        mom = fiducial_moment(f, k)
        if mom == 0.0:
            continue
        key = (i, j)
        out[key] = out.get(key, 0.0 + 0.0j) + c * mom
    return out


def weak_symbol(op: OperatorExpr, f: Fiducial) -> SymbolFn:
    """Enhanced classical symbol on the sheet of ``f``, in closed form.

    The symbol's provenance is the fiducial's kind; on the affine sheet
    (q > 0) a divergent Gamma-function moment raises :class:`DomainError`.
    """
    total: dict[tuple[int, int], complex] = {}
    for coeff, factors in op.terms:
        reduced = _reduce_moments(_push_factors(factors, f), f)
        for key, val in reduced.items():
            total[key] = total.get(key, 0.0 + 0.0j) + coeff * val
    scale = max((abs(v) for v in total.values()), default=1.0)
    max_imag = max((abs(v.imag) for v in total.values()), default=0.0)
    if op.is_hermitian() and max_imag > 1e-10 * scale:
        raise AccuracyError(
            f"closed-form symbol of a Hermitian operator has imaginary part {max_imag:.2e}"
        )
    return SymbolFn({k: v.real for k, v in total.items()}, f.kind)


# ---------------------------------------------------------------------------
# quadrature routes (independent checks of the closed form)


def _apply_on_grid(op_factors, values, grid: Grid, p: float, q: float, hbar: float):
    """Apply canonical-map factors to grid samples with finite differences."""
    s = np.array(values, dtype=complex)
    x = grid.nodes
    for factor in reversed(op_factors):
        if factor.kind == X_FACTOR:
            s = (q + x) ** factor.power * s
        else:
            ds = derivative(WaveFunction(grid, s, hbar), 1).values
            s = p * s - 1j * hbar * ds
    return s


def symbol_quadrature_canonical(
    op: OperatorExpr, f: Fiducial, p: float, q: float, grid: Grid | None = None
) -> complex:
    """Grid evaluation of the canonical symbol (finite-difference D factors)."""
    base = fiducial_wavefunction(f, grid)
    total = 0.0 + 0.0j
    for coeff, factors in op.terms:
        applied = _apply_on_grid(factors, base.values, base.grid, p, q, f.hbar)
        total += coeff * inner_product(base, WaveFunction(base.grid, applied, f.hbar))
    return total


def _affine_integrand_coeffs(op: OperatorExpr, f: Fiducial, p: float, q: float):
    """Collapse (p, q) out of the pushed factors: x-power -> complex coeff."""
    coeffs: dict[int, complex] = {}
    for term_coeff, factors in op.terms:
        for (i, j, k), c in _push_factors(factors, f).items():
            coeffs[k] = coeffs.get(k, 0.0 + 0.0j) + term_coeff * c * p**i * q**j
    return coeffs


def symbol_quadrature_affine(op: OperatorExpr, f: Fiducial, p: float, q: float) -> complex:
    """Adaptive-quadrature evaluation of the affine symbol.

    The integrand xi*(x) [mapped operator xi](x) is assembled exactly
    (pointwise) and the half-line integral is done numerically; only the
    Gamma-function moment identities of the closed form are bypassed.
    """
    from scipy.integrate import quad

    if not q > 0:  # NaN fails too
        raise DomainError(AFFINE_DOMAIN_MESSAGE)
    coeffs = _affine_integrand_coeffs(op, f, p, q)
    nu = 2.0 * f.beta / f.hbar
    log_m2 = 2 * affine_log_norm(f.beta, f.hbar)
    for k in coeffs:
        if k + nu <= 0:
            raise DomainError(f"integrand x**{k + nu - 1} is not integrable at 0")
    # each term is evaluated in log form so negative x-powers stay finite
    terms = [(k, c) for k, c in coeffs.items()]

    def density(x: float, part) -> float:
        total = 0.0
        for k, c in terms:
            total += part(c) * math.exp(log_m2 + (nu - 1 + k) * math.log(x) - nu * x)
        return total

    scale = sum(abs(c) for c in coeffs.values()) + 1.0
    kwargs = {"limit": 400, "epsabs": 1e-12 * scale, "epsrel": 1e-11}
    re, re_err = quad(density, 0, np.inf, args=(lambda z: z.real,), **kwargs)
    im, im_err = quad(density, 0, np.inf, args=(lambda z: z.imag,), **kwargs)
    if re_err + im_err > 1e-9 * (abs(re) + abs(im) + scale):
        raise AccuracyError("affine symbol quadrature did not converge")
    return re + 1j * im


# ---------------------------------------------------------------------------
# the kinetic-dilation constant C


def compute_C(f: Fiducial) -> float:
    """The q**-1 coefficient the affine sheet adds to kinetic terms.

    C = hbar^2 integral x |xi'(x)|^2 dx equals hbar * beta / 2 by the
    Gamma-function moments of |xi|^2.
    """
    if f.kind != AFFINE_DOMAIN:
        raise PreconditionError("C is defined for affine fiducials")
    return f.hbar * f.beta / 2.0
