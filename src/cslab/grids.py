"""Grids, quadrature, finite differences and complex inner products.

Everything downstream (coherent states, symbols, geometry, PDE evolution)
works on the two value types defined here: a uniform :class:`Grid` with
trapezoid quadrature weights, and a :class:`WaveFunction` holding complex
values on such a grid together with the Planck parameter it was built with.

All quantities are dimensionless; ``hbar`` is an explicit positive number
(default 1) rather than a physical constant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, GridMismatchError, PreconditionError

FULL_LINE = "full-line"
HALF_LINE = "half-line"


@dataclass(frozen=True)
class Grid:
    """Uniform 1-D grid of ``n`` nodes on [lower, upper] with trapezoid weights.

    ``kind`` is ``"full-line"`` or ``"half-line"``; half-line grids never
    include x = 0 (the first node sits at the grid spacing).  The nodes and
    weights are derived from the four fields once, at construction.
    """

    kind: str
    lower: float
    upper: float
    n: int
    nodes: np.ndarray = field(init=False, repr=False, compare=False)
    weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in (FULL_LINE, HALF_LINE):
            raise DomainError(f"unknown grid kind {self.kind!r}")
        if self.upper <= self.lower:
            raise DomainError("upper must exceed lower")
        if self.n < 2:
            raise DomainError("need at least two nodes")
        # NaN ends, or a spacing that overflows, give NaN nodes, silently
        with np.errstate(over="ignore", invalid="ignore"):
            nodes = np.linspace(self.lower, self.upper, self.n)
            if not np.all(np.diff(nodes) > 0):
                raise DomainError("grid nodes must be strictly increasing")
        if self.kind == HALF_LINE and self.lower < 0:
            raise DomainError("half-line grid has negative nodes")
        h = nodes[1] - nodes[0]
        weights = np.full(self.n, h)
        weights[0] = weights[-1] = h / 2
        object.__setattr__(self, "lower", float(self.lower))
        object.__setattr__(self, "upper", float(self.upper))
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def spacing(self) -> float:
        return float(self.nodes[1] - self.nodes[0])

    def integrate(self, values: np.ndarray) -> complex:
        """Quadrature of sampled values with the grid's weights."""
        return complex(np.sum(self.weights * np.asarray(values)))


def uniform_grid(lower: float, upper: float, n: int, kind: str = FULL_LINE) -> Grid:
    """Uniform grid on [lower, upper] with trapezoid weights."""
    return Grid(kind, lower, upper, n)


def half_line_grid(upper: float, n: int) -> Grid:
    """Half-line grid (epsilon, upper] with epsilon equal to the spacing.

    The offset keeps integrands of the form x**(a - 1/2) finite at the first
    node; x = 0 itself is never a grid point.
    """
    if upper <= 0:
        raise DomainError("upper must be positive")
    if n < 2:  # before the spacing divides by n
        raise DomainError("need at least two nodes")
    h = upper / n
    return uniform_grid(h, upper, n, kind=HALF_LINE)


@dataclass(frozen=True)
class WaveFunction:
    """Complex-valued function sampled on a grid."""

    grid: Grid
    values: np.ndarray
    hbar: float = 1.0

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "values", values)
        if values.shape != self.grid.nodes.shape:
            raise GridMismatchError("values length must match grid node count")
        if self.hbar <= 0:
            raise DomainError("hbar must be positive")

    def norm_squared(self) -> float:
        return float(np.sum(self.grid.weights * np.abs(self.values) ** 2))

    def norm(self) -> float:
        return float(np.sqrt(self.norm_squared()))

    def normalized(self) -> "WaveFunction":
        return WaveFunction(self.grid, self.values / self.norm(), self.hbar)

    def require_normalized(self, tol: float = 1e-8) -> None:
        dev = abs(self.norm() - 1.0)
        if not dev <= tol:  # a NaN norm fails too
            raise PreconditionError(f"wave function norm deviates by {dev:.3e}")


def inner_product(phi: WaveFunction, psi: WaveFunction) -> complex:
    """Quadrature inner product  integral conj(phi) * psi dx."""
    if phi.grid != psi.grid:
        raise GridMismatchError("inner product requires identical grids")
    return complex(np.sum(phi.grid.weights * np.conj(phi.values) * psi.values))


def derivative(psi: WaveFunction, order: int = 1) -> WaveFunction:
    """First or second derivative by central differences.

    Interior nodes use the 3-point central stencils, edges the matching
    one-sided second-order stencils, so degree-2 polynomials differentiate
    exactly.
    """
    if order not in (1, 2):
        raise ValueError("derivative order must be 1 or 2")
    if psi.grid.n < 5:
        raise PreconditionError("derivative needs at least 5 nodes")
    h = psi.grid.spacing
    v = psi.values
    out = np.empty_like(v)
    if order == 1:
        out[1:-1] = (v[2:] - v[:-2]) / (2 * h)
        out[0] = (-3 * v[0] + 4 * v[1] - v[2]) / (2 * h)
        out[-1] = (3 * v[-1] - 4 * v[-2] + v[-3]) / (2 * h)
    else:
        out[1:-1] = (v[2:] - 2 * v[1:-1] + v[:-2]) / h**2
        out[0] = (2 * v[0] - 5 * v[1] + 4 * v[2] - v[3]) / h**2
        out[-1] = (2 * v[-1] - 5 * v[-2] + 4 * v[-3] - v[-4]) / h**2
    return WaveFunction(psi.grid, out, psi.hbar)


def position_moment(psi: WaveFunction, power: int = 1) -> float:
    """Expectation of x**power in the state |psi|^2."""
    x = psi.grid.nodes
    return float(np.real(psi.grid.integrate(x**power * np.abs(psi.values) ** 2)))


def momentum_expectation(psi: WaveFunction) -> float:
    """Expectation of -i hbar d/dx, with d/dx by central differences."""
    val = inner_product(psi, derivative(psi, 1))
    return float((-1j * psi.hbar * val).real)


def dilation_expectation(psi: WaveFunction) -> float:
    """Expectation of the dilation generator -(i hbar / 2)(x d/dx + d/dx x)."""
    dpsi = derivative(psi, 1)
    x = psi.grid.nodes
    w = psi.grid.weights
    # x d/dx + d/dx x = 2 x d/dx + 1
    val = np.sum(w * np.conj(psi.values) * (2 * x * dpsi.values + psi.values))
    return float((-0.5j * psi.hbar * val).real)
