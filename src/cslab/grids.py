"""Grids, quadrature, finite differences and complex inner products.

Everything downstream (coherent states, symbols, geometry, PDE evolution)
works on the two value types defined here: a uniform :class:`Grid`, and a
:class:`WaveFunction` holding complex values on such a grid together with the
Planck parameter it was built with.

Every quadrature is the spacing times a plain sum: the trapezoid rule for a
function that is zero one spacing beyond each end, as on every grid cslab
builds (a half-line grid's ghost zero at x = 0 and pinned far end, the
canonical windows' 8 spreads of margin).

All quantities are dimensionless; ``hbar`` is an explicit positive number
(default 1) rather than a physical constant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class Grid:
    """Uniform 1-D grid of ``n`` nodes on [lower, upper].

    Grids compare by their three fields.  A half-line grid
    (:func:`half_line_grid`) is one whose first node sits at the spacing,
    never at x = 0.  The nodes are derived from the fields once.
    """

    lower: float
    upper: float
    n: int
    nodes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.upper <= self.lower:
            raise DomainError("upper must exceed lower")
        if self.n < 2:
            raise DomainError("need at least two nodes")
        # NaN ends, or a spacing that overflows, give NaN nodes, silently
        with np.errstate(over="ignore", invalid="ignore"):
            nodes = np.linspace(self.lower, self.upper, self.n)
            if not np.all(np.diff(nodes) > 0):
                raise DomainError("grid nodes must be strictly increasing")
        object.__setattr__(self, "lower", float(self.lower))
        object.__setattr__(self, "upper", float(self.upper))
        object.__setattr__(self, "nodes", nodes)

    @property
    def spacing(self) -> float:
        return float(self.nodes[1] - self.nodes[0])

    def integrate(self, values: np.ndarray) -> complex:
        """Quadrature of sampled values: the spacing times their sum."""
        return complex(self.spacing * np.sum(values))


def uniform_grid(lower: float, upper: float, n: int) -> Grid:
    """Uniform grid of ``n`` nodes on [lower, upper]."""
    return Grid(lower, upper, n)


def half_line_grid(upper: float, n: int) -> Grid:
    """Half-line grid (epsilon, upper] with epsilon equal to the spacing.

    The offset keeps integrands of the form x**(a - 1/2) finite at the first
    node; x = 0 itself is never a grid point.
    """
    if not 0 < upper < np.inf:  # NaN fails too
        raise DomainError(f"upper = {upper!r} must be finite and positive")
    if n < 2:  # before the spacing divides by n
        raise DomainError("need at least two nodes")
    h = upper / n
    return uniform_grid(h, upper, n)


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
            raise DomainError("values length must match grid node count")
        if not self.hbar > 0:  # NaN fails too
            raise DomainError("hbar must be positive")

    def norm_squared(self) -> float:
        return self.grid.spacing * float(np.vdot(self.values, self.values).real)

    def norm(self) -> float:
        return float(np.sqrt(self.norm_squared()))

    def normalized(self) -> "WaveFunction":
        return WaveFunction(self.grid, self.values / self.norm(), self.hbar)

    def require_normalized(self, tol: float = 1e-8) -> None:
        dev = abs(self.norm() - 1.0)
        if not dev <= tol:  # a NaN norm fails too
            raise DomainError(f"wave function norm deviates by {dev:.3e}")


def inner_product(phi: WaveFunction, psi: WaveFunction) -> complex:
    """Quadrature inner product  integral conj(phi) * psi dx."""
    if phi.grid != psi.grid:
        raise DomainError("inner product requires identical grids")
    return phi.grid.spacing * complex(np.vdot(phi.values, psi.values))


def derivative(psi: WaveFunction) -> WaveFunction:
    """First derivative by central differences.

    Interior nodes use the 3-point central stencil, edges the matching
    one-sided second-order stencils, so degree-2 polynomials differentiate
    exactly.
    """
    if psi.grid.n < 5:
        raise DomainError("derivative needs at least 5 nodes")
    h = psi.grid.spacing
    v = psi.values
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2 * h)
    out[0] = (-3 * v[0] + 4 * v[1] - v[2]) / (2 * h)
    out[-1] = (3 * v[-1] - 4 * v[-2] + v[-3]) / (2 * h)
    return WaveFunction(psi.grid, out, psi.hbar)


def position_moment(psi: WaveFunction, power: int = 1) -> float:
    """Expectation of x**power in the state |psi|^2."""
    x = psi.grid.nodes
    return float(np.real(psi.grid.integrate(x**power * np.abs(psi.values) ** 2)))


def momentum_expectation(psi: WaveFunction) -> float:
    """Expectation of -i hbar d/dx by central differences with zero ghosts
    beyond both ends: hbar Im sum conj(psi_i) psi_{i+1}, real by construction."""
    return psi.hbar * float(np.vdot(psi.values[:-1], psi.values[1:]).imag)


def dilation_expectation(psi: WaveFunction) -> float:
    """Expectation of the dilation generator -(i hbar / 2)(x d/dx + d/dx x)."""
    dpsi = derivative(psi)
    x = psi.grid.nodes
    # x d/dx + d/dx x = 2 x d/dx + 1
    val = psi.grid.integrate(np.conj(psi.values) * (2 * x * dpsi.values + psi.values))
    return float((-0.5j * psi.hbar * val).real)
