"""Crank-Nicolson evolution of the full quantum dynamics.

This is the benchmark side: the unrestricted Schrodinger flow
i hbar dpsi/dt = Hop psi against which the restricted (coherent-sheet)
dynamics is compared.  Supported Hamiltonians are tridiagonal on the grid:

  * kinetic terms  c * D D          -> 3-point stencil of -hbar^2 d2/dx2,
  * potentials     c * X^k          -> diagonal,
  * ordered forms  c * D X^k D      -> symmetric -hbar^2 d(x^k d.) with the
                                       coefficient evaluated at half nodes.

Boundaries are homogeneous Dirichlet and follow the grid: a full-line
window is pinned at both ends, a half-line grid only at its far end (x = 0
is a ghost zero, not a node).  Crank-Nicolson is the Cayley form of the
discrete Hamiltonian, hence unitary in the discrete norm up to solver
roundoff.  With A = 1 + i lam H and B = 1 - i lam H, A + B = 2, so a step
u' = A^-1 B u is u' = 2 A^-1 u - u: one solve with A and no right-hand-side
product.  A is factored once per run as L D L^T without pivoting (see
:func:`ldlt_tridiagonal`), so each step is two unit-bidiagonal BLAS sweeps
around one multiply by 2/D, guarded by the residual A u' - B u from one
tridiagonal product.  The run is measured as it steps, on the vector of
unknowns with the grid's quadrature (<H> from H u, formed on recorded
steps only); the full-grid state is built once, at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import IO

import numpy as np

from .dynamics import Trajectory
from .errors import (
    DomainError,
    GridMismatchError,
    NumericError,
    PreconditionError,
)
from .grids import FULL_LINE, HALF_LINE, Grid, WaveFunction, half_line_grid, uniform_grid
from .states import Fiducial
from .symbols import D_FACTOR, X_FACTOR, OperatorExpr

# largest share of the norm of psi0 that evolve may drop on the pinned
# nodes; it matches the normalization tolerance evolve requires of psi0
PINNED_NORM_TOL = 1e-6
# largest phase |p0| h / hbar that psi0's plane wave may turn per grid
# spacing: the 3-point stencil then misses its kinetic energy by at most
# (p0 h / hbar)^2 / 12 < 1e-3 relative
MAX_PHASE_PER_NODE = 0.1
# largest grid spacing h / sigma of a full-line window, sigma the Gaussian
# fiducial's position spread: the 3-point stencil misses the fiducial's
# kinetic energy by about (h / sigma)^2 / 16 relative, so at the bound
# hbar omega / 2 comes out about 0.8% low (measured at 2048 nodes,
# h / sigma = 0.50: -3.9e-3 hbar omega).  The half-line window scales with
# q0, so the bound is not applied there.
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
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise DomainError("dt must be finite and positive")
        if self.steps < 1:
            raise DomainError("steps must be >= 1")
        if self.grid.nodes[self.unknown_slice()].size < 3:
            raise DomainError("the tridiagonal solver needs three unpinned grid nodes")
        diag, off = hamiltonian_tridiagonal(self)  # validates the operator form
        object.__setattr__(self, "tridiagonal", (diag, off))
        rho = spectral_radius_estimate(diag, off)
        if not self.dt * rho / (2 * self.hbar) <= 1e6:  # a NaN radius fails too
            raise PreconditionError(
                f"dt * spectral radius = {self.dt * rho:.3e} is not finite or "
                "unreasonably large; reduce dt or coarsen the grid"
            )

    def unknown_slice(self) -> slice:
        # pinned Dirichlet nodes are excluded from the evolving vector; on
        # the half line x = 0 is not a node (ghost zero), so only the far
        # end is pinned
        if self.grid.kind == HALF_LINE:
            return slice(0, self.grid.n - 1)
        return slice(1, self.grid.n - 1)


def _term_shape(factors) -> tuple[str, int]:
    kinds = [f.kind for f in factors]
    if all(k == X_FACTOR for k in kinds):
        return "potential", sum(f.power for f in factors)
    if kinds == [D_FACTOR, D_FACTOR]:
        return "kinetic", 0
    if (
        len(kinds) >= 3
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
            elif shape == "kinetic":
                diag += coeff * 2 * hb2 / h2
                off += -coeff * hb2 / h2
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
    backward: bool = False,
) -> EvolutionResult:
    """Run Crank-Nicolson and measure the state at strided steps.

    ``snapshot_every`` defaults to about 512 recorded steps per run; pass 1
    to record every step.  ``backward`` negates the time step.  The pinned
    Dirichlet values of ``psi0`` are dropped, so they may carry at most
    ``PINNED_NORM_TOL`` of its norm.  Each record is measured on the
    unknowns with the grid's quadrature (see :func:`track_expectations`);
    the full-grid state is built once, for ``EvolutionResult.final``.
    """
    from scipy.linalg.blas import ztbsv

    if psi0.grid != setup.grid:
        raise GridMismatchError("initial state must live on the setup grid")
    psi0.require_normalized(1e-6)
    if snapshot_every is None:
        snapshot_every = max(1, setup.steps // 512)
    if snapshot_every < 1:
        raise DomainError(f"snapshot_every must be >= 1, got {snapshot_every}")

    grid = setup.grid
    sl = setup.unknown_slice()
    rho = grid.weights * np.abs(psi0.values) ** 2
    pinned_norm = float(rho.sum() - rho[sl].sum())
    if not pinned_norm <= PINNED_NORM_TOL:  # a NaN norm fails too
        raise NumericError(
            f"psi0 carries {pinned_norm:.3e} of its norm on the pinned Dirichlet nodes "
            f"(limit {PINNED_NORM_TOL:g}); widen the window or add nodes"
        )
    diag, off = setup.tridiagonal
    sign = -1.0 if backward else 1.0
    lam = sign * setup.dt / (2 * setup.hbar)
    # A = 1 + i lam H = L D L^T; the unit bidiagonal L and L^T in BLAS band
    # storage (Fortran order, so that no call copies them)
    a_diag, a_off = 1 + 1j * lam * diag, 1j * lam * off
    multipliers, pivots = ldlt_tridiagonal(a_diag, a_off)
    m = diag.size
    lower = np.zeros((2, m), dtype=complex, order="F")
    lower[1, :-1] = multipliers
    upper = np.zeros((2, m), dtype=complex, order="F")
    upper[0, 1:] = multipliers
    two_over_pivots = 2 / pivots
    # complex copies, so that each product multiplies like with like
    diag, off = diag.astype(complex), off.astype(complex)
    x_weights = (grid.weights * grid.nodes)[sl]

    u = np.array(psi0.values[sl], dtype=complex)
    h = grid.spacing
    norm0 = math.sqrt(np.vdot(u, u).real * h)
    hu = tridiagonal_product(diag, off, u)
    records = [(0.0, *track_expectations(u, hu, x_weights, setup))]  # (t, <p>, <x>, <H>)
    for step in range(1, setup.steps + 1):
        w = ztbsv(1, lower, u, lower=1, diag=1)
        w *= two_over_pivots
        w = ztbsv(1, upper, w, diag=1, overwrite_x=1)  # w = 2 A^-1 u
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
        u = w
        if step % snapshot_every == 0 or step == setup.steps:
            hu = tridiagonal_product(diag, off, u)
            records.append((sign * step * setup.dt, *track_expectations(u, hu, x_weights, setup)))

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
    u: np.ndarray, hu: np.ndarray, x_weights: np.ndarray, setup: EvolutionSetup
) -> tuple[float, float, float]:
    """<-i hbar d/dx>, <x> and <H> of the state whose unpinned values are u.

    ``hu`` is H u and ``x_weights`` the grid's trapezoid weights times its
    nodes, restricted to the unknowns.  The pinned values are zero, so this
    is the full grid's quadrature with d/dx by central differences: the sum
    h * conj(u_i) (u_{i+1} - u_{i-1}) / 2h over the nodes has the imaginary
    part Im sum conj(u_i) u_{i+1}.
    """
    drift = np.vdot(u[:-1], u[1:]).imag
    if setup.grid.kind == HALF_LINE:
        # node 0 is the grid's first node: its term is the one-sided
        # (h/2) conj(u0) (-3 u0 + 4 u1 - u2) / 2h, not h conj(u0) u1 / 2h
        c0 = u[0].conjugate()
        drift += (0.5 * c0 * u[1] - 0.25 * c0 * u[2]).imag
    q = np.vdot(u, x_weights * u).real
    energy = np.vdot(u, hu).real * setup.grid.spacing
    return setup.hbar * float(drift), float(q), float(energy)


def snapshot_csv(state: WaveFunction, stream: IO[str]) -> None:
    stream.write("x,Re(psi),Im(psi)\n")
    stream.writelines(
        f"{x:.17g},{v.real:.17g},{v.imag:.17g}\n"
        for x, v in zip(state.grid.nodes.tolist(), state.values.tolist())
    )


# ---------------------------------------------------------------------------
# window helpers for the benchmarks


def oscillation_window(f: Fiducial, p0: float, q0: float, n: int) -> Grid:
    """Full-line grid covering the classical oscillation with 10-sigma margins."""
    amp = math.hypot(q0, p0 / f.omega)
    half = amp + 10 * f.sigma
    if not math.isfinite(2 * half):
        raise DomainError(f"p0 = {p0!r}, q0 = {q0!r} needs a window of non-finite width")
    return uniform_grid(-half, half, n, kind=FULL_LINE)


def half_line_window(f: Fiducial, q0: float, n: int) -> Grid:
    """Half-line grid covering dilated states up to 3 q0 with 10-sigma margins."""
    upper = 3 * q0 * (1 + 10 * f.sigma)
    if not math.isfinite(upper):
        raise DomainError(f"q0 = {q0!r} needs a window of non-finite width; lower q0")
    return half_line_grid(upper, n)
