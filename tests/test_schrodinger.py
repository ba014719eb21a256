"""The full quantum flow: the canonical Hermite route and the half line's
Crank-Nicolson, against exact flows, each other and the restricted dynamics."""

import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.linalg.lapack import zgttrf

import cslab.grids
import cslab.schrodinger
from cslab.cli import main
from cslab.dynamics import Trajectory, integrate
from cslab.errors import ConfigError, DomainError, NumericError
from cslab.grids import (
    WaveFunction,
    half_line_grid,
    momentum_expectation,
    position_moment,
    uniform_grid,
)
from cslab.schrodinger import (
    MAX_BASIS,
    ROW_PRODUCT_BITS,
    TAIL_WEIGHT,
    EvolutionSetup,
    LDLTSweeps,
    evolution_window,
    evolve,
    evolve_hermite,
    half_line_window,
    hamiltonian_tridiagonal,
    hermite_hamiltonian,
    ldlt_tridiagonal,
    oscillation_window,
    record_steps,
    tridiagonal_product,
)
from cslab.states import (
    AFFINE_DOMAIN,
    PhasePoint,
    affine_coherent,
    affine_fiducial,
    canonical_coherent,
    gaussian_fiducial,
)
from cslab.symbols import parse_operator, weak_symbol

from oracles import crank_nicolson_sparse, ldlt_banded_solve

HARMONIC = parse_operator("0.5 * D D + 0.5 * X X")
DXD = parse_operator("1.0 * D X D")
SOLVER_CASES = ["harmonic", "dxd", "dxd-b1"]  # see TestTridiagonalSolver._setup
# a case where partial pivoting swaps rows of A = 1 + i lam H; its <H> is
# too large for the trajectory tests' absolute bound
PIVOTING_CASE = "inverted-quartic"


def half_line_start(n=512, p0=0.2):
    """(grid, normalized psi0) of the affine coherent state at (p0, 1), beta = 2,
    on the n-node half-line window."""
    f = affine_fiducial(2.0, 1.0)
    grid = half_line_window(f, 1.0, n)
    psi0 = affine_coherent(f, PhasePoint(p0, 1.0, domain=AFFINE_DOMAIN), grid=grid)
    return grid, psi0.normalized()


class TestEvolutionSetup:
    def test_unsupported_operator_rejected(self):
        grid = half_line_grid(8.0, 256)
        with pytest.raises(DomainError, match="is not tridiagonal"):
            EvolutionSetup(parse_operator("1.0 * X D"), grid, 1e-3, 10)

    @pytest.mark.parametrize("lower, upper", [(-8.0, 8.0), (0.0, 8.0)])
    def test_grid_off_the_half_line_rejected_before_the_hamiltonian(
        self, monkeypatch, lower, upper
    ):
        # Crank-Nicolson pins only the far end: x = 0 is its ghost zero
        def unreached(setup):
            raise AssertionError("the Hamiltonian was built on a full-line window")

        monkeypatch.setattr(cslab.schrodinger, "hamiltonian_tridiagonal", unreached)
        with pytest.raises(DomainError, match=f"first node {lower!r} is not positive"):
            EvolutionSetup(HARMONIC, uniform_grid(lower, upper, 256), 1e-3, 10)

    def test_grid_with_a_nan_end_rejected(self):
        # Grid itself refuses a NaN end; the guard must fail closed on one too
        grid = half_line_grid(8.0, 256)
        object.__setattr__(grid, "lower", math.nan)
        with pytest.raises(DomainError, match="first node nan is not positive"):
            EvolutionSetup(HARMONIC, grid, 1e-3, 10)

    def test_grid_mismatch_rejected(self):
        grid, _ = half_line_start(512)
        _, psi0 = half_line_start(513)
        setup = EvolutionSetup(DXD, grid, 1e-3, 10)
        with pytest.raises(DomainError, match="initial state must live on the setup grid"):
            evolve(psi0, setup)

    def test_unnormalized_rejected(self):
        grid, psi0 = half_line_start()
        bad = WaveFunction(grid, 1.01 * psi0.values)
        setup = EvolutionSetup(DXD, grid, 1e-3, 10)
        with pytest.raises(DomainError, match="wave function norm deviates"):
            evolve(bad, setup)

    @pytest.mark.parametrize("hbar", [0.0, -1.0, math.nan, math.inf])
    def test_hbar_checked_first(self, hbar):
        # 0 raised ZeroDivisionError, -1 ran backward in time and NaN was
        # blamed on the spectral radius
        grid = half_line_grid(8.0, 256)
        with pytest.raises(DomainError, match=f"hbar = {hbar!r} must be finite and positive"):
            EvolutionSetup(DXD, grid, 1e-3, 10, hbar)

    def test_absurd_time_step_rejected(self):
        grid = half_line_grid(8.0, 8192)
        with pytest.raises(DomainError, match=r"dt \* spectral radius"):
            EvolutionSetup(HARMONIC, grid, 1e4, 10)

    def test_hamiltonian_built_once_per_setup(self, monkeypatch):
        calls = []
        build = cslab.schrodinger.hamiltonian_tridiagonal

        def counting(setup):
            calls.append(setup)
            return build(setup)

        monkeypatch.setattr(cslab.schrodinger, "hamiltonian_tridiagonal", counting)
        grid, psi0 = half_line_start(256)
        setup = EvolutionSetup(DXD, grid, 1e-3, 20)
        evolve(psi0, setup, snapshot_every=1)
        assert len(calls) == 1

    @pytest.mark.parametrize("p0, q0", [(0.0, 1e308), (1e308, 0.0), (0.0, math.nan)])
    def test_window_of_non_finite_width_names_the_start(self, p0, q0):
        # the grid used to fail on its own nodes, naming no input
        f = gaussian_fiducial(1.0, 1.0)
        with pytest.raises(DomainError, match=re.escape(f"p0 = {p0!r}, q0 = {q0!r}")):
            oscillation_window(f, p0, q0, 64)

    @pytest.mark.parametrize("q0", [1e308, math.inf])
    def test_half_line_window_of_non_finite_width_names_q0(self, q0):
        # the window's upper end 3 q0 overflows for q0 = 1e308; it used to be
        # passed in as q_max, and the message named q_max = inf
        f = affine_fiducial(2.0, 1.0)
        with pytest.raises(DomainError, match=re.escape(f"q0 = {q0!r} needs a window")):
            half_line_window(f, q0, 64)

    @pytest.mark.parametrize("family, p0, q0", [("canonical", 0.5, -0.3), ("affine", 0.2, 1.0)])
    def test_evolution_window_is_the_sheets_window(self, family, p0, q0):
        if family == AFFINE_DOMAIN:
            f = affine_fiducial(2.0, 1.0)
            want = half_line_window(f, q0, 512)
        else:
            f = gaussian_fiducial(1.0, 1.0)
            want = oscillation_window(f, p0, q0, 512)
        assert evolution_window(f, p0, q0, 512) == want

    @pytest.mark.parametrize("q0", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("beta, resolved", [
        (1.0, True), (1e4, True), (6e4, False), (1e7, False), (1e10, False),
    ])
    def test_half_line_window_resolves_the_start(self, q0, beta, resolved):
        # the start's spread q0 sqrt(hbar / 2 beta) shrinks as beta grows, so
        # 2048 nodes admit beta / hbar up to about 5.5e4 at every q0; beyond
        # that <H> came out far under the symbol, or the norm came out NaN
        f = affine_fiducial(beta, 1.0)
        if resolved:
            evolution_window(f, 0.0, q0, 2048)
        else:
            with pytest.raises(NumericError, match="does not resolve the start's spread"):
                evolution_window(f, 0.0, q0, 2048)

    @pytest.mark.parametrize("hbar", [1.0, 0.7, 3.0])
    def test_kinetic_term_is_dxd_at_power_zero(self, hbar):
        # c D D goes through the D X^k D stencil at k = 0: the same floats as
        # the 3-point stencil 2c hbar^2/h^2 on the diagonal, -c hbar^2/h^2 off it
        grid = half_line_grid(5.0, 100)
        setup = EvolutionSetup(parse_operator("0.3 * D D"), grid, 1e-3, 1, hbar)
        diag, off = hamiltonian_tridiagonal(setup)
        hb2, h2 = hbar * hbar, grid.spacing * grid.spacing
        assert np.array_equal(diag, np.full(99, 0.3 * 2 * hb2 / h2))
        assert np.array_equal(off, np.full(98, -0.3 * hb2 / h2))

    def test_dxd_discretization_is_symmetric(self):
        f = affine_fiducial(2.0, 1.0)
        grid = half_line_window(f, 1.0, 512)
        setup = EvolutionSetup(DXD, grid, 1e-4, 10)
        diag, off = hamiltonian_tridiagonal(setup)
        assert diag.size == grid.n - 1
        assert np.all(diag > 0)
        assert np.all(off < 0)


class TestEvolve:
    @pytest.mark.parametrize("stride", [0, -1, -5])
    def test_stride_below_one_rejected(self, stride):
        grid, psi0 = half_line_start(256)
        setup = EvolutionSetup(DXD, grid, 1e-3, 10)
        with pytest.raises(DomainError):
            evolve(psi0, setup, snapshot_every=stride)

    def test_memory_does_not_grow_with_recorded_steps(self):
        # one recorded step per Crank-Nicolson step; a list of the 1001
        # states alone would be 1001 * 4096 * 16 bytes = 65.6 MB
        grid, psi0 = half_line_start(4096)
        setup = EvolutionSetup(DXD, grid, 1e-3, 1000)
        tracemalloc.start()
        try:
            result = evolve(psi0, setup, snapshot_every=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.trajectory.n == 1001
        assert peak < 4e6

    def test_records_are_measured_on_the_unknowns(self, monkeypatch):
        # no derivative stencil and no full-grid state per record: the one
        # WaveFunction built is the final state
        grid, psi0 = half_line_start(256)
        setup = EvolutionSetup(DXD, grid, 1e-3, 200)
        derivatives, states = [], []
        derivative, wave_function = cslab.grids.derivative, cslab.grids.WaveFunction

        def counting_derivative(*args, **kwargs):
            derivatives.append(args)
            return derivative(*args, **kwargs)

        def counting_wave_function(*args, **kwargs):
            states.append(args)
            return wave_function(*args, **kwargs)

        for module in (cslab.grids, cslab.schrodinger):
            monkeypatch.setattr(module, "derivative", counting_derivative, raising=False)
            monkeypatch.setattr(module, "WaveFunction", counting_wave_function)
        result = evolve(psi0, setup, snapshot_every=1)
        assert result.trajectory.n == 201
        assert len(derivatives) == 0
        assert len(states) == 1

    def test_unitarity_over_many_steps(self):
        grid, psi0 = half_line_start(512, p0=0.4)
        setup = EvolutionSetup(DXD, grid, 1e-3, 10_000)
        result = evolve(psi0, setup, snapshot_every=10_000)
        # the flow keeps the grid's norm, less the pinned node's share; psi
        # near x = 0 is not small at beta = 2, so a rule that weighed the
        # first node by h / 2 read 0.99951 here
        kept = math.sqrt(psi0.norm_squared() - grid.spacing * abs(psi0.values[-1]) ** 2)
        assert abs(result.final.norm() - kept) <= 1e-8

    @pytest.mark.parametrize("steps, records", [
        (512, 513), (513, 258), (1000, 501), (1023, 513), (1024, 513), (3000, 501),
    ])
    def test_default_stride_records_at_most_513_steps(self, steps, records):
        # the least such stride: 513-1023 steps used to record every step
        recorded = record_steps(steps, None)
        assert recorded.size == records
        assert recorded[0] == 0 and recorded[-1] == steps
        stride = int(recorded[1])
        assert np.array_equal(recorded, record_steps(steps, stride))
        assert stride == 1 or record_steps(steps, stride - 1).size > 513


def evolve_in_time(psi0, setup, snapshot_every, backward):
    """(trajectory, final values) of evolve from psi0, or of psi0's run backward
    in time: H is real, so the run from conj(psi0), conjugated, is that run, at
    times -t and with -<p>."""
    if not backward:
        result = evolve(psi0, setup, snapshot_every=snapshot_every)
        return result.trajectory, result.final.values
    reverse = WaveFunction(psi0.grid, np.conj(psi0.values), psi0.hbar)
    result = evolve(reverse, setup, snapshot_every=snapshot_every)
    traj = result.trajectory
    return (Trajectory(-traj.times, -traj.p, traj.q, traj.energy),
            np.conj(result.final.values))


class TestTridiagonalSolver:
    """The pivot-free L D L^T route against the sparse LU in tests/oracles.py.

    Each step is u' = 2 A^-1 u - u with A = 1 + i lam H factored once per
    run without row swaps; the Hermitian part of A is 1, so elimination
    completes whatever the sign of H, including where LAPACK's partial
    pivoting would swap rows (``PIVOTING_CASE``).
    """

    @staticmethod
    def _setup(case):
        if case == "harmonic":
            # a Gaussian packet 8.5 spreads clear of x = 0
            f = gaussian_fiducial(1.0, 1.0)
            grid = half_line_grid(18.0, 512)
            psi0 = canonical_coherent(f, PhasePoint(0.4, 6.0), grid=grid)
            setup = EvolutionSetup(HARMONIC, grid, 1e-3, 200)
        elif case == "dxd":
            f = affine_fiducial(2.0, 1.0)
            grid = half_line_window(f, 1.0, 512)
            psi0 = affine_coherent(f, PhasePoint(0.5, 1.0, domain=AFFINE_DOMAIN), grid=grid)
            setup = EvolutionSetup(DXD, grid, 1e-3, 200)
        elif case == PIVOTING_CASE:
            # the potential -x^4 cancels the kinetic diagonal near x = 7.5,
            # where |A_ii| falls to 1.6 against |A_i,i+1| = 809
            f = gaussian_fiducial(4.0, 1.0)  # 8 spreads fit between 0 and 9
            grid = half_line_grid(9.0, 512)
            psi0 = canonical_coherent(f, PhasePoint(0.4, 4.5), grid=grid)
            setup = EvolutionSetup(parse_operator("0.5 * D D + -1 * X^4"), grid, 1.0, 200)
        else:
            # beta = 1, as in the flow benchmark: psi ~ sqrt(x) near 0, so the
            # first node's term, against the ghost zero at x = 0, weighs in <p>
            f = affine_fiducial(1.0, 1.0)
            grid = half_line_window(f, 1.0, 512)
            psi0 = affine_coherent(f, PhasePoint(0.3, 1.0, domain=AFFINE_DOMAIN), grid=grid)
            setup = EvolutionSetup(DXD, grid, 1e-3, 200)
        return psi0.normalized(), setup

    @pytest.mark.parametrize("backward", [False, True])
    @pytest.mark.parametrize("case", SOLVER_CASES + [PIVOTING_CASE])
    def test_evolve_matches_sparse_lu(self, case, backward):
        psi0, setup = self._setup(case)
        _, final = evolve_in_time(psi0, setup, setup.steps, backward)
        diag, off = hamiltonian_tridiagonal(setup)
        lam = setup.dt / (2 * setup.hbar) * (-1 if backward else 1)
        sl = setup.unknown_slice()
        want = crank_nicolson_sparse(diag, off, lam, psi0.values[sl], setup.steps)
        assert np.max(np.abs(final[sl] - want)) <= 1e-12

    @pytest.mark.parametrize("case, backward, stride", [
        pytest.param(case, backward, stride, id=f"{case}-{backward}{suffix}")
        for stride, suffix in ((40, ""), (1, "-stride1"))
        for backward in (False, True)
        for case in SOLVER_CASES
    ])
    def test_trajectory_matches_sparse_lu(self, case, backward, stride):
        psi0, setup = self._setup(case)
        traj, _ = evolve_in_time(psi0, setup, stride, backward)
        diag, off = hamiltonian_tridiagonal(setup)
        dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        sign = -1 if backward else 1
        lam = sign * setup.dt / (2 * setup.hbar)
        sl = setup.unknown_slice()
        u = psi0.values[sl]
        rows = []
        for k in range(setup.steps // stride + 1):
            if k:
                u = crank_nicolson_sparse(diag, off, lam, u, stride)
            full = np.zeros(setup.grid.n, dtype=complex)
            full[sl] = u
            state = WaveFunction(setup.grid, full, setup.hbar)
            energy = (np.conj(u) @ dense @ u).real * setup.grid.spacing
            rows.append((sign * k * stride * setup.dt, momentum_expectation(state),
                         position_moment(state), energy))
        want = np.array(rows)
        got = np.column_stack([traj.times, traj.p, traj.q, traj.energy])
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("backward", [False, True])
    def test_pivoting_case_swaps_rows_under_partial_pivoting(self, backward):
        _, setup = self._setup(PIVOTING_CASE)
        diag, off = hamiltonian_tridiagonal(setup)
        lam = setup.dt / (2 * setup.hbar) * (-1 if backward else 1)
        *_, ipiv, info = zgttrf(1j * lam * off, 1 + 1j * lam * diag, 1j * lam * off)
        assert info == 0
        assert np.count_nonzero(ipiv != np.arange(1, diag.size + 1)) > 0

    @pytest.mark.parametrize("backward", [False, True])
    @pytest.mark.parametrize("case", SOLVER_CASES + [PIVOTING_CASE])
    def test_factors_rebuild_a_with_pivots_off_the_imaginary_axis(self, case, backward):
        _, setup = self._setup(case)
        diag, off = hamiltonian_tridiagonal(setup)
        lam = setup.dt / (2 * setup.hbar) * (-1 if backward else 1)
        a_diag, a_off = 1 + 1j * lam * diag, 1j * lam * off
        l, d = ldlt_tridiagonal(a_diag, a_off)
        lower = np.eye(diag.size, dtype=complex) + np.diag(l, -1)
        a = np.diag(a_diag) + np.diag(a_off, 1) + np.diag(a_off, -1)
        rebuilt = lower @ np.diag(d) @ lower.T
        assert np.max(np.abs(rebuilt - a)) <= 1e-13 * np.max(np.abs(a))
        assert np.min(d.real) >= 1.0

    @pytest.mark.parametrize("diag, off", [
        pytest.param([0.0, 1.0, 1.0], [1.0, 1.0], id="zero-first-pivot"),
        pytest.param([1.0, 1.0, 1.0], [1.0, 1.0], id="zero-middle-pivot"),
        pytest.param([1.0, 2.0, 1.0], [1.0, 1.0], id="zero-last-pivot"),
        pytest.param([1.0, np.inf, 1.0], [1.0, 1.0], id="infinite-pivot"),
        pytest.param([1.0, 1.0, 1.0], [np.nan, 1.0], id="nan-off-diagonal"),
    ])
    def test_factorization_rejects_zero_or_non_finite_pivots(self, diag, off):
        with pytest.raises(NumericError, match="pivot"):
            ldlt_tridiagonal(np.array(diag, dtype=complex), np.array(off, dtype=complex))

    @staticmethod
    def _spoil_step(monkeypatch, step, kick):
        """Add ``kick`` to one unknown of ``step``'s solution; return the solve log."""
        solves = []
        solve = LDLTSweeps.solve

        def spoiled(self, b, out):
            solve(self, b, out)
            solves.append(1)
            if len(solves) == step:  # each step makes one solve
                out.reshape(-1)[self.size // 2] += kick

        monkeypatch.setattr(LDLTSweeps, "solve", spoiled)
        return solves

    def test_residual_guard_names_the_perturbed_step(self, monkeypatch):
        psi0, setup = self._setup("harmonic")
        solves = self._spoil_step(monkeypatch, 7, 1e-6)
        with pytest.raises(NumericError, match=r"residual .* at step 7 "):
            evolve(psi0, setup)
        assert len(solves) == 7

    def test_residual_guard_scales_with_the_state(self, monkeypatch):
        # |u| is about 5.3 here, so a residual of about 2.2e-10 is inside
        # 1e-10 max(|u|, 1) though over 1e-10
        psi0, setup = self._setup("harmonic")
        solves = self._spoil_step(monkeypatch, 7, 2e-10)
        evolve(psi0, setup)
        assert len(solves) == setup.steps

    @pytest.mark.parametrize("case", ["harmonic", "dxd"])
    def test_product_matches_dense_matrix(self, case):
        _, setup = self._setup(case)
        diag, off = hamiltonian_tridiagonal(setup)
        dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        rng = np.random.default_rng(3)
        u = rng.normal(size=diag.size) + 1j * rng.normal(size=diag.size)
        want = dense @ u
        got = tridiagonal_product(diag, off, u)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def sweep_multipliers(kind, m, rng):
    phases = np.exp(2j * np.pi * rng.random(m - 1))
    if kind == "zero":
        return np.zeros(m - 1, dtype=complex)
    if kind == "tiny":
        return 1e-9 * (1 + rng.random(m - 1)) * phases
    if kind == "alternating":
        return np.where(np.arange(m - 1) % 2, 1e-3, 1e3) * phases
    return (1 - 1e-3 * rng.random(m - 1)) * phases  # modulus near 1


def solve_with_sweeps(multipliers, pivots, b):
    """The sweeps for (multipliers, pivots), and their solution of L D L^T w = b
    in row layout."""
    sweeps = LDLTSweeps(multipliers, pivots)
    (b_rows, b_view), (w_rows, _) = sweeps.buffer(), sweeps.buffer()
    b_view[:] = b
    sweeps.solve(b_rows, w_rows)
    return sweeps, w_rows


def crank_nicolson_factors(q0, n, dt, beta=1.0, hbar=1.0):
    """The multipliers and halved pivots ``evolve`` sweeps with, for 1.0 * D X D
    on the affine window of a start at q0."""
    grid = evolution_window(affine_fiducial(beta, hbar), 0.3, q0, n)
    diag, off = EvolutionSetup(DXD, grid, dt, 1, hbar).tridiagonal
    lam = dt / (2 * hbar)
    multipliers, pivots = ldlt_tridiagonal(1 + 1j * lam * diag, 1j * lam * off)
    return multipliers, pivots / 2


class TestLDLTSweeps:
    """The row-wise prefix-sum sweeps against dense solves with L, D and L^T,
    and the row widths their running products admit."""

    @pytest.mark.parametrize("kind, m, width", [
        ("zero", 700, 1),
        ("tiny", 700, 16),  # the last row padded
        ("alternating", 700, 700),
        ("near-unit", 1024, 1024),
        ("near-unit", 1100, 1100),  # one row, not a padded row of 2048
        ("near-unit", 300, 300),
    ])
    def test_sweeps_match_a_dense_solve(self, kind, m, width):
        rng = np.random.default_rng(m)
        multipliers = sweep_multipliers(kind, m, rng)
        pivots = 1 + rng.random(m) + 1j * rng.normal(size=m)
        b = rng.normal(size=m) + 1j * rng.normal(size=m)
        # one dense solve per factor: the product itself has a condition
        # number near 1e16 in the alternating case
        lower = np.eye(m, dtype=complex) + np.diag(multipliers, -1)
        want = np.linalg.solve(lower.T, np.linalg.solve(lower, b) / pivots)

        sweeps, w_rows = solve_with_sweeps(multipliers, pivots, b)
        w = w_rows.reshape(-1)
        assert sweeps.width == width
        assert np.max(np.abs(w[:m] - want)) <= 1e-13 * np.max(np.abs(want))
        assert not w[m:].any()  # the padding ends zero

    @pytest.mark.parametrize("q0, n, dt, width", [
        # the CLI default (2048 nodes, dt 1e-4): rows of 64 when the width
        # bounded each running product from its row's start
        pytest.param(1.0, 2048, 1e-4, 256, id="cli-default"),
        # the flow benchmark's shape (4096 nodes, dt 1e-3), 8 rows of 512
        # under that bound: the span grows with q0
        pytest.param(2.0, 4096, 1e-3, 2048, id="flow-two-rows"),
        pytest.param(1.0, 4096, 1e-3, 4095, id="flow-one-row"),
    ])
    def test_half_line_rows(self, q0, n, dt, width):
        multipliers, pivots = crank_nicolson_factors(q0, n, dt)
        rng = np.random.default_rng(n)
        b = rng.normal(size=pivots.size) + 1j * rng.normal(size=pivots.size)
        sweeps, w_rows = solve_with_sweeps(multipliers, pivots, b)
        w = w_rows.reshape(-1)
        want = ldlt_banded_solve(multipliers, pivots, b)
        assert sweeps.width == width
        assert np.max(np.abs(w[: pivots.size] - want)) <= 1e-13 * np.max(np.abs(want))
        assert not w[pivots.size:].any()
        # each row's scale centres its running products: the scaled values
        # stay within 2^+-ROW_PRODUCT_BITS, up to the rounding of the centre
        assert np.max(np.abs(np.log2(np.abs(sweeps._inverse)))) <= ROW_PRODUCT_BITS + 0.5

    def test_nan_multiplier_ends_the_search_at_width_one(self):
        multipliers = np.full(99, 0.5 + 0.5j)
        multipliers[40] = np.nan
        sweeps = LDLTSweeps(multipliers, np.ones(100, dtype=complex))
        assert sweeps.width == 1


class TestHalfLineModelOne:
    def test_energy_conserved_and_matches_symbol(self):
        beta, hbar = 4.0, 1.0
        f = affine_fiducial(beta, hbar)
        grid = half_line_window(f, 1.0, 2048)
        psi0 = affine_coherent(f, PhasePoint(1.0, 1.0, domain=AFFINE_DOMAIN), grid=grid)
        psi0 = psi0.normalized()
        setup = EvolutionSetup(DXD, grid, 2e-4, 2500, hbar)
        traj = evolve(psi0, setup, snapshot_every=125).trajectory
        assert traj.energy_drift() <= 1e-6
        symbol = weak_symbol(DXD, f)
        assert traj.energy[0] == pytest.approx(symbol(1.0, 1.0), rel=1e-4)

    def test_restricted_matches_full_and_improves_with_sharpness(self):
        # classical limit: hbar decreases at fixed beta, so beta/hbar grows
        # while the flow's energy stays O(1)
        beta = 1.0
        worst = []
        for hbar in (0.5, 0.25, 0.125):
            f = affine_fiducial(beta, hbar)
            symbol = weak_symbol(DXD, f)
            grid = half_line_window(f, 1.0, 4096)
            start = PhasePoint(1.0, 1.0, domain=AFFINE_DOMAIN)
            psi0 = affine_coherent(f, start, grid=grid).normalized()
            setup = EvolutionSetup(DXD, grid, 1e-4, 5000, hbar)
            errs = []
            for backward in (False, True):
                traj, _ = evolve_in_time(psi0, setup, 250, backward)
                ref = integrate(symbol, start, -0.5 if backward else 0.5, 1e-4)
                order = np.argsort(ref.times)
                classical_q = np.interp(traj.times, ref.times[order], ref.q[order])
                errs.append(np.max(np.abs(traj.q - classical_q) / np.abs(classical_q)))
            worst.append(max(errs))
        # 5 % bound once beta/hbar >= 4, monotone improvement along the ladder
        assert worst[1] <= 0.05 and worst[2] <= 0.05
        assert worst[0] > worst[1] > worst[2]


def run_cli(argv, out):
    return main(["evolve-quantum", *argv, "--out", str(out), "--quiet"])


def dense_ladder_matrix(op, size, s, hbar):
    """The operator's matrix from dense ladder matrices of ``size`` states."""
    lower = np.diag(np.sqrt(np.arange(1.0, size)), 1)  # a
    x = s * (lower + lower.T)
    d = 1j * hbar / (2 * s) * (lower.T - lower)
    total = np.zeros((size, size), dtype=complex)
    for coeff, factors in op.terms:
        term = np.eye(size, dtype=complex)
        for f in factors:
            factor = d if f.kind == "D" else np.linalg.matrix_power(x, f.power)
            term = term @ factor
        total += coeff * term
    return total


def full_line_crank_nicolson(op, f, start, n, dt, steps, stride):
    """Columns <x>, <p>, <H> every ``stride`` steps of the sparse oracle's
    Crank-Nicolson on the n-node full-line window, pinned at both ends, with
    H from the potentials and the 3-point stencil of c D D."""
    grid = oscillation_window(f, start.p, start.q, n)
    x, h2, hb2 = grid.nodes[1:-1], grid.spacing * grid.spacing, f.hbar * f.hbar
    diag, off = np.zeros(x.size), np.zeros(x.size - 1)
    for coeff, factors in op.terms:
        if all(fac.kind == "X" for fac in factors):
            diag += coeff * x ** sum(fac.power for fac in factors)
        else:
            assert [fac.kind for fac in factors] == ["D", "D"]
            diag += 2 * coeff * hb2 / h2
            off -= coeff * hb2 / h2
    u = canonical_coherent(f, start, grid=grid).normalized().values[1:-1]
    rows = []
    for k in range(steps // stride + 1):
        if k:
            u = crank_nicolson_sparse(diag, off, dt / (2 * f.hbar), u, stride)
        state = WaveFunction(grid, np.concatenate([[0], u, [0]]), f.hbar)
        energy = np.vdot(u, tridiagonal_product(diag, off, u)).real * grid.spacing
        rows.append((position_moment(state), momentum_expectation(state), energy))
    return np.array(rows)


class TestHermiteRoute:
    """evolve-quantum on the canonical sheet: the fiducial's number basis."""

    @pytest.mark.parametrize("text", [
        "0.5 * D D + 0.5 * X X", "1.0 * D X D + 0.25 * X^4 + -0.3 * X", "0.5 * X D + 0.5 * D X",
    ])
    def test_crop_after_the_product_is_exact(self, text):
        # cropping each factor first would lose the paths through states >= K
        op, k, s, hbar = parse_operator(text), 12, 0.8, 0.7
        want = dense_ladder_matrix(op, k + 10, s, hbar)[:k, :k]
        got = hermite_hamiltonian(op, k, s, hbar)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("text", ["0.5 * D D + 0.5 * X X", "0.5 * D D + 0.25 * X^4",
                                      "0.5 * D D"])
    def test_agrees_with_crank_nicolson_within_its_error(self, text):
        # the full-line grid at (2048 nodes, dt 2e-3) and (4096, 1e-3): both
        # errors are second order, so the finer run is off by about a third of
        # the two runs' difference, and their Richardson value is far closer
        op, f, start = parse_operator(text), gaussian_fiducial(1.0, 1.0), PhasePoint(0.5, 0.3)
        runs = [full_line_crank_nicolson(op, f, start, n, dt, steps, stride)
                for n, dt, steps, stride in [(2048, 2e-3, 500, 50), (4096, 1e-3, 1000, 100)]]
        grid = oscillation_window(f, start.p, start.q, 4096)
        flow = evolve_hermite(op, f, start, grid, 1e-3, 1000, 100)
        assert flow.tail_weight <= TAIL_WEIGHT
        traj = flow.trajectory
        exact = np.column_stack([traj.q, traj.p, traj.energy])
        coarse, fine = runs
        own_error = np.max(np.abs(coarse - fine), axis=0)
        assert np.all(np.max(np.abs(exact - fine), axis=0) <= own_error / 2)
        richardson = (4 * fine - coarse) / 3
        assert np.all(np.max(np.abs(exact - richardson), axis=0) <= own_error / 100)

    @pytest.mark.parametrize("p0, q0", [(0.5, 0.3), (-3.0, 4.0), (0.5, 35.0)])
    def test_first_sample_is_the_coherent_state(self, p0, q0):
        # at q0 = 35 the window reaches x / s = 59, where the Gaussian factor
        # exp(-(x/s)^2 / 4) alone underflows
        f = gaussian_fiducial(1.0, 1.0)
        grid = oscillation_window(f, p0, q0, 4096)
        flow = evolve_hermite(parse_operator("0.5 * D D + 0.5 * X X"), f, PhasePoint(p0, q0),
                              grid, 1e-300, 1)  # t = 1e-300 moves nothing
        want = canonical_coherent(f, PhasePoint(p0, q0), grid=grid).values
        assert np.max(np.abs(flow.final.values - want)) <= 1e-12

    def test_harmonic_final_state_is_exact(self):
        # U(t) eta_{p0,q0} = exp(-i t/2 - i (p0 q0 - p q) / 2) eta_{p,q} for the
        # matched oscillator (omega = hbar = 1), (p, q) on the classical orbit
        f = gaussian_fiducial(1.0, 1.0)
        p0, q0, t = 0.5, -0.3, 0.2
        grid = oscillation_window(f, p0, q0, 1024)
        flow = evolve_hermite(parse_operator("0.5 * D D + 0.5 * X X"), f, PhasePoint(p0, q0),
                              grid, 1e-3, 200)
        q, p = q0 * math.cos(t) + p0 * math.sin(t), p0 * math.cos(t) - q0 * math.sin(t)
        phase = np.exp(-0.5j * t - 0.5j * (p0 * q0 - p * q))
        want = phase * canonical_coherent(f, PhasePoint(p, q), grid=grid).values
        assert np.max(np.abs(flow.final.values - want)) <= 1e-13

    def test_energy_is_the_weak_symbol(self):
        f = gaussian_fiducial(1.3, 0.6)
        op = parse_operator("0.5 * D D + 0.25 * X^4 + 0.1 * D X D")
        grid = oscillation_window(f, 0.4, -0.7, 2048)
        flow = evolve_hermite(op, f, PhasePoint(0.4, -0.7), grid, 1e-3, 200)
        energy = flow.trajectory.energy
        assert energy[0] == pytest.approx(weak_symbol(op, f)(0.4, -0.7), rel=1e-13)
        assert flow.trajectory.energy_drift() <= 1e-12

    @pytest.mark.parametrize("dt, steps", [(0.5, 12), (1.0, 6)])
    def test_dt_only_places_the_records(self, tmp_path, dt, steps):
        # the grid route gave x_final -0.4328 at dt = 1.0 against 0.1483
        argv = ["--operator", "0.5 * D D + 0.5 * X X", "--p0", "0.5", "--q0", "0.3",
                "--dt", str(dt), "--steps", str(steps)]
        assert run_cli(argv, tmp_path) == 0
        with open(tmp_path / "evolve_quantum.json") as fh:
            payload = json.load(fh)
        assert payload["x_final"] == pytest.approx(0.3 * math.cos(6) + 0.5 * math.sin(6),
                                                   abs=1e-10)
        assert payload["p_final"] == pytest.approx(0.5 * math.cos(6) - 0.3 * math.sin(6),
                                                   abs=1e-10)

    def test_non_hermitian_ordering_exits_2(self, tmp_path, capsys):
        f = gaussian_fiducial(1.0, 1.0)
        with pytest.raises(ConfigError, match="not Hermitian"):
            hermite_hamiltonian(parse_operator("1.0 * X D"), 16, f.sigma, f.hbar)
        out = tmp_path / "out"
        argv = ["--operator", "1.0 * X D + 0.5 * D D", "--p0", "0.1", "--q0", "0.2"]
        assert run_cli(argv, out) == 2
        err = capsys.readouterr().err
        assert "configuration error: the operator 1 * X D + 0.5 * D D is not Hermitian" in err
        assert not out.exists()
        # the symmetrized ordering is Hermitian and runs
        argv[1] = "0.5 * X D + 0.5 * D X + 0.5 * D D"
        assert run_cli(argv, out) == 0

    def test_unbounded_below_exits_3_at_max_basis(self, tmp_path, capsys):
        # the inverted quartic: the packet leaves every basis of K states, so
        # the run stops instead of following a truncated, boxed flow
        out = tmp_path / "out"
        argv = ["--operator", "0.5 * D D + -0.25 * X^4", "--p0", "0.1", "--q0", "0.2",
                "--dt", "0.01", "--steps", "300"]
        assert run_cli(argv, out) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert f"at K = {MAX_BASIS} (MAX_BASIS)" in err[0] and "TAIL_WEIGHT" in err[0]
        assert not out.exists()
