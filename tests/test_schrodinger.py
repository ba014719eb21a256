"""Crank-Nicolson benchmarks against the restricted dynamics."""

import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg.blas
from scipy.linalg.lapack import zgttrf

import cslab.grids
import cslab.schrodinger
from cslab.dynamics import integrate
from cslab.errors import DomainError, GridMismatchError, NumericError, PreconditionError
from cslab.grids import WaveFunction, momentum_expectation, position_moment, uniform_grid
from cslab.schrodinger import (
    EvolutionSetup,
    evolve,
    half_line_window,
    hamiltonian_tridiagonal,
    ldlt_tridiagonal,
    oscillation_window,
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

from oracles import crank_nicolson_sparse

HARMONIC = parse_operator("0.5 * D D + 0.5 * X X")
DXD = parse_operator("1.0 * D X D")
SOLVER_CASES = ["harmonic", "dxd", "dxd-b1"]  # see TestTridiagonalSolver._setup
# a case where partial pivoting swaps rows of A = 1 + i lam H; its <H> is
# too large for the trajectory tests' absolute bound
PIVOTING_CASE = "inverted-quartic"


class TestEvolutionSetup:
    def test_unsupported_operator_rejected(self):
        grid = uniform_grid(-8, 8, 256)
        with pytest.raises(DomainError):
            EvolutionSetup(parse_operator("1.0 * X D"), grid, 1e-3, 10)

    def test_grid_mismatch_rejected(self):
        f = gaussian_fiducial(1.0, 1.0)
        grid = uniform_grid(-8, 8, 512)
        other = uniform_grid(-8, 8, 513)
        psi0 = canonical_coherent(f, PhasePoint(0, 0), grid=other)
        setup = EvolutionSetup(HARMONIC, grid, 1e-3, 10)
        with pytest.raises(GridMismatchError):
            evolve(psi0, setup)

    def test_unnormalized_rejected(self):
        grid = uniform_grid(-8, 8, 512)
        f = gaussian_fiducial(1.0, 1.0)
        psi0 = canonical_coherent(f, PhasePoint(0, 0), grid=grid)
        bad = psi0.normalized()
        from cslab.grids import WaveFunction

        bad = WaveFunction(grid, 1.01 * bad.values)
        setup = EvolutionSetup(HARMONIC, grid, 1e-3, 10)
        with pytest.raises(PreconditionError):
            evolve(bad, setup)

    def test_absurd_time_step_rejected(self):
        grid = uniform_grid(-8, 8, 8192)
        with pytest.raises(PreconditionError):
            EvolutionSetup(HARMONIC, grid, 1e4, 10)

    def test_hamiltonian_built_once_per_setup(self, monkeypatch):
        calls = []
        build = cslab.schrodinger.hamiltonian_tridiagonal

        def counting(setup):
            calls.append(setup)
            return build(setup)

        monkeypatch.setattr(cslab.schrodinger, "hamiltonian_tridiagonal", counting)
        f = gaussian_fiducial(1.0, 1.0)
        grid = uniform_grid(-8, 8, 256)
        psi0 = canonical_coherent(f, PhasePoint(0.2, 0.1), grid=grid).normalized()
        setup = EvolutionSetup(HARMONIC, grid, 1e-3, 20)
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
        f = gaussian_fiducial(1.0, 1.0)
        grid = uniform_grid(-8, 8, 256)
        psi0 = canonical_coherent(f, PhasePoint(0.0, 0.0), grid=grid).normalized()
        setup = EvolutionSetup(HARMONIC, grid, 1e-3, 10)
        with pytest.raises(DomainError):
            evolve(psi0, setup, snapshot_every=stride)

    def test_memory_does_not_grow_with_recorded_steps(self):
        # one recorded step per Crank-Nicolson step; a list of the 1001
        # states alone would be 1001 * 4096 * 16 bytes = 65.6 MB
        f = gaussian_fiducial(1.0, 1.0)
        grid = oscillation_window(f, 0.5, 0.3, 4096)
        psi0 = canonical_coherent(f, PhasePoint(0.5, 0.3), grid=grid).normalized()
        setup = EvolutionSetup(HARMONIC, grid, 1e-3, 1000)
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
        f = gaussian_fiducial(1.0, 1.0)
        grid = uniform_grid(-8, 8, 256)
        psi0 = canonical_coherent(f, PhasePoint(0.2, 0.1), grid=grid).normalized()
        setup = EvolutionSetup(HARMONIC, grid, 1e-3, 200)
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

    def test_ground_state_is_stationary(self):
        f = gaussian_fiducial(1.0, 1.0)
        grid = uniform_grid(-7, 7, 8193)
        psi0 = canonical_coherent(f, PhasePoint(0.0, 0.0), grid=grid).normalized()
        setup = EvolutionSetup(HARMONIC, grid, 5e-4, 2000)
        result = evolve(psi0, setup, snapshot_every=2000)
        drift = np.max(np.abs(np.abs(result.final.values) - np.abs(psi0.values)))
        assert drift <= 1e-6

    def test_unitarity_over_many_steps(self):
        f = gaussian_fiducial(1.0, 1.0)
        grid = uniform_grid(-9, 9, 512)
        psi0 = canonical_coherent(f, PhasePoint(0.4, 0.2), grid=grid).normalized()
        setup = EvolutionSetup(HARMONIC, grid, 1e-3, 10_000)
        result = evolve(psi0, setup, snapshot_every=10_000)
        assert abs(result.final.norm() - 1.0) <= 1e-8

    def test_free_packet_conserves_momentum(self):
        f = gaussian_fiducial(1.0, 1.0)
        grid = uniform_grid(-24, 24, 4096)
        psi0 = canonical_coherent(f, PhasePoint(1.0, 0.0), grid=grid).normalized()
        setup = EvolutionSetup(parse_operator("0.5 * D D"), grid, 1e-3, 2000)
        traj = evolve(psi0, setup, snapshot_every=200).trajectory
        assert np.max(np.abs(traj.p - traj.p[0])) <= 1e-8

    def test_ehrenfest_match_for_matched_oscillator(self):
        omega, hbar = 1.0, 1.0
        p0, q0 = 0.5, 0.3
        f = gaussian_fiducial(omega, hbar)
        grid = oscillation_window(f, p0, q0, 2048)
        psi0 = canonical_coherent(f, PhasePoint(p0, q0), grid=grid).normalized()
        period = 2 * math.pi / omega
        dt = 2e-4
        setup = EvolutionSetup(HARMONIC, grid, dt, int(round(period / dt)))
        traj = evolve(psi0, setup, snapshot_every=100).trajectory
        x_exact = q0 * np.cos(omega * traj.times) + (p0 / omega) * np.sin(omega * traj.times)
        assert np.max(np.abs(traj.q - x_exact)) <= 1e-4


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
            f = gaussian_fiducial(1.0, 1.0)
            grid = uniform_grid(-9, 9, 512)
            psi0 = canonical_coherent(f, PhasePoint(0.4, 0.2), grid=grid)
            setup = EvolutionSetup(HARMONIC, grid, 1e-3, 200)
        elif case == "dxd":
            f = affine_fiducial(2.0, 1.0)
            grid = half_line_window(f, 1.0, 512)
            psi0 = affine_coherent(f, PhasePoint(0.5, 1.0, domain=AFFINE_DOMAIN), grid=grid)
            setup = EvolutionSetup(DXD, grid, 1e-3, 200)
        elif case == PIVOTING_CASE:
            # the potential -x^4 cancels the kinetic diagonal near |x| = 3.8,
            # where |A_ii| is about 1 against |A_i,i+1| = 10
            f = gaussian_fiducial(1.0, 1.0)
            grid = uniform_grid(-9, 9, 256)
            psi0 = canonical_coherent(f, PhasePoint(0.4, 0.2), grid=grid)
            setup = EvolutionSetup(parse_operator("0.5 * D D + -1 * X^4"), grid, 0.2, 200)
        else:
            # beta = 1, as in the flow benchmark: psi ~ sqrt(x) near 0, so the
            # first node's one-sided stencil weighs in <p>
            f = affine_fiducial(1.0, 1.0)
            grid = half_line_window(f, 1.0, 512)
            psi0 = affine_coherent(f, PhasePoint(0.3, 1.0, domain=AFFINE_DOMAIN), grid=grid)
            setup = EvolutionSetup(DXD, grid, 1e-3, 200)
        return psi0.normalized(), setup

    @pytest.mark.parametrize("backward", [False, True])
    @pytest.mark.parametrize("case", SOLVER_CASES + [PIVOTING_CASE])
    def test_evolve_matches_sparse_lu(self, case, backward):
        psi0, setup = self._setup(case)
        result = evolve(psi0, setup, snapshot_every=setup.steps, backward=backward)
        diag, off = hamiltonian_tridiagonal(setup)
        lam = setup.dt / (2 * setup.hbar) * (-1 if backward else 1)
        sl = setup.unknown_slice()
        want = crank_nicolson_sparse(diag, off, lam, psi0.values[sl], setup.steps)
        assert np.max(np.abs(result.final.values[sl] - want)) <= 1e-12

    @pytest.mark.parametrize("case, backward, stride", [
        pytest.param(case, backward, stride, id=f"{case}-{backward}{suffix}")
        for stride, suffix in ((40, ""), (1, "-stride1"))
        for backward in (False, True)
        for case in SOLVER_CASES
    ])
    def test_trajectory_matches_sparse_lu(self, case, backward, stride):
        psi0, setup = self._setup(case)
        traj = evolve(psi0, setup, snapshot_every=stride, backward=backward).trajectory
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
        """Add ``kick`` to one entry of ``step``'s solution; return the sweep log."""
        sweeps = []
        sweep = scipy.linalg.blas.ztbsv

        def spoiled(*args, **kwargs):
            w = sweep(*args, **kwargs)
            sweeps.append(1)
            if len(sweeps) == 2 * step:  # each step makes two sweeps
                w[w.size // 2] += kick
            return w

        monkeypatch.setattr(scipy.linalg.blas, "ztbsv", spoiled)
        return sweeps

    def test_residual_guard_names_the_perturbed_step(self, monkeypatch):
        psi0, setup = self._setup("harmonic")
        sweeps = self._spoil_step(monkeypatch, 7, 1e-6)
        with pytest.raises(NumericError, match=r"residual .* at step 7 "):
            evolve(psi0, setup)
        assert len(sweeps) == 14

    def test_residual_guard_scales_with_the_state(self, monkeypatch):
        # |u| is about 5.3 here, so a residual of about 2.2e-10 is inside
        # 1e-10 max(|u|, 1) though over 1e-10
        psi0, setup = self._setup("harmonic")
        sweeps = self._spoil_step(monkeypatch, 7, 2e-10)
        evolve(psi0, setup)
        assert len(sweeps) == 2 * setup.steps

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
                traj = evolve(psi0, setup, snapshot_every=250, backward=backward).trajectory
                ref = integrate(symbol, start, -0.5 if backward else 0.5, 1e-4)
                order = np.argsort(ref.times)
                classical_q = np.interp(traj.times, ref.times[order], ref.q[order])
                errs.append(np.max(np.abs(traj.q - classical_q) / np.abs(classical_q)))
            worst.append(max(errs))
        # 5 % bound once beta/hbar >= 4, monotone improvement along the ladder
        assert worst[1] <= 0.05 and worst[2] <= 0.05
        assert worst[0] > worst[1] > worst[2]


class TestRefinement:
    def test_halving_dt_and_dx_reduces_discrepancy(self):
        omega, hbar = 1.0, 1.0
        p0, q0 = 0.5, 0.3
        f = gaussian_fiducial(omega, hbar)
        period = 2 * math.pi / omega

        def discrepancy(n, dt):
            grid = oscillation_window(f, p0, q0, n)
            psi0 = canonical_coherent(f, PhasePoint(p0, q0), grid=grid).normalized()
            setup = EvolutionSetup(HARMONIC, grid, dt, int(round(period / dt)))
            traj = evolve(psi0, setup, snapshot_every=250).trajectory
            x_exact = q0 * np.cos(omega * traj.times) + p0 * np.sin(omega * traj.times)
            return np.max(np.abs(traj.q - x_exact))

        coarse = discrepancy(1024, 8e-4)
        fine = discrepancy(2048, 4e-4)
        assert coarse <= 1e-3
        assert coarse / fine >= 4.0
