"""RK4 flow and the restricted action."""

import io

import numpy as np
import pytest

from oracles import model_one_reference

from cslab.dynamics import Trajectory, integrate, restricted_action
from cslab.errors import DomainError, PreconditionError
from cslab.states import AFFINE_DOMAIN, PhasePoint, gaussian_fiducial
from cslab.symbols import parse_operator, polynomial_symbol, weak_symbol


def harmonic_symbol(omega=1.0, hbar=1.0):
    op = parse_operator(f"0.5 * D D + {0.5 * omega**2} * X X")
    return weak_symbol(op, gaussian_fiducial(omega, hbar))


def model_one_symbol(c):
    return polynomial_symbol({(2, 1): 1.0, (0, -1): c}, "affine")


class TestIntegrate:
    def test_model_one_classical_closed_form_point(self):
        traj = integrate(
            model_one_symbol(0.0), PhasePoint(1.0, 1.0, domain=AFFINE_DOMAIN), 1.0, 1e-3
        )
        assert traj.p[-1] == pytest.approx(0.5, abs=1e-6)
        assert traj.q[-1] == pytest.approx(4.0, abs=1e-6)

    def test_model_one_collapse_flags_singularity(self):
        traj = integrate(
            model_one_symbol(0.0), PhasePoint(1.0, 1.0, domain=AFFINE_DOMAIN), -1.2, 1e-3
        )
        assert traj.singular
        assert traj.min_q() < 1e-3
        # collapse happens at t = -1/p0
        assert traj.times[-1] == pytest.approx(-1.0, abs=0.05)

    def test_enhanced_floor(self):
        c = 0.5
        symbol = model_one_symbol(c)
        start = PhasePoint(1.0, 1.0, domain=AFFINE_DOMAIN)
        backward = integrate(symbol, start, -10.0, 1e-3)
        forward = integrate(symbol, start, 10.0, 1e-3)
        assert not backward.singular and not forward.singular
        q_min = min(backward.min_q(), forward.min_q())
        assert q_min == pytest.approx(1.0 / 3.0, abs=1e-4)

    def test_constant_shift_does_not_alter_dynamics(self):
        omega, hbar = 1.0, 1.0
        enhanced = harmonic_symbol(omega, hbar)  # carries + hbar omega / 2
        classical = polynomial_symbol({(2, 0): 0.5, (0, 2): 0.5 * omega**2}, "canonical")
        t1 = integrate(enhanced, PhasePoint(1.0, 0.0), 5.0, 1e-3)
        t2 = integrate(classical, PhasePoint(1.0, 0.0), 5.0, 1e-3)
        assert np.array_equal(t1.p, t2.p)
        assert np.array_equal(t1.q, t2.q)

    @pytest.mark.parametrize(
        "symbol,start",
        [
            (harmonic_symbol(1.0), PhasePoint(1.0, 0.3)),
            (harmonic_symbol(2.0), PhasePoint(-0.5, 1.0)),
            (model_one_symbol(0.5), PhasePoint(1.0, 1.0, domain=AFFINE_DOMAIN)),
        ],
    )
    def test_energy_drift(self, symbol, start):
        traj = integrate(symbol, start, 10.0, 1e-3)
        assert traj.energy_drift() <= 1e-7

    def test_fourth_order_convergence(self):
        c = 0.5
        symbol = model_one_symbol(c)
        reference = model_one_reference(1.0, 1.0, c)

        def max_error(dt):
            traj = integrate(symbol, PhasePoint(1.0, 1.0, domain=AFFINE_DOMAIN), 2.0, dt)
            errs = [abs(q - reference(t)[1]) for t, q in zip(traj.times, traj.q)]
            return max(errs)

        assert max_error(2e-3) / max_error(1e-3) >= 14.0

    def test_rk4_against_closed_form_tight(self):
        reference = model_one_reference(1.0, 1.0, 0.0)
        traj = integrate(
            model_one_symbol(0.0), PhasePoint(1.0, 1.0, domain=AFFINE_DOMAIN), 1.0, 1e-3
        )
        err = max(
            max(abs(p - reference(t)[0]), abs(q - reference(t)[1]))
            for t, p, q in zip(traj.times, traj.p, traj.q)
        )
        assert err <= 1e-6

    def test_bad_dt_rejected(self):
        with pytest.raises(DomainError):
            integrate(harmonic_symbol(), PhasePoint(0, 0), 1.0, -0.1)

    def test_non_finite_gradient_carries_last_state(self):
        from cslab.errors import IntegrationError
        from cslab.symbols import SymbolFn

        broken = SymbolFn(
            lambda p, q: p * q,
            lambda p, q: (float("nan"), 0.0),
            "canonical",
            closed_form=False,
        )
        with pytest.raises(IntegrationError) as excinfo:
            integrate(broken, PhasePoint(1.0, 1.0), 1.0, 1e-2)
        assert excinfo.value.last_state == (0.0, 1.0, 1.0)


class TestRestrictedAction:
    def test_constant_path_value(self):
        symbol = harmonic_symbol(1.0)
        n = 501
        times = np.linspace(0, 2.0, n)
        path = Trajectory(times, np.full(n, 0.7), np.full(n, -0.3), np.zeros(n))
        want = -symbol(0.7, -0.3) * 2.0
        assert restricted_action(path, symbol) == pytest.approx(want, rel=1e-12)

    def test_needs_dense_sampling(self):
        symbol = harmonic_symbol(1.0)
        times = np.linspace(0, 1, 10)
        path = Trajectory(times, np.zeros(10), np.zeros(10), np.zeros(10))
        with pytest.raises(PreconditionError):
            restricted_action(path, symbol)

    def test_stationary_under_q_perturbation(self):
        symbol = harmonic_symbol(1.0)
        T = 2.0
        traj = integrate(symbol, PhasePoint(1.0, 0.0), T, 1e-3)
        base = restricted_action(traj, symbol)
        eps_values = (4e-4, 8e-4, 1.6e-3, 3.2e-3)
        deltas = []
        for eps in eps_values:
            q = traj.q + eps * np.sin(np.pi * traj.times / T)
            moved = Trajectory(traj.times, traj.p, q, np.zeros_like(q))
            deltas.append(abs(restricted_action(moved, symbol) - base))
        slope = np.polyfit(np.log(eps_values), np.log(deltas), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.1)

    def test_time_reversal_flips_pdq(self):
        symbol = model_one_symbol(0.5)
        traj = integrate(symbol, PhasePoint(1.0, 1.0, domain=AFFINE_DOMAIN), 2.0, 1e-3)
        action = restricted_action(traj, symbol)
        p_dq = float(np.sum(0.5 * (traj.p[1:] + traj.p[:-1]) * np.diff(traj.q)))
        rev = Trajectory(
            -traj.times[::-1], traj.p[::-1], traj.q[::-1], traj.energy[::-1]
        )
        assert restricted_action(rev, symbol) == pytest.approx(
            action - 2 * p_dq, rel=1e-10
        )


class TestTrajectoryCsv:
    def test_header_and_precision(self):
        times = np.linspace(0, 1, 3)
        traj = Trajectory(times, times * 0.1, times + 0.1, np.full(3, 1 / 3))
        buf = io.StringIO()
        traj.write_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "t,p,q,H"
        assert "0.33333333333333331" in lines[1]
        assert len(lines) == 4
