"""The error-controlled flow, the closed-form Model One flow and the restricted action."""

import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import model_one_reference, restricted_action

from cslab import dynamics
from cslab.dynamics import Trajectory, integrate, model_one_flow
from cslab.errors import DomainError, NumericError
from cslab.states import AFFINE_DOMAIN, PhasePoint, affine_fiducial, gaussian_fiducial
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
        assert traj.energy_drift() <= 1e-10

    def test_error_does_not_depend_on_the_record_spacing(self):
        # dt only spaces the records: the step follows the error estimate, so
        # the error is the tolerance's at every spacing (RK4's fell 16x per halving)
        c = 0.5
        reference = model_one_reference(1.0, 1.0, c)
        for dt in (0.1, 2e-3, 1e-3):
            start = PhasePoint(1.0, 1.0, domain=AFFINE_DOMAIN)
            traj = integrate(model_one_symbol(c), start, 2.0, dt)
            assert traj.n == round(2.0 / dt) + 1
            assert max(abs(q - reference(t)[1]) for t, q in zip(traj.times, traj.q)) <= 1e-10

    def test_rk4_against_closed_form_tight(self):
        # named for the RK4 flow it first checked
        reference = model_one_reference(1.0, 1.0, 0.0)
        traj = integrate(
            model_one_symbol(0.0), PhasePoint(1.0, 1.0, domain=AFFINE_DOMAIN), 1.0, 1e-3
        )
        err = max(
            max(abs(p - reference(t)[0]), abs(q - reference(t)[1]))
            for t, p, q in zip(traj.times, traj.p, traj.q)
        )
        assert err <= 1e-10

    def test_large_gradient_is_not_a_singularity(self):
        # a gradient above 1e12 used to stop the run after 0 steps as "gradient overflow"
        traj = integrate(harmonic_symbol(), PhasePoint(1e13, 0.0), 1.0, 1e-3)
        assert not traj.singular
        assert traj.p[-1] == pytest.approx(1e13 * np.cos(1.0), rel=1e-9)
        assert traj.q[-1] == pytest.approx(1e13 * np.sin(1.0), rel=1e-9)

    def test_turn_at_the_start_is_resolved(self):
        # the enhanced flow turns at q = C/E = 1e-7 and never leaves the half
        # line, on a time scale sqrt(C) / E = 1.4e-7; RK4 at dt = 1e-3 had a
        # stage leave the domain, and stopped as unresolved (exit 3)
        symbol = weak_symbol(parse_operator("1.0 * D X D"), affine_fiducial(1.0, 1.0))
        start = PhasePoint(0.0, 1e-7, domain=AFFINE_DOMAIN)
        for t_final, dt in [(1.0, 1e-3), (2e-6, 1e-9)]:
            traj = integrate(symbol, start, t_final, dt)
            assert not traj.singular
            _, exact = model_one_flow(0.0, 1e-7, 0.5, traj.times)  # q = C/E + E t^2
            assert np.max(np.abs(traj.q - exact.q) / exact.q) <= 1e-9

    @pytest.mark.parametrize("p0", [1e4, 30.0, -100.0])
    def test_deep_turn_is_resolved(self, p0):
        # p0 = 1e4: the flow turns at C/E = 5e-9 on a time scale of 7e-9, well
        # inside RK4's first backward step, which stopped as unresolved; at
        # p0 = 30 RK4 ran through the turn with q 22% off
        symbol = weak_symbol(parse_operator("1.0 * D X D"), affine_fiducial(1.0, 1.0))
        traj = integrate(symbol, PhasePoint(p0, 1.0, domain=AFFINE_DOMAIN), -3.0, 1e-3)
        assert not traj.singular
        _, exact = model_one_flow(p0, 1.0, 0.5, traj.times)
        assert _close(traj.p, exact.p, 1e-9).all()
        assert np.max(np.abs(traj.q - exact.q) / exact.q) <= 1e-9

    def test_unresolved_approach_to_a_turn_below_the_floor_is_not_singular(self):
        # from q0 = 5e-7 the flow falls to its turn at C/E = 1e-9 over about
        # 1.5 records; RK4 at a step of dt = 2e-8 could not follow it (exit 3)
        symbol = weak_symbol(parse_operator("1.0 * D X D"), affine_fiducial(1.0, 1.0))
        energy, q0 = 5e8, 5e-7
        p0 = -energy * math.sqrt((q0 - 0.5 / energy) / energy) / q0  # on the way in
        traj = integrate(symbol, PhasePoint(p0, q0, domain=AFFINE_DOMAIN), 1e-7, 2e-8)
        assert not traj.singular
        _, exact = model_one_flow(p0, q0, 0.5, traj.times)
        assert _close(traj.p, exact.p, 1e-9).all()
        assert np.max(np.abs(traj.q - exact.q) / exact.q) <= 1e-9

    def test_resolved_turn_far_below_the_start_is_not_singular(self):
        # q0 = 1e4: the flow turns at C/E = 5e-3 near t = -10 on a time scale
        # of 7 dt; a floor scaled to q0 (1e-2) read this turn as singular
        symbol = weak_symbol(parse_operator("1.0 * D X D"), affine_fiducial(1.0, 1.0))
        traj = integrate(symbol, PhasePoint(0.1, 1e4, domain=AFFINE_DOMAIN), -12.0, 1e-3)
        assert not traj.singular
        assert traj.times[-1] == pytest.approx(-12.0)
        _, exact = model_one_flow(0.1, 1e4, 0.5, traj.times)
        assert traj.min_q() == pytest.approx(exact.min_q(), rel=1e-9)
        assert traj.energy_drift() <= 1e-10

    @pytest.mark.parametrize("q0", [1e-7, 1.0, 1e7])
    def test_collapse_is_flagged_at_every_scale(self, q0):
        # q -> lam q, p -> p / lam maps the C = 0 flow onto itself; p = p0 / (1 + p0 t)
        # does not depend on q, and the step shrinks to the roundoff of t as
        # it follows p to the collapse at t = -1/p0
        traj = integrate(
            model_one_symbol(0.0), PhasePoint(1.0, q0, domain=AFFINE_DOMAIN), -1.2, 1e-3
        )
        assert traj.singular
        assert traj.singular_reason == f"q falls to 0 at t = {float(traj.times[-1])!r}"
        assert traj.times[-1] == pytest.approx(-1.0, abs=1e-9)
        assert traj.times[-2] == 999 * -1e-3  # the records before it stay on the grid

    def test_blow_up_is_a_numerical_error(self):
        # q runs off to infinity in finite time: the step shrinks to the
        # roundoff of t, and q does not fall to 0
        symbol = polynomial_symbol({(2, 0): 0.5, (0, 4): -0.25}, "canonical")
        with pytest.raises(NumericError, match=r"the step shrinks to the roundoff of t = 0\.92"):
            integrate(symbol, PhasePoint(0.0, 2.0), 10.0, 1e-3)

    def test_step_cap(self, monkeypatch):
        # a period of about 3e-9 at q0 = 1e3 would take some 1e10 steps to t = 1
        monkeypatch.setattr(dynamics, "MAX_STEPS", 1000)
        symbol = weak_symbol(parse_operator("0.5 * D D + 1.0 * X^8"), gaussian_fiducial())
        with pytest.raises(NumericError, match=r"over MAX_STEPS = 1000 steps: it reaches t = "):
            integrate(symbol, PhasePoint(0.0, 1e3), 1.0, 1e-3)

    def test_bad_dt_rejected(self):
        with pytest.raises(DomainError):
            integrate(harmonic_symbol(), PhasePoint(0, 0), 1.0, -0.1)

    def test_non_finite_gradient_carries_last_state(self):
        from cslab.symbols import SymbolFn

        # inf p q - inf p q^2: its gradient at q = 1 is inf - inf = NaN; the
        # first stage fails, so the message names the start
        broken = SymbolFn({(1, 1): float("inf"), (1, 2): -float("inf")}, "canonical")
        with pytest.raises(NumericError, match=re.escape(
            "non-finite gradient (dH/dp, dH/dq) = (nan, nan) at t = 0, p = 1.0, q = 1.0"
        )):
            integrate(broken, PhasePoint(1.0, 1.0), 1.0, 1e-2)


def _close(got, want, rtol):
    return np.abs(got - want) <= rtol * np.maximum(1.0, np.maximum(np.abs(got), np.abs(want)))


class TestModelOneFlow:
    @pytest.mark.parametrize(
        "p0, q0, c",
        [(p0, q0, c) for p0 in (-1.3, -0.4, 0.0, 0.8, 3.0) for q0 in (0.5, 1.2)
         for c in (0.0, 0.5, 2.0) if p0 or c],  # p0 = C = 0 is a rest point with E = 0
    )
    def test_matches_oracle(self, p0, q0, c):
        times = np.linspace(-3.0, 3.0, 601)
        if c == 0:  # p = 1/(t + 1/p0) is undefined at the collapse
            times = times[np.abs(times + 1 / p0) > 0.1]
        _, path = model_one_flow(p0, q0, c, times)
        reference = model_one_reference(p0, q0, c)
        want_p, want_q = np.array([reference(t) for t in times]).T
        assert _close(path.p, want_p, 1e-13).all()
        assert _close(path.q, want_q, 1e-13).all()

    @pytest.mark.parametrize(
        "p0, q0, c, t_final",
        [(1.0, 1.0, 0.5, 10.0), (1.0, 1.0, 0.5, -10.0), (-1.0, 1.3, 0.5, 10.0),
         (0.8, 1.2, 2.0, -5.0), (1.0, 1.0, 0.0, 1.0), (-0.4, 0.5, 0.0, -3.0)],
    )
    def test_matches_rk4(self, p0, q0, c, t_final):
        run = integrate(model_one_symbol(c), PhasePoint(p0, q0, domain=AFFINE_DOMAIN),
                        t_final, 1e-3)
        assert not run.singular
        _, path = model_one_flow(p0, q0, c, run.times)
        assert np.max(np.abs(path.p - run.p)) <= 1e-9
        assert np.max(np.abs(path.q - run.q)) <= 1e-9

    @settings(max_examples=60, deadline=None)
    @given(
        p0=st.floats(-100.0, 100.0),
        q0=st.floats(1e-3, 1e3),
        c=st.sampled_from([0.0, 0.5, 2.0]),
        span=st.floats(0.1, 5.0),
        backward=st.booleans(),
    )
    def test_integrated_flow_meets_the_closed_form(self, p0, q0, c, span, backward):
        t_final = -span if backward else span
        run = integrate(model_one_symbol(c), PhasePoint(p0, q0, domain=AFFINE_DOMAIN),
                        t_final, 1e-2)
        if c:
            assert not run.singular
            _, path = model_one_flow(p0, q0, c, run.times)
            assert np.max(np.abs(run.q - path.q) / path.q) <= 1e-9
            # p = E (t - t*) / q swings through 0 at the turn at a rate E / q, up to
            # 1e14 here, so a record time 1 ulp off moves p more than 1e-9, the
            # closed form's as much as the flow's; p is held through pq = E (t - t*),
            # to its largest value on the path
            dilation = path.p * path.q
            assert np.max(np.abs(run.p * run.q - dilation)) <= 1e-9 * np.max(np.abs(dilation))
            return
        # C = 0 collapses at t* = -1/p0; a run that reaches it ends singular there
        t_star = -1 / p0 if p0 else math.inf
        assume(abs(abs(t_star) - span) > 1e-6)  # not ending at the collapse itself
        if 0 < t_star / t_final < 1:
            assert run.singular
            assert run.times[-1] == pytest.approx(t_star, rel=1e-9, abs=1e-12)
        else:
            assert not run.singular
            assert run.n == round(span / 1e-2) + 1

    def test_classical_collapse_at_minus_one_over_p0(self):
        # with C = 0, q = q0 (1 + p0 t)^2 closes in on 0 on both sides of t = -1.25
        _, path = model_one_flow(0.8, 1.2, 0.0, np.array([-1.25 - 1e-4, -1.25 + 1e-4, 0.0]))
        want = 1.2 * (0.8 * 1e-4) ** 2
        assert path.q == pytest.approx([want, want, 1.2], rel=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(
        p0=st.floats(-1e6, 1e6),
        q0=st.floats(1e-3, 1e3),
        ratio=st.floats(1.0, 100.0),
    )
    def test_floor_and_energy_hold_to_roundoff(self, p0, q0, ratio):
        c = ratio / 2  # hbar beta / 2 at hbar = 1
        times = np.linspace(-10.0, 10.0, 201)
        energy, path = model_one_flow(p0, q0, c, times)
        assert (path.q >= c / energy).all()
        h = path.q * path.p**2 + c / path.q
        assert np.max(np.abs(h / energy - 1)) <= 1e-12
        assert np.max(np.abs(path.energy / energy - 1)) <= 1e-12

    @pytest.mark.parametrize(
        "p0, q0, c, message",
        [(1e200, 1.0, 0.5, "E = inf"), (0.0, 1.0, 0.0, "E = 0.0"),
         (1e150, 1.0, 0.5, "q = inf")],
    )
    def test_non_finite_values_are_named(self, p0, q0, c, message):
        with pytest.raises(NumericError, match=message):
            model_one_flow(p0, q0, c, np.array([0.0, 1e10]))


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
        with pytest.raises(DomainError, match="restricted_action needs >= 100 samples"):
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
