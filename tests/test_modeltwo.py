"""Ladder engine, reducible overlaps and characteristic functions."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cslab.errors import AccuracyError, DomainError, NumericError, PreconditionError
from cslab.modeltwo import (
    LadderPolynomial,
    RadialDensity,
    ReducibleRep,
    _angular_series,
    _gauss_legendre,
    characteristic_exact_gaussian,
    characteristic_radial,
    displaced_expectation,
    gaussian_radial_density,
    h1_closed_form,
    h1_expectation,
    h1_matrix_element,
    h1_operator,
    h_p_operator,
    h_r_operator,
    match_target,
    matrix_element,
    measure_superposition,
    overlap_reducible,
    quartic_operator,
    scenario_record,
    solid_angle,
)


from oracles import (
    characteristic_kernel,
    h1_terms,
    ladder_dagger,
    ladder_evaluate,
    ladder_hermitian,
    quadrature_expectations,
    quadrature_overlap,
)

SITES = 4
# dyadic coefficients keep every sum exact, so the hermiticity verdict
# cannot depend on the order in which equal monomials are summed
_dyadic = st.integers(-8, 8).map(lambda k: k / 4)
_coeffs = st.builds(complex, _dyadic, _dyadic)
_index = st.lists(st.tuples(st.integers(0, SITES - 1), st.integers(0, 3)), max_size=3)
_terms = st.lists(st.tuples(_coeffs, _index, _index, _index, _index), max_size=6)


class TestDisplacedExpectation:
    def test_h_p_is_free_oscillator(self):
        rep = ReducibleRep(3, 1.5, 0.4)
        p = np.array([1.0, -0.5, 0.2])
        q = np.array([0.3, 1.1, -0.7])
        want = 0.5 * (p @ p + rep.m**2 * (q @ q))
        assert displaced_expectation(h_p_operator(rep), rep, p, q) == pytest.approx(
            want, rel=1e-14
        )

    def test_h_r_from_b_eigenvalue(self):
        rep = ReducibleRep(2, 2.0, 0.6)
        p = np.array([1.0, 0.0])
        q = np.array([0.0, 1.0])
        want = 0.5 * rep.m**2 * rep.zeta**2 * (q @ q)
        assert displaced_expectation(h_r_operator(rep), rep, p, q) == pytest.approx(
            want, rel=1e-14
        )

    def test_quartic_from_b_eigenvalue_fourth_power(self):
        rep = ReducibleRep(2, 1.0, 0.5)
        nu = 0.7
        q = np.array([0.4, -1.2])
        want = nu * rep.m**4 * rep.zeta**4 * (q @ q) ** 2
        got = displaced_expectation(quartic_operator(rep, nu), rep, np.zeros(2), q)
        assert got == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("m,zeta,hbar", [(1, 0.3, 1), (2, 0.6, 1), (1, 0.9, 0.5)])
    def test_wick_engine_against_quadrature(self, m, zeta, hbar):
        rep = ReducibleRep(1, m, zeta, hbar)
        p, q = 0.8, -1.1
        h_p_quad, h_r_quad, quartic_quad = quadrature_expectations(m, zeta, hbar, p, q)
        assert displaced_expectation(h_p_operator(rep), rep, [p], [q]) == pytest.approx(
            h_p_quad, abs=1e-6
        )
        assert displaced_expectation(h_r_operator(rep), rep, [p], [q]) == pytest.approx(
            h_r_quad, abs=1e-6
        )
        assert displaced_expectation(
            quartic_operator(rep, 1.0), rep, [p], [q]
        ) == pytest.approx(quartic_quad, abs=1e-6)

    def test_wrong_vector_length_rejected(self):
        rep = ReducibleRep(3, 1.0, 0.2)
        with pytest.raises(DomainError):
            displaced_expectation(h_p_operator(rep), rep, [1.0], [1.0])

    def test_h1_skips_the_hermiticity_check(self, monkeypatch):
        calls = []
        check = LadderPolynomial.is_hermitian

        def counted(poly, *args, **kwargs):
            calls.append(poly)
            return check(poly, *args, **kwargs)

        monkeypatch.setattr(LadderPolynomial, "is_hermitian", counted)
        rep = ReducibleRep(3, 1.0, 0.4)
        p, q = np.array([1.0, -0.5, 0.2]), np.array([0.3, 1.1, -0.7])
        got = h1_expectation(rep, 0.7, p, q)
        assert got == pytest.approx(h1_closed_form(rep, 0.7, p, q), rel=1e-13)
        assert calls == []

    def test_nan_residue_of_hermitian_polynomial_raises(self):
        rep = ReducibleRep(2, 1.0, 0.5)
        with pytest.raises(AccuracyError):
            displaced_expectation(h_p_operator(rep), rep, [math.nan, 0.0], [0.3, 1.0])

    def test_non_finite_values_are_numeric_errors(self):
        rep = ReducibleRep(1, 1.0, 0.5)
        # the complex power (B_0)^2 overflows at q = 1e200
        with pytest.raises(NumericError):
            displaced_expectation(quartic_operator(rep, 1.0), rep, [0.0], [1e200])
        # the product A+_0 A_0 overflows to inf without an exception
        with pytest.raises(NumericError):
            displaced_expectation(h_p_operator(rep), rep, [1e200], [1.0])
        # a non-Hermitian polynomial at an infinite eigenvalue
        lone_a = LadderPolynomial.from_factors(1.0, [("A", 0)])
        with pytest.raises(NumericError):
            displaced_expectation(lone_a, rep, [math.inf], [1.0])
        # H_r is finite, 4 nu H_r H_r is not
        with pytest.raises(NumericError):
            h1_expectation(rep, 1.0, [1.0], [1e100])

    def test_imaginary_value_of_non_hermitian_polynomial_returns_real_part(self):
        rep = ReducibleRep(1, 1.5, 0.4)
        lone_a = LadderPolynomial.from_factors(1.0, [("A", 0)])
        assert not lone_a.is_hermitian()
        assert displaced_expectation(lone_a, rep, [0.8], [-1.1]) == 0.8

    def test_normal_order_enforced_structurally(self):
        with pytest.raises(DomainError):
            LadderPolynomial.from_factors(1.0, [("A", 0), ("A+", 0)])
        ok = LadderPolynomial.from_factors(1.0, [("A+", 0), ("A", 0)])
        assert ok.is_hermitian()


class TestCompiledEngine:
    """The term-list engine against the independent loops in tests/oracles.py,
    and H1's pair-sum route against its expanded 2N + N^2 terms."""

    @settings(max_examples=200, deadline=None)
    @given(_terms, _terms, _coeffs, st.integers(0, 2**32 - 1))
    # A+_0 - A+_0 cancels to the zero polynomial, which is Hermitian
    @example([(1 + 0j, [(0, 1)], [], [], [])], [(1 + 0j, [(0, 1)], [], [], [])], -1 + 0j, 0)
    def test_matches_loop_oracle(self, first, second, factor, seed):
        terms = first + [(c * factor, *indices) for c, *indices in second]
        poly = LadderPolynomial.build(first) + LadderPolynomial.build(second).scaled(factor)
        assert len(poly.terms) == len(terms)

        rng = np.random.default_rng(seed)
        rep = ReducibleRep(SITES, float(rng.uniform(0.5, 2)), float(rng.uniform(0, 0.9)))
        pl, ql, pr, qr = rng.normal(0, 1, (4, SITES))
        got = matrix_element(poly, rep, pl, ql, pr, qr)
        overlap = overlap_reducible(rep, pl, ql, pr, qr)
        want, size = ladder_evaluate(
            terms, rep.alpha(pl, ql), rep.beta(ql), rep.alpha(pr, qr), rep.beta(qr)
        )
        assert abs(got - want * overlap) <= 1e-12 * size * abs(overlap)
        adjoint = matrix_element(poly.dagger(), rep, pr, qr, pl, ql)
        assert abs(adjoint - np.conj(got)) <= 1e-12 * size * abs(overlap)

        cases = [
            (terms, poly),
            (ladder_dagger(terms), poly.dagger()),
            (terms + ladder_dagger(terms), poly + poly.dagger()),
        ]
        for case_terms, case in cases:
            assert case.is_hermitian() == ladder_hermitian(case_terms)
        assert (poly + poly.dagger()).is_hermitian()

    @pytest.mark.parametrize("n", [1, 2, 7, 40])
    def test_h1_operator_term_count(self, n):
        assert len(h1_operator(ReducibleRep(n, 1.0, 0.5), 0.3).terms) == 2 * n + n * n

    @pytest.mark.parametrize("n", [1, 3, 12])
    def test_h1_operator_matches_term_list(self, n):
        rng = np.random.default_rng(n)
        rep = ReducibleRep(n, 1.3, 0.6)
        poly = h1_operator(rep, 0.7)
        assert poly.is_hermitian() and ladder_hermitian(h1_terms(n, 0.7))
        pl, ql, pr, qr = rng.normal(0, 1, (4, n))
        want, size = ladder_evaluate(
            h1_terms(n, 0.7), rep.alpha(pl, ql), rep.beta(ql), rep.alpha(pr, qr), rep.beta(qr)
        )
        got = matrix_element(poly, rep, pl, ql, pr, qr) / overlap_reducible(rep, pl, ql, pr, qr)
        assert abs(got - want) <= 1e-12 * size

    @pytest.mark.parametrize("n", [1, 3, 12])
    def test_h1_pair_sums_match_expanded_operator(self, n):
        rng = np.random.default_rng(100 + n)
        rep = ReducibleRep(n, 1.3, 0.6)
        poly = h1_operator(rep, 0.7)
        pl, ql, pr, qr = rng.normal(0, 1, (4, n))
        left, right = (rep.alpha(pl, ql), rep.beta(ql)), (rep.alpha(pr, qr), rep.beta(qr))

        _, size = ladder_evaluate(h1_terms(n, 0.7), *left, *right)
        overlap = abs(overlap_reducible(rep, pl, ql, pr, qr))
        got = h1_matrix_element(rep, 0.7, pl, ql, pr, qr)
        assert abs(got - matrix_element(poly, rep, pl, ql, pr, qr)) <= 1e-12 * size * overlap

        _, size = ladder_evaluate(h1_terms(n, 0.7), *left, *left)
        got = h1_expectation(rep, 0.7, pl, ql)
        assert abs(got - displaced_expectation(poly, rep, pl, ql)) <= 1e-12 * size


class TestH1:
    def test_zeta_zero_kills_the_quartic(self):
        rep = ReducibleRep(4, 1.3, 0.0)
        p = np.array([1.0, 0.0, -1.0, 0.5])
        q = np.array([0.2, 0.4, 0.6, 0.8])
        for nu in (0.0, 1.0, 10.0):
            want = 0.5 * (p @ p + rep.m**2 * (q @ q))
            assert h1_expectation(rep, nu, p, q) == pytest.approx(want, rel=1e-14)

    def test_worked_example(self):
        rep = ReducibleRep(2, 1.0, 0.5)
        got = h1_expectation(rep, 1.0, [1.0, 0.0], [0.0, 1.0])
        assert got == pytest.approx(1.1875, abs=1e-14)

    def test_closed_form_over_random_draws(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            n = int(rng.integers(1, 6))
            rep = ReducibleRep(
                n, float(rng.uniform(0.5, 2.5)), float(rng.uniform(0, 0.95))
            )
            nu = float(rng.uniform(0, 2))
            p = rng.normal(0, 1.5, n)
            q = rng.normal(0, 1.5, n)
            engine = h1_expectation(rep, nu, p, q)
            closed = h1_closed_form(rep, nu, p, q)
            assert abs(engine - closed) <= 1e-12 * (1 + abs(closed))

    def test_float_power_overflow_is_numeric_error(self):
        with pytest.raises(NumericError):
            h1_closed_form(ReducibleRep(1, 1e100, 0.5), 1.0, [1.0], [1.0])
        with pytest.raises(NumericError):
            h1_closed_form(ReducibleRep(1, 1.0, 0.5), 1.0, [0.0], [1e100])
        with pytest.raises(NumericError):
            match_target(1e200, 1.0, 0.5)

    @pytest.mark.parametrize(
        "p, q",
        [([1e154, 1e154], [0.0, 0.0]), ([0.0, 0.0], [1e154, 1e154]), ([math.nan, 0.0], [0.0, 0.0])],
    )
    def test_closed_form_fails_closed(self, p, q):
        # |p|^2 or |q|^2 overflows in the dot product itself, before any float power
        with pytest.raises(NumericError, match="non-finite closed-form H1"):
            h1_closed_form(ReducibleRep(2, 1.0, 0.5), 1.0, p, q)

    @pytest.mark.parametrize("n", [256, 1024, 4096])
    def test_closed_form_at_large_n(self, n):
        rng = np.random.default_rng(n)
        rep = ReducibleRep(n, 1.2, 0.6)
        p, q = rng.normal(0, 1, (2, n))
        closed = h1_closed_form(rep, 0.7, p, q)
        assert abs(h1_expectation(rep, 0.7, p, q) - closed) <= 1e-12 * (1 + abs(closed))

    def test_large_n_expands_no_quartic_terms(self):
        # expanded, the 4096^2 quartic terms peaked at 3.2 GB; the pair sums take ~2 MB
        rep = ReducibleRep(4096, 1.2, 0.6)
        p, q = np.random.default_rng(7).normal(0, 1, (2, 4096))
        tracemalloc.start()
        try:
            h1_expectation(rep, 0.7, p, q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6

    def test_target_matching_round_trip(self):
        rng = np.random.default_rng(3)
        for zeta in (0.25, 0.5, 0.8):
            m0_sq, lam0 = 2.3, 0.7
            m, nu = match_target(m0_sq, lam0, zeta)
            rep = ReducibleRep(3, m, zeta)
            p = rng.normal(0, 1, 3)
            q = rng.normal(0, 1, 3)
            want = 0.5 * (p @ p + m0_sq * (q @ q)) + lam0 * (q @ q) ** 2
            assert h1_expectation(rep, nu, p, q) == pytest.approx(want, rel=1e-12)

    def test_rotational_invariance(self):
        rng = np.random.default_rng(11)
        rep = ReducibleRep(4, 1.2, 0.6)
        nu = 0.9
        p = rng.normal(0, 1, 4)
        q = rng.normal(0, 1, 4)
        base = h1_expectation(rep, nu, p, q)
        for _ in range(5):
            rot, _ = np.linalg.qr(rng.normal(size=(4, 4)))
            got = h1_expectation(rep, nu, rot @ p, rot @ q)
            assert got == pytest.approx(base, rel=1e-12)

    def test_scenario_record_fields(self):
        rep = ReducibleRep(3, 1.0, 0.5)
        rec = scenario_record(rep, 1.0, [1, 0, 0], [0, 1, 0])
        assert set(rec) == {"N", "m", "zeta", "nu", "p", "q", "H1", "m0_sq", "lambda0"}
        assert rec["m0_sq"] == pytest.approx(1.25)
        assert rec["lambda0"] == pytest.approx(0.0625)


class TestMatrixElements:
    def test_diagonal_reduces_to_expectation(self):
        rep = ReducibleRep(2, 1.0, 0.4)
        p = np.array([0.7, -0.1])
        q = np.array([0.2, 1.3])
        elem = h1_matrix_element(rep, 0.8, p, q, p, q)
        assert elem.imag == pytest.approx(0.0, abs=1e-12)
        assert elem.real == pytest.approx(h1_expectation(rep, 0.8, p, q), rel=1e-12)

    def test_zeta_zero_brace_is_bilinear(self):
        rep = ReducibleRep(1, 1.3, 0.0)
        pl, ql, pr, qr = 0.4, -0.6, 1.1, 0.9
        elem = h1_matrix_element(rep, 5.0, [pl], [ql], [pr], [qr])
        overlap = overlap_reducible(rep, [pl], [ql], [pr], [qr])
        m = rep.m
        brace = 0.5 * (m * ql - 1j * pl) * (m * qr + 1j * pr)
        assert elem == pytest.approx(brace * overlap, rel=1e-12)

    def test_hermiticity(self):
        rng = np.random.default_rng(5)
        rep = ReducibleRep(3, 1.1, 0.55)
        for _ in range(10):
            pl, pr = rng.normal(0, 1, (2, 3))
            ql, qr = rng.normal(0, 1, (2, 3))
            one = h1_matrix_element(rep, 0.6, pl, ql, pr, qr)
            two = h1_matrix_element(rep, 0.6, pr, qr, pl, ql)
            assert one == pytest.approx(np.conj(two), rel=1e-12)

    @pytest.mark.parametrize("q_right", [1e100, -1e100])
    def test_h1_element_fails_closed(self, q_right):
        # the brace overflows to inf while the overlap underflows to 0
        with pytest.raises(NumericError, match="non-finite H1 matrix element"):
            h1_matrix_element(ReducibleRep(1, 1.0, 0.5), 1.0, [1.0], [1e100], [1.0], [q_right])

    def test_ladder_element_fails_closed(self):
        rep = ReducibleRep(1, 1.0, 0.5)
        with pytest.raises(NumericError, match="non-finite ladder matrix element"):
            matrix_element(h_p_operator(rep), rep, [1e200], [1.0], [1e200], [1.0])


class TestOverlap:
    def test_normalization(self):
        rep = ReducibleRep(2, 1.0, 0.7)
        p = np.array([0.5, -0.5])
        q = np.array([1.0, 2.0])
        assert overlap_reducible(rep, p, q, p, q) == pytest.approx(1.0, abs=1e-14)

    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(-5, 5), st.floats(0.01, 5), st.floats(-5, 5), st.floats(0.01, 5),
        st.floats(0, 0.95), st.floats(0.2, 3),
    )
    def test_modulus_bounded_by_one(self, pl, ql, pr, qr, zeta, m):
        rep = ReducibleRep(1, m, zeta)
        val = abs(overlap_reducible(rep, [pl], [ql], [pr], [qr]))
        assert val <= 1.0 + 1e-14
        # strictly below one once the points are separated beyond float noise
        if max(abs(pl - pr), abs(ql - qr)) > 1e-6:
            assert val < 1.0

    def test_zeta_zero_is_irreducible_overlap(self):
        rep = ReducibleRep(1, 1.7, 0.0)
        pl, ql, pr, qr = 0.3, 1.2, -0.4, 0.8
        got = overlap_reducible(rep, [pl], [ql], [pr], [qr])
        m, hbar = rep.m, rep.hbar
        want = np.exp(
            1j * (pl + pr) * (ql - qr) / (2 * hbar)
            - ((pl - pr) ** 2 / m + m * (ql - qr) ** 2) / (4 * hbar)
        )
        assert got == pytest.approx(want, rel=1e-14)

    def test_continuity_to_irreducible(self):
        args = ([0.3], [1.2], [-0.4], [0.8])
        base = overlap_reducible(ReducibleRep(1, 1.0, 0.0), *args)
        deviations = [
            abs(overlap_reducible(ReducibleRep(1, 1.0, z), *args) - base)
            for z in (0.3, 0.1, 0.03, 0.01)
        ]
        assert all(b < a for a, b in zip(deviations, deviations[1:]))

    @pytest.mark.parametrize("zeta", [0.3, 0.6, 0.9])
    def test_against_gaussian_double_integral(self, zeta):
        rng = np.random.default_rng(int(zeta * 100))
        rep = ReducibleRep(1, 1.0, zeta)
        for _ in range(20):
            pl, pr = rng.normal(0, 1.5, 2)
            ql, qr = rng.normal(0, 1.5, 2)
            closed = overlap_reducible(rep, [pl], [ql], [pr], [qr])
            quad = quadrature_overlap(1.0, zeta, 1.0, pl, ql, pr, qr)
            assert abs(closed - quad) <= 1e-8


class TestCharacteristic:
    def test_exact_gaussian_values(self):
        assert characteristic_exact_gaussian(0.0, 1.0) == 1.0
        assert characteristic_exact_gaussian(2.0, 1.0) == pytest.approx(math.exp(-1))
        values = [characteristic_exact_gaussian(p, 1.3) for p in (0, 0.5, 1, 2, 4)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_radial_density_normalized(self):
        for n in (4, 16, 64):
            gaussian_radial_density(n, 1.0).require_normalized()

    def test_unnormalized_density_rejected(self):
        density = RadialDensity(lambda r: np.exp(-(r**2)), 4, 10.0)
        with pytest.raises(PreconditionError):
            characteristic_radial(density, 1.0)

    def test_one_rule_per_process(self):
        # the normalization check runs on the rule the integral uses
        _gauss_legendre.cache_clear()
        characteristic_radial(gaussian_radial_density(8, 1.0), 1.0)
        assert _gauss_legendre.cache_info().currsize == 1

    def test_small_n_rejected(self):
        with pytest.raises(DomainError):
            characteristic_radial(gaussian_radial_density(2, 1.0), 1.0)

    def test_zero_momentum_is_one(self):
        res = characteristic_radial(gaussian_radial_density(8, 1.0), 0.0)
        assert res.exact == pytest.approx(1.0, abs=1e-8)
        assert res.descent == pytest.approx(1.0, abs=1e-8)

    def test_exact_matches_closed_form_for_gaussian(self):
        for n in (4, 16, 64):
            res = characteristic_radial(gaussian_radial_density(n, 1.0), 1.0)
            assert res.exact == pytest.approx(math.exp(-0.25), abs=1e-8)

    def test_nan_density_rejected(self):
        density = RadialDensity(lambda r: np.full_like(r, np.nan), 4, 10.0)
        with pytest.raises(PreconditionError):
            density.require_normalized()
        with pytest.raises(PreconditionError):
            characteristic_radial(density, 1.0)

    def test_solid_angle_in_high_dimension(self):
        assert solid_angle(3) == pytest.approx(4 * math.pi, rel=1e-14)
        assert 0.0 <= solid_angle(400) < 1e-100
        assert solid_angle(4000) == 0.0

    @pytest.mark.parametrize("n", [256, 400])
    def test_large_n_normalized_and_exact(self, n):
        density = gaussian_radial_density(n, 1.0)
        assert abs(density.normalization() - 1.0) < 2e-13
        res = characteristic_radial(density, 1.0)
        assert res.exact == pytest.approx(math.exp(-0.25), abs=5e-14)

    @pytest.mark.parametrize("p_r", [0.5, 1.0, 2.0])
    def test_descent_error_monotone_in_n(self, p_r):
        errors = [
            characteristic_radial(gaussian_radial_density(n, 1.0), p_r).difference
            for n in (4, 8, 16, 32, 64, 128, 256, 400, 700, 1024, 4096)
        ]
        assert all(b < a for a, b in zip(errors, errors[1:]))

    @pytest.mark.parametrize("n", [3, 4, 8, 16, 64, 128, 256])
    def test_series_matches_kernel_oracle(self, n):
        density = gaussian_radial_density(n, 1.0)
        for p_r in (0.0, 0.5, 1.0, 2.0, 5.0):
            want = characteristic_kernel(density, p_r).real
            assert abs(characteristic_radial(density, p_r).exact - want) <= 1e-13

    def test_series_matches_kernel_for_non_gaussian_density(self):
        # rho ~ exp(-r^4), normalized by int_0^inf exp(-r^4) r^(N-1) dr = Gamma(N/4)/4;
        # only rho is given, so the weights take its log
        n = 5
        norm = 4 / (solid_angle(n) * math.gamma(n / 4))
        density = RadialDensity(lambda r: norm * np.exp(-(r**4)), n, 4.0)
        for p_r in (0.0, 0.5, 1.0, 2.0, 5.0):
            want = characteristic_kernel(density, p_r).real
            assert abs(characteristic_radial(density, p_r).exact - want) <= 1e-13

    def test_nan_momentum_raises(self):
        with pytest.raises(AccuracyError, match="not finite"):
            characteristic_radial(gaussian_radial_density(4, 1.0), float("nan"))

    def test_nan_weight_stops_series(self):
        z = np.linspace(0.0, 4.0, 9)
        w = np.full(9, 0.1)
        w[4] = np.nan
        with pytest.raises(AccuracyError, match="not finite"):
            _angular_series(2.0, z, w)

    def test_momentum_overflowing_series_raises(self):
        # p_r^2 and z = p_r^2 r^2 / 4 are finite; the second term overflows
        with pytest.raises(AccuracyError, match="not finite"):
            characteristic_radial(gaussian_radial_density(4, 1.0), 1e150)

    def test_cancellation_bound_stops_large_momentum(self):
        # the bound is eps exp(p_r^2 / 4) for this density: 4.6e-11 at p_r = 7
        density = gaussian_radial_density(4, 1.0)
        characteristic_radial(density, 7.0)
        with pytest.raises(AccuracyError, match="cancellation"):
            characteristic_radial(density, 7.5)


class TestMeasureSuperposition:
    def test_single_atom_reproduces_free_system(self):
        m_prime = 1.0
        for p_r in (0.0, 0.5, 1.0, 2.0):
            got = measure_superposition([(1 / (4 * m_prime), 1.0)], p_r)
            assert got == pytest.approx(
                characteristic_exact_gaussian(p_r, m_prime), rel=1e-12
            )

    def test_two_atoms_average(self):
        val = measure_superposition([(0.2, 0.5), (0.6, 0.5)], 1.3)
        want = 0.5 * math.exp(-0.2 * 1.3**2) + 0.5 * math.exp(-0.6 * 1.3**2)
        assert val == pytest.approx(want, rel=1e-14)

    def test_zero_momentum_is_one(self):
        assert measure_superposition([(0.1, 0.3), (0.4, 0.7)], 0.0) == 1.0

    def test_unnormalized_weights_rejected(self):
        with pytest.raises(PreconditionError):
            measure_superposition([(0.2, 0.4)], 1.0)

    def test_nan_weights_rejected(self):
        with pytest.raises(PreconditionError):
            measure_superposition([(0.2, 0.5), (0.4, float("nan"))], 1.0)
        with pytest.raises(DomainError):
            measure_superposition([(float("nan"), 1.0)], 1.0)

    def test_infinite_atom_rejected(self):
        with pytest.raises(DomainError, match="b=inf"):
            measure_superposition([(float("inf"), 1.0)], 0.0)

    def test_momentum_overflow_is_numeric_error(self):
        with pytest.raises(NumericError):
            measure_superposition([(0.25, 1.0)], 1e300)
        with pytest.raises(NumericError):
            characteristic_exact_gaussian(1e300, 1.0)
