"""H1 of the quartic model, reducible overlaps and characteristic functions."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cslab.errors import AccuracyError, DomainError, NumericError, PreconditionError
from cslab.modeltwo import (
    ReducibleRep,
    characteristic_exact_gaussian,
    characteristic_radial,
    gaussian_radial_density,
    h1_closed_form,
    h1_expectation,
    h1_matrix_element,
    h1_operator,
    match_target,
    measure_superposition,
    overlap_reducible,
    scenario_record,
)


from oracles import (
    characteristic_kernel,
    gaussian_radial_rule,
    h1_terms,
    ladder_evaluate,
    ladder_hermitian,
    quadrature_expectations,
    quadrature_overlap,
)


def _eigenvalues(rep, p, q):
    """(alpha, beta) of the displaced state at (p, q), as ``ladder_evaluate`` takes them."""
    p, q = np.atleast_1d(p), np.atleast_1d(q)
    return rep.alpha(p, q), rep.beta(q)


class TestDisplacedExpectation:
    """<p,q| H1 |p,q> against quadrature and at values that do not fit a float."""

    @pytest.mark.parametrize("m,zeta,hbar", [(1, 0.3, 1), (2, 0.6, 1), (1, 0.9, 0.5)])
    def test_wick_engine_against_quadrature(self, m, zeta, hbar):
        # at N = 1 the terms of H1 are H_p, H_r and nu B+B+BB, in that order
        rep = ReducibleRep(1, m, zeta, hbar)
        p, q = 0.8, -1.1
        h_p_quad, h_r_quad, quartic_quad = quadrature_expectations(m, zeta, hbar, p, q)
        terms = h1_operator(rep, 1.0).terms
        at = _eigenvalues(rep, p, q)
        pieces = [ladder_evaluate([term], *at, *at)[0] for term in terms]
        assert [piece.real for piece in pieces] == pytest.approx(
            [h_p_quad, h_r_quad, quartic_quad], abs=1e-6
        )
        for nu in (0.0, 1.0):
            want = h_p_quad + h_r_quad + nu * quartic_quad
            assert h1_expectation(rep, nu, [p], [q]) == pytest.approx(want, abs=1e-6)

    def test_wrong_vector_length_rejected(self):
        rep = ReducibleRep(3, 1.0, 0.2)
        with pytest.raises(DomainError):
            h1_expectation(rep, 0.5, [1.0], [1.0])
        with pytest.raises(DomainError):
            h1_matrix_element(rep, 0.5, [1.0] * 3, [1.0] * 3, [1.0], [1.0])

    def test_nan_residue_of_hermitian_polynomial_raises(self):
        # a NaN eigenvalue makes the imaginary part NaN too; the value is
        # reported as non-finite, not as an imaginary residue
        rep = ReducibleRep(2, 1.0, 0.5)
        with pytest.raises(NumericError, match="non-finite H1 expectation") as info:
            h1_expectation(rep, 1.0, [math.nan, 0.0], [0.3, 1.0])
        assert not isinstance(info.value, AccuracyError)

    def test_non_finite_values_are_numeric_errors(self):
        rep = ReducibleRep(1, 1.0, 0.5)
        points = [
            (0.0, 1e200),  # |a_0|^2 and |b_0|^2 overflow
            (1e200, 1.0),  # |a_0|^2 overflows
            (math.inf, 1.0),
            (1.0, 1e100),  # H_r is finite, 4 nu H_r H_r is not
        ]
        for p, q in points:
            # the expanded terms do not fit a float either: the value overflows, not the route
            at = _eigenvalues(rep, p, q)
            with np.errstate(over="ignore", invalid="ignore"):
                expanded, _ = ladder_evaluate(h1_terms(1, 1.0), *at, *at)
            assert not math.isfinite(expanded.real)
            with pytest.raises(NumericError, match="non-finite H1 expectation"):
                h1_expectation(rep, 1.0, [p], [q])


class TestCompiledEngine:
    """H1's explicit terms and its pair-sum route against the independent
    loops in tests/oracles.py."""

    @pytest.mark.parametrize("n", [1, 2, 7, 40])
    def test_h1_operator_term_count(self, n):
        assert len(h1_operator(ReducibleRep(n, 1.0, 0.5), 0.3).terms) == 2 * n + n * n

    @pytest.mark.parametrize("n", [1, 3, 12])
    def test_h1_operator_matches_term_list(self, n):
        rng = np.random.default_rng(n)
        rep = ReducibleRep(n, 1.3, 0.6)
        terms = h1_operator(rep, 0.7).terms
        assert ladder_hermitian(terms) and ladder_hermitian(h1_terms(n, 0.7))
        pl, ql, pr, qr = rng.normal(0, 1, (4, n))
        at = (*_eigenvalues(rep, pl, ql), *_eigenvalues(rep, pr, qr))
        want, size = ladder_evaluate(h1_terms(n, 0.7), *at)
        got, _ = ladder_evaluate(terms, *at)
        assert abs(got - want) <= 1e-12 * size

    @pytest.mark.parametrize("n", [1, 3, 12])
    def test_h1_pair_sums_match_expanded_operator(self, n):
        rng = np.random.default_rng(100 + n)
        rep = ReducibleRep(n, 1.3, 0.6)
        terms = h1_operator(rep, 0.7).terms
        pl, ql, pr, qr = rng.normal(0, 1, (4, n))
        left, right = _eigenvalues(rep, pl, ql), _eigenvalues(rep, pr, qr)

        want, size = ladder_evaluate(terms, *left, *right)
        overlap = overlap_reducible(rep, pl, ql, pr, qr)
        got = h1_matrix_element(rep, 0.7, pl, ql, pr, qr)
        assert abs(got - want * overlap) <= 1e-12 * size * abs(overlap)

        want, size = ladder_evaluate(terms, *left, *left)
        assert abs(h1_expectation(rep, 0.7, pl, ql) - want) <= 1e-12 * size


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

    def test_small_n_computes(self):
        # N = 1 and 2 were rejected while the exact value came from an
        # angular series that needed N >= 3
        for n in (1, 2):
            for p_r in (0.5, 1.0, 3.0):
                z = p_r**2 / 4
                res = characteristic_radial(gaussian_radial_density(n, 1.0), p_r)
                assert res.exact == pytest.approx(math.exp(-z), rel=1e-15)
                assert res.descent == pytest.approx((1 + 2 * z / n) ** (-n / 2), rel=1e-15)
        # the kernel oracle's angular rule takes N = 2, not N = 1
        assert abs(res.exact - characteristic_kernel(2, 1.0, 3.0).real) <= 1e-13

    @pytest.mark.parametrize("n, m_prime, hbar, named", [
        (0, 1.0, 1.0, "N = 0"),
        (-3, 1.0, 1.0, "N = -3"),
        (4, 0.0, 1.0, "m_prime = 0.0"),
        (4, math.inf, 1.0, "m_prime = inf"),
        (4, math.nan, 1.0, "m_prime = nan"),
        (4, 1.0, 0.0, "hbar = 0.0"),
        (4, 1.0, -1.0, "hbar = -1.0"),
        (4, 1.0, math.nan, "hbar = nan"),
    ])
    def test_density_rejects_what_it_cannot_take(self, n, m_prime, hbar, named):
        with pytest.raises(DomainError, match=named):
            gaussian_radial_density(n, m_prime, hbar)

    def test_zero_momentum_is_one(self):
        res = characteristic_radial(gaussian_radial_density(8, 1.0), 0.0)
        assert res.exact == pytest.approx(1.0, abs=1e-8)
        assert res.descent == pytest.approx(1.0, abs=1e-8)

    def test_exact_matches_closed_form_for_gaussian(self):
        for n in (4, 16, 64):
            res = characteristic_radial(gaussian_radial_density(n, 1.0), 1.0)
            assert res.exact == pytest.approx(math.exp(-0.25), abs=1e-8)

    @pytest.mark.parametrize("n", [256, 400])
    def test_large_n_normalized_and_exact(self, n):
        # the density is normalized by construction: nothing is summed
        res = characteristic_radial(gaussian_radial_density(n, 1.0), 1.0)
        assert res.exact == pytest.approx(math.exp(-0.25), abs=5e-14)

    @pytest.mark.parametrize("p_r", [0.5, 1.0, 2.0])
    def test_descent_error_monotone_in_n(self, p_r):
        errors = [
            characteristic_radial(gaussian_radial_density(n, 1.0), p_r).difference
            for n in (4, 8, 16, 32, 64, 128, 256, 400, 700, 1024, 4096)
        ]
        assert all(b < a for a, b in zip(errors, errors[1:]))

    @pytest.mark.parametrize("n", [16, 64, 256, 1000])
    def test_difference_falls_as_one_over_n(self, n):
        # exact - descent = z^2 exp(-z) / N (1 + O(1/N)); N |ratio - 1| reads
        # about 0.08, 0.30 and 0.83 at z = 1/16, 1/4 and 1
        for p_r in (0.5, 1.0, 2.0):
            z = p_r**2 / 4
            res = characteristic_radial(gaussian_radial_density(n, 1.0), p_r)
            assert abs(n * res.difference / (z**2 * math.exp(-z)) - 1) <= 1 / n

    @pytest.mark.parametrize("n", [3, 4, 8, 16, 64, 128, 256])
    def test_series_matches_kernel_oracle(self, n):
        # named for the 0F1 series it checked; it now checks exp(-z)
        density = gaussian_radial_density(n, 1.0)
        for p_r in (0.0, 0.5, 1.0, 2.0, 5.0):
            want = characteristic_kernel(n, 1.0, p_r).real
            assert abs(characteristic_radial(density, p_r).exact - want) <= 1e-13

    @pytest.mark.parametrize("n", [3, 16, 64, 256, 1000])
    def test_descent_matches_radial_rule(self, n):
        # the descent is the radial integral of exp(-p_r^2 r^2 / 2N hbar^2)
        m_prime, hbar = 2.0, 0.5
        r, w = gaussian_radial_rule(n, m_prime, hbar)
        density = gaussian_radial_density(n, m_prime, hbar)
        for p_r in (0.5, 1.0, 2.0, 3.0, 6.0):
            want = w @ np.exp(-(p_r**2) * r**2 / (2 * n * hbar**2)) / np.sum(w)
            assert abs(characteristic_radial(density, p_r, hbar).descent - want) <= 1e-13

    def test_nan_momentum_raises(self):
        with pytest.raises(NumericError, match="p_r = nan"):
            characteristic_radial(gaussian_radial_density(4, 1.0), float("nan"))

    def test_momentum_overflow_and_tiny_hbar(self):
        # p_r^2 overflows; a tiny hbar sends z to inf, not through a zero divisor
        with pytest.raises(NumericError, match="overflows"):
            characteristic_radial(gaussian_radial_density(4, 1.0), 1e300)
        res = characteristic_radial(gaussian_radial_density(4, 1e-10, 1e-320), 1.0, 1e-320)
        assert (res.exact, res.descent) == (0.0, 0.0)


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
