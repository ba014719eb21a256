"""Operator expressions and the canonical/affine symbol maps."""

import numpy as np
import pytest

from oracles import kinetic_dilation_quadrature

from cslab.errors import ConfigError, DomainError, PreconditionError
from cslab.grids import uniform_grid
from cslab.states import affine_fiducial, gaussian_fiducial
from cslab.symbols import (
    D,
    X,
    compute_C,
    parse_operator,
    symbol_quadrature_affine,
    symbol_quadrature_canonical,
    weak_symbol,
)


class TestOperatorExpr:
    def test_parse_round_trip(self):
        op = parse_operator("1.0 * D X D + 0.5 * X^2")
        assert op.terms[0][1] == (D(), X(1), D())
        assert op.terms[1][1] == (X(2),)

    def test_parse_rejects_garbage(self):
        for bad in ("D X", "1.0 * Y", "1.0 * X^0", "* X", "one * X"):
            with pytest.raises((ConfigError, DomainError)):
                parse_operator(bad)

    def test_factor_order_is_preserved(self):
        dxd = parse_operator("1.0 * D X D")
        xdd = parse_operator("1.0 * X D D")
        assert dxd.terms != xdd.terms

    def test_hermiticity_detection(self):
        assert parse_operator("1.0 * D X D").is_hermitian()
        assert parse_operator("0.5 * D D + 0.5 * X X").is_hermitian()
        assert not parse_operator("1.0 * X D").is_hermitian()
        # symmetrized combination is Hermitian again
        assert parse_operator("1.0 * X D + 1.0 * D X").is_hermitian()


class TestCanonicalSymbols:
    @pytest.mark.parametrize("omega,hbar", [(1.0, 1.0), (2.0, 1.0), (0.5, 0.25)])
    def test_harmonic_oscillator(self, omega, hbar):
        op = parse_operator(f"0.5 * D D + {0.5 * omega**2} * X X")
        s = weak_symbol(op, gaussian_fiducial(omega, hbar))
        assert s.closed_form
        for p, q in [(0, 0), (1, 1), (-2, 0.3)]:
            want = 0.5 * (p**2 + omega**2 * q**2) + 0.5 * hbar * omega
            assert s(p, q) == pytest.approx(want, abs=1e-12)

    def test_kinetic_alone(self):
        s = weak_symbol(parse_operator("0.5 * D D"), gaussian_fiducial(2.0, 1.0))
        assert s.poly == pytest.approx({(2, 0): 0.5, (0, 0): 0.5})

    def test_position_is_q(self):
        s = weak_symbol(parse_operator("1.0 * X"), gaussian_fiducial(1.0, 1.0))
        assert s(3.7, -1.2) == pytest.approx(-1.2, abs=1e-14)

    def test_ordered_dxd_canonical(self):
        # hand-computed: <(p+D)(q+x)(p+D)> = q p^2 + (hbar omega / 2) q
        omega, hbar = 1.5, 0.7
        s = weak_symbol(parse_operator("1.0 * D X D"), gaussian_fiducial(omega, hbar))
        assert s.poly == pytest.approx({(2, 1): 1.0, (0, 1): hbar * omega / 2})

    def test_non_hermitian_real_part(self):
        # X D D has symbol q p^2 + q hbar omega / 2 + i hbar p; the
        # symbol keeps the real part
        omega, hbar = 1.0, 1.0
        s = weak_symbol(parse_operator("1.0 * X D D"), gaussian_fiducial(omega, hbar))
        assert s(1.0, 2.0) == pytest.approx(2.0 + 2.0 * hbar * omega / 2)

    def test_linearity_closed_form(self):
        f = gaussian_fiducial(1.3, 0.9)
        op1 = parse_operator("1.0 * D D")
        op2 = parse_operator("1.0 * X X")
        combined = weak_symbol(op1.scaled(0.7) + op2.scaled(-0.2), f)
        s1 = weak_symbol(op1, f)
        s2 = weak_symbol(op2, f)
        rng = np.random.default_rng(0)
        for _ in range(20):
            p, q = rng.normal(0, 2, 2)
            assert combined(p, q) == pytest.approx(
                0.7 * s1(p, q) - 0.2 * s2(p, q), abs=1e-12
            )

    def test_gradient_matches_central_differences(self):
        f = gaussian_fiducial(1.0, 1.0)
        s = weak_symbol(parse_operator("1.0 * D X D + 0.3 * X^4"), f)
        rng = np.random.default_rng(1)
        for _ in range(100):
            p, q = rng.normal(0, 2, 2)
            h = (1 + abs(p) + abs(q)) * 1e-5
            dp_fd = (s(p + h, q) - s(p - h, q)) / (2 * h)
            dq_fd = (s(p, q + h) - s(p, q - h)) / (2 * h)
            dp, dq = s.grad(p, q)
            scale = 1 + abs(dp) + abs(dq)
            assert abs(dp - dp_fd) <= 1e-6 * scale
            assert abs(dq - dq_fd) <= 1e-6 * scale

    def test_quadrature_agrees_with_closed_form(self):
        f = gaussian_fiducial(1.0, 1.0)
        grid_a = uniform_grid(-12, 12, 4097)
        grid_b = uniform_grid(-12, 12, 8193)
        for text in ("1.0 * X", "1.0 * X^2", "0.5 * D D", "1.0 * D X D",
                     "0.5 * D D + 0.5 * X X", "1.0 * D X^2 D"):
            op = parse_operator(text)
            closed = weak_symbol(op, f)
            for p, q in [(0.0, 0.5), (1.0, 1.0), (-0.7, 2.0)]:
                coarse = symbol_quadrature_canonical(op, f, p, q, grid_a)
                fine = symbol_quadrature_canonical(op, f, p, q, grid_b)
                extrapolated = ((4 * fine - coarse) / 3).real
                assert extrapolated == pytest.approx(
                    closed(p, q), rel=1e-8, abs=1e-10
                ), text

    def test_high_degree_closed_form_against_grid_quadrature(self):
        # degrees above 4 used to leave the closed form for a grid route
        # that could not converge; a finer grid quadrature is the oracle
        op = parse_operator("1.0 * X^3 D D D D D D X^3")
        f = gaussian_fiducial(1.0, 1.0)
        closed = weak_symbol(op, f)
        assert closed.closed_form
        grid_a = uniform_grid(-12, 12, 16385)
        grid_b = uniform_grid(-12, 12, 32769)
        for p, q in [(0.0, 0.5), (0.7, -1.0), (1.0, 2.0)]:
            coarse = symbol_quadrature_canonical(op, f, p, q, grid_a)
            fine = symbol_quadrature_canonical(op, f, p, q, grid_b)
            assert ((4 * fine - coarse) / 3).real == pytest.approx(closed(p, q), rel=1e-9)


class TestAffineSymbols:
    @pytest.mark.parametrize("beta,hbar", [(1.0, 1.0), (2.0, 1.0), (1.0, 0.5)])
    def test_dxd_symbol(self, beta, hbar):
        f = affine_fiducial(beta, hbar)
        s = weak_symbol(parse_operator("1.0 * D X D"), f)
        c = hbar * beta / 2
        assert s.poly == pytest.approx({(2, 1): 1.0, (0, -1): c})

    def test_dxd_value_example(self):
        f = affine_fiducial(1.0, 1.0)
        s = weak_symbol(parse_operator("1.0 * D X D"), f)
        assert s(1.0, 2.0) == pytest.approx(2.25, abs=1e-12)

    def test_position_is_q(self):
        s = weak_symbol(parse_operator("1.0 * X"), affine_fiducial(1.0, 1.0))
        assert s(5.0, 0.7) == pytest.approx(0.7, abs=1e-14)

    def test_domain_restricted(self):
        s = weak_symbol(parse_operator("1.0 * X"), affine_fiducial(1.0, 1.0))
        with pytest.raises(DomainError):
            s(0.0, -1.0)

    def test_quadrature_agrees_with_closed_form(self):
        for beta, hbar in [(1.0, 1.0), (2.5, 1.0)]:
            f = affine_fiducial(beta, hbar)
            for text in ("1.0 * X", "1.0 * X^2", "1.0 * D X D",
                         "1.0 * D X^2 D", "0.3 * D X D + 0.2 * X",
                         "1.0 * X^3 D D D D D D X^3"):
                op = parse_operator(text)
                closed = weak_symbol(op, f)
                for p, q in [(0.0, 0.5), (1.0, 1.0), (-0.7, 2.0)]:
                    got = symbol_quadrature_affine(op, f, p, q).real
                    assert got == pytest.approx(closed(p, q), rel=1e-8), text

    def test_divergent_moment_rejected(self):
        # the bare squared-momentum map probes <x^-2>, which diverges at
        # beta/hbar = 1 (the kinetic integral int |xi'|^2 is log-divergent)
        f = affine_fiducial(1.0, 1.0)
        with pytest.raises(DomainError):
            weak_symbol(parse_operator("1.0 * D D"), f)
        # at beta/hbar = 2 the same moment exists
        s = weak_symbol(parse_operator("1.0 * D D"), affine_fiducial(2.0, 1.0))
        assert s.poly[(2, 0)] == pytest.approx(1.0)
        # above degree 4 as well: D^6 probes <x^-6>, finite only for beta/hbar > 3
        with pytest.raises(DomainError):
            weak_symbol(parse_operator("1.0 * D D D D D D"), affine_fiducial(3.0, 1.0))
        s = weak_symbol(parse_operator("1.0 * D D D D D D"), affine_fiducial(3.5, 1.0))
        assert s.poly[(6, 0)] == pytest.approx(1.0)


class TestComputeC:
    @pytest.mark.parametrize(
        "beta,hbar,expected", [(1.0, 1.0, 0.5), (2.0, 1.0, 1.0), (1.0, 0.5, 0.25)]
    )
    def test_values(self, beta, hbar, expected):
        f = affine_fiducial(beta, hbar)
        assert compute_C(f) == expected
        assert kinetic_dilation_quadrature(f) == pytest.approx(compute_C(f), rel=1e-8)

    def test_scaling_in_beta_over_hbar(self):
        # C / hbar^2 depends on beta and hbar only through beta/(2 hbar)
        for beta, hbar in [(2.0, 2.0), (3.0, 1.5), (4.0, 2.0)]:
            f = affine_fiducial(beta, hbar)
            assert compute_C(f) / hbar**2 == pytest.approx(beta / (2 * hbar), rel=1e-12)
            assert kinetic_dilation_quadrature(f) == pytest.approx(compute_C(f), rel=1e-8)

    def test_requires_affine(self):
        with pytest.raises(PreconditionError):
            compute_C(gaussian_fiducial(1.0, 1.0))


class TestHbarLimit:
    # the symbol is exact, so H_hbar - H_classical is checked value by value
    # down the hbar ladder: hbar omega / 2 for the oscillator, 0 for X, and
    # hbar beta / (2 q) for D X D on the affine sheet
    @pytest.mark.parametrize(
        "text,fiducial,classical,p,q,per_hbar",
        [
            pytest.param("0.5 * D D + 0.5 * X X", lambda hb: gaussian_fiducial(1.0, hb),
                         lambda p, q: 0.5 * (p**2 + q**2), 1.0, 1.0, 0.5, id="harmonic"),
            pytest.param("1.0 * X", lambda hb: gaussian_fiducial(1.0, hb),
                         lambda p, q: q, 0.3, -0.8, 0.0, id="position"),
            pytest.param("1.0 * D X D", lambda hb: affine_fiducial(1.0, hb),
                         lambda p, q: q * p**2, 1.0, 2.0, 0.25, id="affine-dxd"),
        ],
    )
    def test_residual_is_linear_in_hbar(self, text, fiducial, classical, p, q, per_hbar):
        op = parse_operator(text)
        for hb in (1.0, 0.5, 0.25, 0.125):
            residual = weak_symbol(op, fiducial(hb))(p, q) - classical(p, q)
            assert residual == pytest.approx(per_hbar * hb, rel=1e-12)
