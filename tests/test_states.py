"""Fiducial construction, coherent transport and physical centering."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from oracles import (
    ORACLE_LABEL_ATOL,
    coherent_density,
    density_labels,
    tangent_multipliers,
)

from cslab.cli import SUBCOMMANDS
from cslab.errors import DomainError
from cslab.grids import (
    dilation_expectation,
    half_line_grid,
    inner_product,
    momentum_expectation,
    position_moment,
    uniform_grid,
)
from cslab.states import (
    AFFINE_DOMAIN,
    CANONICAL_DOMAIN,
    CoherentFamily,
    PhasePoint,
    affine_coherent,
    affine_fiducial,
    affine_values,
    canonical_coherent,
    coherent_moments,
    default_affine_grid,
    default_canonical_grid,
    fiducial_moment,
    fiducial_wavefunction,
    gaussian_fiducial,
    gaussian_values,
    state_labels,
    verify_centering,
)
from cslab.symbols import parse_operator, weak_symbol


class TestFiducials:
    def test_gaussian_unit_norm(self):
        for omega, hbar in [(1, 1), (2, 1), (0.5, 0.25)]:
            wf = fiducial_wavefunction(gaussian_fiducial(omega, hbar))
            assert abs(wf.norm() - 1) < 1e-10

    def test_affine_unit_norm_and_first_moment(self):
        for beta, hbar in [(1, 1), (2, 1), (1, 0.5)]:
            f = affine_fiducial(beta, hbar)
            wf = fiducial_wavefunction(f)
            assert abs(wf.norm() - 1) < 1e-8
            assert position_moment(wf, 1) == pytest.approx(1.0, abs=1e-8)

    def test_affine_first_moment_gamma_oracle(self):
        # independent check of <x> = 1: direct adaptive quadrature of
        # M^2 x^(2b) exp(-2bx) with M fixed by the unit-norm condition
        beta, hbar = 1.3, 0.9
        b = beta / hbar
        m2 = math.exp(2 * b * math.log(2 * b) - math.lgamma(2 * b))
        val, _ = quad(lambda x: m2 * x ** (2 * b) * math.exp(-2 * b * x), 0, np.inf)
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_small_beta_rejected(self):
        with pytest.raises(DomainError):
            affine_fiducial(0.5, 1.0)

    def test_affine_phase_point_requires_positive_q(self):
        with pytest.raises(DomainError):
            PhasePoint(0.0, -1.0, domain=AFFINE_DOMAIN)

    def test_affine_phase_point_rejects_nan_q(self):
        # NaN <= 0 is False, so the guard must be written to fail on NaN
        with pytest.raises(DomainError):
            PhasePoint(0.0, float("nan"), domain=AFFINE_DOMAIN)


class TestCanonicalTransport:
    def test_zero_point_is_the_fiducial(self):
        f = gaussian_fiducial(1.0, 1.0)
        base = fiducial_wavefunction(f)
        state = canonical_coherent(f, PhasePoint(0.0, 0.0), grid=base.grid)
        assert np.allclose(state.values, base.values, atol=0, rtol=0)

    def test_labels_read_back(self):
        f = gaussian_fiducial(1.0, 1.0)
        pt = PhasePoint(-1.3, 2.5)
        p_read, q_read = state_labels(f, pt)
        assert q_read == pytest.approx(2.5, abs=1e-8)
        assert p_read == pytest.approx(-1.3, abs=1e-8)

    @pytest.mark.parametrize("p,q", [(0.7, -1.2), (-2.0, 0.4), (1.5, 3.0)])
    def test_transport_preserves_norm(self, p, q):
        f = gaussian_fiducial(2.0, 0.7)
        state = canonical_coherent(f, PhasePoint(p, q))
        assert abs(state.norm() - 1) < 1e-10

    def test_gaussian_overlap_oracle(self):
        # |<eta_00|eta_pq>|^2 = exp(-(p^2/w + w q^2) / 2 hbar)
        omega, hbar = 1.7, 0.8
        f = gaussian_fiducial(omega, hbar)
        grid = uniform_grid(-18, 18, 6001)
        rng = np.random.default_rng(7)
        for _ in range(5):
            p, q = rng.normal(0, 1.2, 2)
            s0 = canonical_coherent(f, PhasePoint(0, 0), grid=grid)
            s1 = canonical_coherent(f, PhasePoint(p, q), grid=grid)
            got = abs(inner_product(s0, s1)) ** 2
            want = math.exp(-(p**2 / omega + omega * q**2) / (2 * hbar))
            assert got == pytest.approx(want, abs=1e-8)

    def test_group_composition_returns_labels(self):
        f = gaussian_fiducial(0.8, 1.3)
        rng = np.random.default_rng(3)
        for _ in range(8):
            p, q = rng.normal(0, 2.0, 2)
            pt = PhasePoint(p, q)
            p_read, q_read = state_labels(f, pt)
            assert abs(p_read - p) < 1e-7
            assert abs(q_read - q) < 1e-7

    @pytest.mark.parametrize("q", [1.5, np.nan])
    def test_coverage_error(self, q):
        # a NaN q used to return an all-NaN state
        f = gaussian_fiducial(1.0, 1.0)
        small = uniform_grid(-2, 2, 501)
        with pytest.raises(DomainError, match="does not cover"):
            canonical_coherent(f, PhasePoint(0.0, q), grid=small)


class TestAffineTransport:
    def test_unit_point_is_the_fiducial(self):
        f = affine_fiducial(1.0, 1.0)
        grid = default_affine_grid(f)
        base = fiducial_wavefunction(f, grid)
        state = affine_coherent(f, PhasePoint(0.0, 1.0, domain=AFFINE_DOMAIN), grid=grid)
        assert np.allclose(state.values, base.values, atol=0, rtol=0)

    @pytest.mark.parametrize("u", [0.0, -1.0, np.nan])
    def test_fiducial_values_off_the_half_line_rejected(self, u):
        # a NaN abscissa used to give a NaN value
        with pytest.raises(DomainError, match="affine fiducial is defined for x > 0 only"):
            affine_values(1.0, 1.0, np.array([u, 1.0]))

    def test_position_moment_is_q(self):
        f = affine_fiducial(1.0, 1.0)
        state = affine_coherent(f, PhasePoint(0.0, 3.0, domain=AFFINE_DOMAIN))
        assert position_moment(state, 1) == pytest.approx(3.0, abs=1e-7)

    def test_dilation_moment_is_pq(self):
        f = affine_fiducial(1.0, 1.0)
        pt = PhasePoint(2.0, 3.0, domain=AFFINE_DOMAIN)
        p_read, q_read = state_labels(f, pt)
        assert p_read * q_read == pytest.approx(6.0, abs=1e-6)
        # finite-difference route agrees at its looser accuracy
        dil_fd = dilation_expectation(affine_coherent(f, pt))
        assert dil_fd == pytest.approx(6.0, abs=1e-4)

    def test_negative_q_rejected(self):
        f = affine_fiducial(1.0, 1.0)
        with pytest.raises(DomainError):
            affine_coherent(f, PhasePoint(0.0, -2.0))
        # a canonical point is rejected even at q > 0
        with pytest.raises(DomainError):
            affine_coherent(f, PhasePoint(0.0, 2.0))

    @pytest.mark.parametrize("q", [0.5, 1.0, 2.0, 5.0])
    def test_dilation_scaling_of_first_moment(self, q):
        f = affine_fiducial(1.5, 1.0)
        base = fiducial_wavefunction(f)
        state = affine_coherent(f, PhasePoint(0.0, q, domain=AFFINE_DOMAIN))
        assert position_moment(state, 1) == pytest.approx(
            q * position_moment(base, 1), abs=1e-7
        )

    def test_transport_preserves_norm_beta_1_5(self):
        # the near-origin offset must scale with the dilation q, so the
        # node count per window is q-independent
        f = affine_fiducial(1.5, 1.0)
        n = int((1 + 20 * f.hbar / f.beta) / 1.1e-4)
        for p, q in [(0.0, 0.5), (1.0, 1.0), (-2.0, 2.0)]:
            grid = half_line_grid(q * (1 + 20 * f.hbar / f.beta), n)
            state = affine_coherent(f, PhasePoint(p, q, domain=AFFINE_DOMAIN), grid=grid)
            assert abs(state.norm() - 1) < 1e-10

    def test_transport_preserves_norm_beta_1(self):
        # worst case beta/hbar = 1: the envelope is ~ sqrt(x) at the origin,
        # so the 1e-10 norm target needs a fine offset
        f = affine_fiducial(1.0, 1.0)
        q = 2.0
        grid = half_line_grid(q * 21, int(q * 21 / 7e-6))
        state = affine_coherent(f, PhasePoint(1.0, q, domain=AFFINE_DOMAIN), grid=grid)
        assert abs(state.norm() - 1) < 1e-10

    @pytest.mark.parametrize("beta_over_hbar", [8.0, 50.0, 100.0, 400.0])
    def test_default_window_keeps_the_norm(self, beta_over_hbar):
        # the state's relative spread is sqrt(hbar / 2 beta), so a margin of
        # 20 hbar / beta alone cut off 8e-2 of the norm at beta / hbar = 400
        f = affine_fiducial(beta_over_hbar, 1.0)
        state = affine_coherent(f, PhasePoint(0.3, 1.0, domain=AFFINE_DOMAIN))
        assert abs(1 - state.norm_squared()) <= 1e-9

    @pytest.mark.parametrize("q", [1.0, 3.0])
    @pytest.mark.parametrize("beta_over_hbar", [1.0, 2.0, 4.0])
    def test_default_grid_keeps_the_norm_near_the_origin(self, beta_over_hbar, q):
        # the node count is sized for a 1e-8 norm loss, the rule's error next
        # to x = 0 included (1.17e-8 at beta / hbar = 1 when only the mass
        # below the first node was counted)
        f = affine_fiducial(beta_over_hbar, 1.0)
        state = affine_coherent(f, PhasePoint(0.3, q, domain=AFFINE_DOMAIN))
        assert 1 - state.norm_squared() <= 1e-8

    def test_phase_factor_retained(self):
        # xi_{p,q}(q) carries no phase; xi_{p,q}(x) = e^{ip(x-q)/hbar} ...
        f = affine_fiducial(2.0, 1.0)
        pt = PhasePoint(1.3, 1.0, domain=AFFINE_DOMAIN)
        grid = default_affine_grid(f)
        state = affine_coherent(f, pt, grid=grid)
        base = affine_values(f.beta, f.hbar, grid.nodes)
        expected = np.exp(1j * pt.p * (grid.nodes - 1.0)) * base
        assert np.allclose(state.values, expected, atol=1e-14)


class TestOneNamePerSheet:
    def test_fiducial_kind_names_family_symbol_and_cli_choice(self):
        sheets = {CANONICAL_DOMAIN, AFFINE_DOMAIN}
        op = parse_operator("1.0 * D X D")
        for f in (gaussian_fiducial(1.0, 1.0), affine_fiducial(2.0, 1.0)):
            assert CoherentFamily(f).domain == f.kind == weak_symbol(op, f).provenance
            assert f.kind in sheets
        for command in SUBCOMMANDS.values():
            if "family" in command.params:
                assert set(command.params["family"].choices) == sheets


class TestCentering:
    def test_gaussian_passes(self):
        rep = verify_centering(gaussian_fiducial(1.0, 1.0))
        assert rep.passed
        assert abs(rep.x_moment) < 1e-10
        assert abs(rep.conjugate_moment) < 1e-10

    def test_affine_passes(self):
        rep = verify_centering(affine_fiducial(1.0, 1.0))
        assert rep.passed
        assert rep.x_moment == pytest.approx(1.0, abs=1e-7)
        assert abs(rep.conjugate_moment) < 1e-7


class TestLabelRoutes:
    """Density-oracle labels against the transported complex state, differenced,
    and the closed-form labels against the density oracle."""

    @pytest.mark.parametrize("p,q", [(-1.3, 2.5), (0.8, -0.6), (2.0, 0.0)])
    def test_canonical_sheet(self, p, q):
        f = gaussian_fiducial(0.8, 1.3)
        pt = PhasePoint(p, q)
        state = canonical_coherent(f, pt)
        p_read, q_read = density_labels(f, pt)
        assert p_read == pytest.approx(momentum_expectation(state), abs=1e-4)
        assert q_read == pytest.approx(position_moment(state, 1), abs=1e-12)
        closed = state_labels(f, pt)
        oracle = density_labels(f, pt, n=150_001)
        assert closed == pytest.approx(oracle, abs=ORACLE_LABEL_ATOL)

    @pytest.mark.parametrize("p,q", [(2.0, 3.0), (-0.7, 0.5), (1.1, 1.0)])
    def test_affine_sheet(self, p, q):
        f = affine_fiducial(1.5, 1.0)
        pt = PhasePoint(p, q, domain=AFFINE_DOMAIN)
        state = affine_coherent(f, pt)
        p_read, q_read = density_labels(f, pt)
        assert p_read * q_read == pytest.approx(dilation_expectation(state), abs=1e-4)
        assert q_read == pytest.approx(position_moment(state, 1), abs=1e-12)
        closed = state_labels(f, pt)
        oracle = density_labels(f, pt, n=150_000)
        assert closed == pytest.approx(oracle, abs=ORACLE_LABEL_ATOL)

    def test_wrong_sheet_rejected(self):
        with pytest.raises(DomainError):
            state_labels(gaussian_fiducial(1.0, 1.0), PhasePoint(0.0, 1.0, domain=AFFINE_DOMAIN))
        with pytest.raises(DomainError):
            state_labels(affine_fiducial(1.0, 1.0), PhasePoint(0.0, 1.0))


class TestClosedFormMoments:
    """The one moment source against adaptive quadrature of the densities."""

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 6])
    def test_gaussian(self, k):
        omega, hbar = 0.7, 1.3
        want, _ = quad(lambda x: x**k * gaussian_values(omega, hbar, x) ** 2, -np.inf, np.inf)
        assert fiducial_moment(gaussian_fiducial(omega, hbar), k) == pytest.approx(
            want, rel=1e-10, abs=1e-12
        )

    @pytest.mark.parametrize("k", [-1, 0, 1, 2, 3])
    def test_affine(self, k):
        beta, hbar = 2.5, 1.0
        f = affine_fiducial(beta, hbar)
        want, _ = quad(lambda x: x**k * affine_values(beta, hbar, x) ** 2, 0, np.inf)
        assert fiducial_moment(f, k) == pytest.approx(want, rel=1e-10)

    def test_divergent_and_sampled_moments_rejected(self):
        with pytest.raises(DomainError):
            fiducial_moment(affine_fiducial(1.0, 1.0), -2)

    def test_transported_mean_and_variance(self):
        assert coherent_moments(gaussian_fiducial(2.0, 1.0), PhasePoint(0.3, -1.5)) == (
            -1.5,
            0.25,
        )
        pt = PhasePoint(0.3, 3.0, domain=AFFINE_DOMAIN)
        assert coherent_moments(affine_fiducial(4.0, 1.0), pt) == (3.0, 9.0 / 8.0)
        with pytest.raises(DomainError):
            coherent_moments(affine_fiducial(4.0, 1.0), PhasePoint(0.3, 3.0))


class TestExactTangents:
    """Quadrature-oracle densities and tangents of the analytic families."""

    @staticmethod
    def _families():
        g = gaussian_fiducial(0.7, 0.8)
        a = affine_fiducial(2.5, 1.0)
        yield CoherentFamily(g, default_canonical_grid(g, q=1.0, p=1.0)), PhasePoint(0.6, -0.4)
        yield CoherentFamily(a, default_affine_grid(a, q=1.5)), PhasePoint(
            -0.8, 1.5, domain=AFFINE_DOMAIN
        )

    def test_density_is_the_squared_modulus(self):
        for fam, pt in self._families():
            density = coherent_density(fam.fiducial, pt, fam.grid)
            want = np.abs(fam(pt.p, pt.q).values) ** 2
            assert np.allclose(density, want, rtol=1e-13, atol=1e-300)

    def test_tangents_match_central_differences(self):
        h = 1e-5
        for fam, pt in self._families():
            psi = fam(pt.p, pt.q).values
            u, v = tangent_multipliers(fam.fiducial, pt, fam.grid.nodes)
            c = pt.p / fam.fiducial.hbar
            d_p = (fam(pt.p + h, pt.q).values - fam(pt.p - h, pt.q).values) / (2 * h)
            d_q = (fam(pt.p, pt.q + h).values - fam(pt.p, pt.q - h).values) / (2 * h)
            scale = np.max(np.abs(d_q))
            assert np.max(np.abs(d_p - 1j * u * psi)) <= 1e-8 * scale
            assert np.max(np.abs(d_q - (v - 1j * c) * psi)) <= 1e-8 * scale

    def test_sampled_and_mismatched_families_rejected(self):
        grid = uniform_grid(-12, 12, 2001)
        g = gaussian_fiducial(1.0, 1.0)
        with pytest.raises(DomainError):
            coherent_density(g, PhasePoint(0.0, 1.0, domain=AFFINE_DOMAIN), grid)
