"""Ray distance, sheet metric and curvature."""

import numpy as np
import pytest

import oracles
from oracles import (
    ORACLE_CURVATURE_ATOL,
    ORACLE_METRIC_RTOL,
    brioschi_curvature,
    difference_metric,
    exact_metric,
    exact_metric_field,
    ray_distance,
)

from cslab.errors import DomainError, NumericError
from cslab.geometry import MetricTensor, fs_metric, scalar_curvature
from cslab.grids import WaveFunction, uniform_grid
from cslab.states import (
    AFFINE_DOMAIN,
    CoherentFamily,
    PhasePoint,
    affine_fiducial,
    canonical_coherent,
    default_affine_grid,
    default_canonical_grid,
    gaussian_fiducial,
)


def closed_form_field(family):
    """(p, q) -> fs_metric of the family on its own sheet, for the curvature stencil."""
    return lambda p, q: fs_metric(family, PhasePoint(p, q, domain=family.domain))


def _hermite_pair():
    grid = uniform_grid(-12, 12, 4001)
    x = grid.nodes
    h0 = WaveFunction(grid, np.pi**-0.25 * np.exp(-(x**2) / 2))
    h1 = WaveFunction(grid, np.pi**-0.25 * np.sqrt(2) * x * np.exp(-(x**2) / 2))
    return h0, h1


class TestRayDistance:
    def test_identical_rays(self):
        h0, _ = _hermite_pair()
        assert float(ray_distance(h0, h0)) == pytest.approx(0.0, abs=1e-12)

    def test_global_phase_ignored(self):
        h0, _ = _hermite_pair()
        rotated = WaveFunction(h0.grid, np.exp(0.7j) * h0.values)
        assert float(ray_distance(h0, rotated)) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_rays(self):
        h0, h1 = _hermite_pair()
        assert float(ray_distance(h0, h1)) == pytest.approx(4.0, abs=1e-7)

    def test_symmetry(self):
        f = gaussian_fiducial(1.0, 1.0)
        grid = default_canonical_grid(f, q=1.0, p=1.0)
        a = canonical_coherent(f, PhasePoint(0.0, 0.0), grid=grid)
        b = canonical_coherent(f, PhasePoint(1.0, 0.5), grid=grid)
        assert float(ray_distance(a, b)) == pytest.approx(float(ray_distance(b, a)), abs=1e-14)

    def test_alpha_achieves_the_minimum(self):
        # the closed form must equal the integral at the aligning phase
        f = gaussian_fiducial(1.0, 1.0)
        grid = default_canonical_grid(f, q=1.0, p=1.0)
        a = canonical_coherent(f, PhasePoint(0.4, -0.3), grid=grid)
        b = canonical_coherent(f, PhasePoint(-0.6, 0.8), grid=grid)
        res = ray_distance(a, b)
        shifted = WaveFunction(grid, a.values - np.exp(1j * res.alpha) * b.values)
        direct = 2 * a.hbar * shifted.norm_squared()
        assert res.d_squared == pytest.approx(direct, abs=1e-10)
        # and any other phase does worse
        for alpha in (res.alpha + 0.3, res.alpha - 1.0):
            other = WaveFunction(grid, a.values - np.exp(1j * alpha) * b.values)
            assert 2 * a.hbar * other.norm_squared() >= res.d_squared

    def test_unnormalized_rejected(self):
        h0, _ = _hermite_pair()
        bad = WaveFunction(h0.grid, 1.1 * h0.values)
        with pytest.raises(DomainError, match="wave function norm deviates"):
            ray_distance(h0, bad)

    def test_nan_states_rejected(self):
        # a NaN norm must fail the normalization guard, not slip past it
        grid = uniform_grid(-1, 1, 11)
        nan_state = WaveFunction(grid, np.full(grid.n, np.nan))
        with pytest.raises(DomainError, match="wave function norm deviates by nan"):
            ray_distance(nan_state, nan_state)

    def test_vanishes_iff_rays_coincide(self):
        f = gaussian_fiducial(1.0, 1.0)
        grid = default_canonical_grid(f, q=1.0, p=1.0)
        a = canonical_coherent(f, PhasePoint(0.0, 0.0), grid=grid)
        b = canonical_coherent(f, PhasePoint(0.2, 0.1), grid=grid)
        res = ray_distance(a, b)
        assert res.d_squared > 1e-3
        assert res.overlap_abs < 1.0 - 1e-10


class TestMetricTensor:
    def test_nan_entries_are_not_positive_definite(self):
        with pytest.raises(NumericError, match="metric not positive definite"):
            MetricTensor(float("nan"), 0.0, 1.0).require_positive_definite()
        with pytest.raises(NumericError, match="metric not positive definite"):
            MetricTensor(1.0, 0.0, float("nan")).require_positive_definite()


class TestCanonicalMetric:
    @pytest.mark.parametrize("omega", [0.5, 1.0, 2.0])
    def test_cartesian_metric(self, omega):
        f = gaussian_fiducial(omega, 1.0)
        grid = default_canonical_grid(f, q=2.0, p=2.0)
        fam = CoherentFamily(f, grid)
        for p, q in [(0.0, 0.0), (1.0, -1.0), (2.0, 1.5)]:
            g = fs_metric(fam, PhasePoint(p, q))
            assert g.g_pp == pytest.approx(1 / omega, abs=1e-6)
            assert g.g_qq == pytest.approx(omega, abs=1e-6)
            assert abs(g.g_pq) <= 1e-8

    def test_metric_is_point_independent(self):
        f = gaussian_fiducial(1.0, 1.0)
        grid = default_canonical_grid(f, q=7.0, p=3.0)
        fam = CoherentFamily(f, grid)
        g0 = fs_metric(fam, PhasePoint(0.0, 0.0))
        g1 = fs_metric(fam, PhasePoint(3.0, -7.0))
        assert g0.g_pp == pytest.approx(g1.g_pp, abs=1e-8)
        assert g0.g_qq == pytest.approx(g1.g_qq, abs=1e-8)

    def test_wild_step_fails_extrapolation(self):
        # the two Richardson extrapolants of the difference oracle must agree
        f = gaussian_fiducial(1.0, 1.0)
        fam = CoherentFamily(f, default_canonical_grid(f, q=3.0))
        g = difference_metric(fam, PhasePoint(0.0, 0.0))
        assert g.g_pp == pytest.approx(1.0, abs=1e-6)
        with pytest.raises(NumericError, match="metric extrapolation not converged"):
            difference_metric(fam, PhasePoint(0.0, 0.0), step=2.0)


class TestAffineMetric:
    def test_poincare_metric_example(self):
        f = affine_fiducial(1.0, 1.0)
        grid = default_affine_grid(f, q=2.0)
        fam = CoherentFamily(f, grid)
        g = fs_metric(fam, PhasePoint(1.0, 2.0, domain=AFFINE_DOMAIN))
        assert g.g_pp == pytest.approx(4.0, abs=1e-5)
        assert g.g_qq == pytest.approx(0.25, abs=1e-5)
        assert abs(g.g_pq) <= 1e-5

    @pytest.mark.parametrize("q", [0.5, 1.0, 2.0, 4.0])
    def test_metric_identities(self, q):
        beta = 2.0
        f = affine_fiducial(beta, 1.0)
        grid = default_affine_grid(f, q=q)
        fam = CoherentFamily(f, grid)
        g = fs_metric(fam, PhasePoint(0.3, q, domain=AFFINE_DOMAIN))
        assert g.g_pp * g.g_qq == pytest.approx(1.0, rel=1e-5)
        assert g.g_pp == pytest.approx(q**4 * g.g_qq / beta**2, rel=1e-5)


class TestExactRoute:
    """The exact-tangent quadrature oracle against the finite-difference oracle."""

    @staticmethod
    def _assert_routes_agree(fam, pt):
        exact = exact_metric(fam, pt)
        differenced = difference_metric(fam, pt)
        scale = max(differenced.g_pp, differenced.g_qq)
        for name in ("g_pp", "g_pq", "g_qq"):
            assert abs(getattr(exact, name) - getattr(differenced, name)) <= 1e-8 * scale, name

    @pytest.mark.parametrize("omega", [0.5, 2.0])
    def test_canonical_sheet(self, omega):
        f = gaussian_fiducial(omega, 1.0)
        fam = CoherentFamily(f, default_canonical_grid(f, q=2.0, p=2.0))
        for p, q in [(0.0, 0.0), (1.0, -1.0), (2.0, 1.5)]:
            self._assert_routes_agree(fam, PhasePoint(p, q))

    @pytest.mark.parametrize("beta", [1.0, 4.0])
    @pytest.mark.parametrize("q", [0.5, 1.0, 4.0])
    def test_affine_sheet(self, beta, q):
        f = affine_fiducial(beta, 1.0)
        fam = CoherentFamily(f, default_affine_grid(f, q=q))
        self._assert_routes_agree(fam, PhasePoint(0.7, q, domain=AFFINE_DOMAIN))

    def test_under_resolved_grid_fails_norm_check(self):
        # 2000 nodes miss ~2.5e-4 of the probability mass next to x = 0
        f = affine_fiducial(1.0, 1.0)
        fam = CoherentFamily(f, default_affine_grid(f, q=1.0, n=2000))
        with pytest.raises(NumericError, match="on the metric grid is off"):
            exact_metric(fam, PhasePoint(0.0, 1.0, domain=AFFINE_DOMAIN))

    def test_nan_density_fails_closed(self, monkeypatch):
        monkeypatch.setattr(
            oracles, "coherent_density", lambda f, pt, grid: np.full(grid.n, np.nan)
        )
        f = affine_fiducial(1.0, 1.0)
        fam = CoherentFamily(f, default_affine_grid(f, q=1.0))
        with pytest.raises(NumericError, match="state norm nan on the metric grid"):
            exact_metric(fam, PhasePoint(0.0, 1.0, domain=AFFINE_DOMAIN))


class TestClosedForm:
    """Closed-form moments against the quadrature oracle on 150k-node grids."""

    @staticmethod
    def _assert_matches_oracle(fam, pt):
        closed = fs_metric(fam, pt)
        oracle = exact_metric(fam, pt)
        scale = max(closed.g_pp, closed.g_qq)
        assert closed.g_pq == 0.0
        assert abs(oracle.g_pq) <= ORACLE_METRIC_RTOL * scale
        assert closed.g_pp == pytest.approx(oracle.g_pp, rel=ORACLE_METRIC_RTOL)
        assert closed.g_qq == pytest.approx(oracle.g_qq, rel=ORACLE_METRIC_RTOL)

    @pytest.mark.parametrize("omega", [0.5, 2.0])
    def test_canonical_metric(self, omega):
        f = gaussian_fiducial(omega, 0.7)
        fam = CoherentFamily(f, default_canonical_grid(f, q=2.0, n=150_001))
        for p, q in [(0.0, 0.0), (1.0, -1.0), (2.0, 1.5)]:
            self._assert_matches_oracle(fam, PhasePoint(p, q))

    @pytest.mark.parametrize(
        "beta,hbar",
        [(1.0, 1.0), (4.0, 1.0), (1.0, 0.5), (4.0, 2.0)],
        ids=["1.0", "4.0", "1.0-hbar0.5", "4.0-hbar2.0"],
    )
    @pytest.mark.parametrize("q", [0.5, 1.0, 4.0])
    def test_affine_metric_and_curvature(self, beta, hbar, q):
        # the curvature -2/beta does not depend on hbar
        f = affine_fiducial(beta, hbar)
        fam = CoherentFamily(f, default_affine_grid(f, q=q, n=150_000))
        self._assert_matches_oracle(fam, PhasePoint(0.7, q, domain=AFFINE_DOMAIN))
        pt = PhasePoint(0.0, q, domain=AFFINE_DOMAIN)
        closed = scalar_curvature(fam, pt)
        oracle = brioschi_curvature(exact_metric_field(fam), pt)
        assert closed == -2.0 / beta
        assert abs(closed - oracle) <= ORACLE_CURVATURE_ATOL

    def test_needs_no_grid(self):
        f = affine_fiducial(2.0, 1.0)
        g = fs_metric(CoherentFamily(f), PhasePoint(0.3, 1.5, domain=AFFINE_DOMAIN))
        assert (g.g_pp, g.g_pq, g.g_qq) == pytest.approx((1.5**2 / 2.0, 0.0, 2.0 / 1.5**2))

    @pytest.mark.parametrize("q", [1e200, 1e-200])
    def test_overflow_fails_closed(self, q):
        # q^2 overflows to inf or underflows to 0: the metric is not positive definite
        fam = CoherentFamily(affine_fiducial(1.0, 1.0))
        with pytest.raises(NumericError, match="metric not positive definite"):
            fs_metric(fam, PhasePoint(0.0, q, domain=AFFINE_DOMAIN))


class TestInfinitesimalConsistency:
    def test_ray_distance_approaches_quadratic_form(self):
        f = gaussian_fiducial(1.0, 1.0)
        grid = default_canonical_grid(f, q=1.0, p=1.0)
        fam = CoherentFamily(f, grid)
        pt = PhasePoint(0.2, -0.4)
        g = fs_metric(fam, pt)
        base = fam(pt.p, pt.q)
        ratios = []
        for delta in (1e-3, 5e-4):
            dp, dq = 1.0 * delta, 0.7 * delta
            moved = fam(pt.p + dp, pt.q + dq)
            d2 = float(ray_distance(base, moved))
            form = g.g_pp * dp**2 + 2 * g.g_pq * dp * dq + g.g_qq * dq**2
            ratios.append(d2 / form)
        assert abs(ratios[1] - 1) < abs(ratios[0] - 1)
        assert ratios[1] == pytest.approx(1.0, abs=1e-5)


class TestCurvature:
    def test_flat_canonical_sheet(self):
        f = gaussian_fiducial(1.0, 1.0)
        fam = CoherentFamily(f)
        assert scalar_curvature(fam, PhasePoint(0.3, -0.2)) == 0.0
        # the stencil oracle agrees at its own accuracy
        assert abs(brioschi_curvature(closed_form_field(fam), PhasePoint(0.3, -0.2))) < 1e-4

    @pytest.mark.parametrize("beta,expected", [(1.0, -2.0), (4.0, -0.5)])
    def test_poincare_curvature(self, beta, expected):
        fam = CoherentFamily(affine_fiducial(beta, 1.0))
        for q in (0.5, 1.0, 4.0):
            pt = PhasePoint(0.0, q, domain=AFFINE_DOMAIN)
            assert scalar_curvature(fam, pt) == expected
            assert brioschi_curvature(closed_form_field(fam), pt) == pytest.approx(
                expected, abs=1e-3
            )

    @pytest.mark.parametrize("beta", [1.0, 4.0])
    def test_stencil_evaluates_each_point_once(self, beta):
        calls = []

        def poincare(p, q):
            calls.append((p, q))
            return MetricTensor(q**2 / beta, 0.0, beta / q**2)

        val = brioschi_curvature(poincare, PhasePoint(0.3, 1.5, domain=AFFINE_DOMAIN))
        assert len(calls) == 25
        assert len(set(calls)) == 25
        assert val == pytest.approx(-2.0 / beta, abs=1e-6)

    def test_stencil_domain_guard(self):
        # at beta = hbar = 1 the q step is step * q, so q - 2 h_q = -0.2 q
        field = closed_form_field(CoherentFamily(affine_fiducial(1.0, 1.0)))
        with pytest.raises(DomainError):
            brioschi_curvature(field, PhasePoint(0.0, 0.05, domain=AFFINE_DOMAIN), step=0.6)

    def test_stencil_inside_domain_passes_guard(self):
        # q - 2 h_q = 0.2 q > 0: the stencil stays on the sheet
        field = closed_form_field(CoherentFamily(affine_fiducial(1.0, 1.0)))
        value = brioschi_curvature(field, PhasePoint(0.0, 0.05, domain=AFFINE_DOMAIN), step=0.4)
        assert np.isfinite(value)

    @pytest.mark.parametrize("p,q", [(0.0, 1e308), (1e300, 0.0), (0.0, float("nan"))])
    def test_unresolved_stencil_fails_closed(self, p, q):
        # a flat field would read curvature 0 from offsets that round to the point
        field = closed_form_field(CoherentFamily(gaussian_fiducial(1.0, 1.0)))
        with pytest.raises(NumericError, match="stencil step .* is not resolved"):
            brioschi_curvature(field, PhasePoint(p, q))

    def test_infinite_metric_entry_fails_closed(self):
        # g_qq = inf passes the positive-definiteness guard but gives a zero q step
        with pytest.raises(NumericError, match="stencil step 0 is not resolved"):
            brioschi_curvature(
                lambda p, q: MetricTensor(1.0, 0.0, float("inf")), PhasePoint(0.0, 1.0)
            )
