"""Grid, quadrature, derivative and inner-product contracts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cslab.errors import DomainError
from cslab.grids import (
    WaveFunction,
    derivative,
    half_line_grid,
    inner_product,
    uniform_grid,
)


def gaussian_state(grid, k0=0.0):
    x = grid.nodes
    values = np.pi**-0.25 * np.exp(-(x**2) / 2) * np.exp(1j * k0 * x)
    return WaveFunction(grid, values)


class TestGrid:
    @pytest.mark.parametrize("n", [1000, 2000, 4000])
    def test_half_line_quadrature_is_the_trapezoid_rule_on_zero_to_upper(self, n):
        # each node weighs one spacing: the trapezoid rule on [0, 40] with the
        # ghost zero at x = 0 counted, whose error on x e^-x is -h^2/12 (the
        # rule on [h, 40], with half weight at the first node, misses ~7x that)
        grid = half_line_grid(40.0, n)
        x, h = grid.nodes, grid.spacing
        total = grid.integrate(x * np.exp(-x)).real
        assert total == pytest.approx(1 - h**2 / 12, abs=0.01 * h**2 / 12)

    def test_half_line_offset_equals_spacing(self):
        # the first node sits at the spacing: x = 0 is never a node
        grid = half_line_grid(10.0, 1000)
        assert grid.nodes[0] == grid.lower > 0
        assert grid.lower == pytest.approx(grid.spacing, rel=1e-12)

    def test_gaussian_quadrature_sqrt_pi(self):
        grid = uniform_grid(-7.0, 7.0, 2501)
        val = grid.integrate(np.exp(-grid.nodes**2)).real
        assert val == pytest.approx(np.sqrt(np.pi), abs=1e-8)

    def test_rejects_decreasing_nodes(self):
        with pytest.raises(DomainError):
            uniform_grid(2.0, 1.0, 100)

    @pytest.mark.parametrize(
        "lower, upper",
        [(np.nan, 1.0), (0.0, np.nan), (0.0, np.inf), (-np.inf, 0.0), (-1e308, 1e308)],
    )
    def test_non_finite_ends_and_overflowing_spacing_rejected(self, lower, upper):
        # linspace gives NaN nodes here; the rejection raises no numpy warning
        with pytest.raises(DomainError):
            uniform_grid(lower, upper, 10)

    @pytest.mark.parametrize("upper", [np.nan, np.inf, 0.0, -1.0])
    def test_half_line_rejects_non_finite_end(self, upper):
        # NaN used to fail as "grid nodes must be strictly increasing"
        with pytest.raises(DomainError, match=f"upper = {upper!r} must be finite and positive"):
            half_line_grid(upper, 10)

    @pytest.mark.parametrize("hbar", [0.0, -1.0, np.nan])
    def test_wave_function_rejects_hbar(self, hbar):
        # NaN used to be accepted
        with pytest.raises(DomainError, match="hbar must be positive"):
            WaveFunction(uniform_grid(-1.0, 1.0, 5), np.zeros(5), hbar)

    @pytest.mark.parametrize("n", [0, 1, -5])
    def test_half_line_checks_the_node_count_before_dividing_by_it(self, n):
        # n = 0 used to raise ZeroDivisionError from the spacing upper / n
        with pytest.raises(DomainError, match="need at least two nodes"):
            half_line_grid(2.0, n)

    def test_grids_compare_by_ends_and_size(self):
        assert uniform_grid(-1.0, 1.0, 9) == uniform_grid(-1, 1, 9)
        assert uniform_grid(-1.0, 1.0, 9) != uniform_grid(-1.0, 1.0, 11)
        assert half_line_grid(2.0, 8) == uniform_grid(0.25, 2.0, 8)


class TestInnerProduct:
    def test_normalized_state(self):
        psi = gaussian_state(uniform_grid(-10, 10, 3001))
        assert inner_product(psi, psi).real == pytest.approx(1.0, abs=1e-10)

    def test_grid_mismatch_raises(self):
        a = gaussian_state(uniform_grid(-10, 10, 3001))
        b = gaussian_state(uniform_grid(-10, 10, 3003))
        with pytest.raises(DomainError, match="inner product requires identical grids"):
            inner_product(a, b)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_conjugate_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        grid = uniform_grid(-5, 5, 257)
        phi = WaveFunction(grid, rng.normal(size=257) + 1j * rng.normal(size=257))
        psi = WaveFunction(grid, rng.normal(size=257) + 1j * rng.normal(size=257))
        assert inner_product(phi, psi) == pytest.approx(
            np.conj(inner_product(psi, phi)), abs=1e-14
        )

    def test_hermite_orthogonality(self):
        # first two harmonic eigenfunctions (omega = hbar = 1)
        grid = uniform_grid(-12, 12, 4001)
        x = grid.nodes
        h0 = WaveFunction(grid, np.pi**-0.25 * np.exp(-(x**2) / 2))
        h1 = WaveFunction(grid, np.pi**-0.25 * np.sqrt(2) * x * np.exp(-(x**2) / 2))
        assert abs(inner_product(h0, h1)) < 1e-8


class TestDerivative:
    def test_first_derivative_exact_on_squares(self):
        grid = uniform_grid(-2, 2, 41)
        psi = WaveFunction(grid, grid.nodes**2 + 0j)
        d = derivative(psi)
        assert np.max(np.abs(d.values - 2 * grid.nodes)) < 1e-10

    def test_constant_derivative_vanishes(self):
        grid = uniform_grid(-1, 1, 100)
        d = derivative(WaveFunction(grid, np.ones(100) + 0j))
        assert np.max(np.abs(d.values)) == 0.0

    def test_second_order_convergence(self):
        def error(n):
            grid = uniform_grid(-3, 3, n)
            psi = WaveFunction(grid, np.exp(np.sin(grid.nodes)) + 0j)
            d = derivative(psi)
            exact = np.cos(grid.nodes) * np.exp(np.sin(grid.nodes))
            return np.max(np.abs(d.values - exact))

        assert error(201) / error(401) >= 3.0

    def test_too_few_nodes_rejected(self):
        grid = uniform_grid(-1, 1, 4)
        with pytest.raises(DomainError, match="derivative needs at least 5 nodes"):
            derivative(WaveFunction(grid, np.zeros(4) + 0j))
