import itertools
import math

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

from advdiff.grid import (
    ScalarField,
    TorusGrid,
    VectorField,
    h_norm,
    lp_norm,
)

from conftest import random_field
from oracles import geodesic_distance

SQRT_HALF = 0.7071067811865476


class TestTorusGrid:
    def test_basic_properties(self):
        g = TorusGrid(2, 64)
        assert g.spacing == 1.0 / 64
        assert g.shape == (64, 64)
        assert g.size == 64 * 64
        assert g.cell_volume == g.spacing**2

    @pytest.mark.parametrize("dim,n", [(0, 64), (4, 64), (2, 3), (2, 48), (2, 2)])
    def test_rejects_bad_parameters(self, dim, n):
        with pytest.raises(ValueError):
            TorusGrid(dim, n)

    def test_coordinates_live_in_unit_cube(self):
        g = TorusGrid(1, 8)
        x = g.axis_coordinates()
        assert x[0] == 0.0 and x[-1] < 1.0


class TestGeodesicDistance:
    def test_wraparound(self):
        assert geodesic_distance([0.1], [0.9]) == pytest.approx(0.2, abs=1e-15)

    def test_identity(self):
        for point in ([0.3], [0.2, 0.7], [0.1, 0.5, 0.9]):
            assert geodesic_distance(point, point) == 0.0

    def test_diagonal_matches_bruteforce(self):
        # independent oracle: exhaustive minimum over all integer shifts |k| <= 2
        x, y = np.array([0.0, 0.0]), np.array([0.5, 0.5])
        best = min(
            np.linalg.norm(x - y - np.array(k))
            for k in itertools.product(range(-2, 3), repeat=2)
            if sum(c * c for c in k) <= 4
        )
        assert best == pytest.approx(SQRT_HALF, abs=1e-15)
        assert geodesic_distance(x, y) == pytest.approx(best, abs=1e-15)

    def test_rejects_outside_unit_cube(self):
        with pytest.raises(ValueError):
            geodesic_distance([1.0], [0.5])
        with pytest.raises(ValueError):
            geodesic_distance([0.5], [-0.1])

    @hypothesis.given(
        st.lists(st.floats(min_value=0.0, max_value=0.999), min_size=2, max_size=2),
        st.lists(st.floats(min_value=0.0, max_value=0.999), min_size=2, max_size=2),
        st.lists(st.floats(min_value=0.0, max_value=0.999), min_size=2, max_size=2),
    )
    @hypothesis.settings(max_examples=50, deadline=None)
    def test_symmetry_and_triangle(self, x, y, z):
        dxy = geodesic_distance(x, y)
        assert dxy == pytest.approx(geodesic_distance(y, x), abs=1e-14)
        assert dxy <= geodesic_distance(x, z) + geodesic_distance(z, y) + 1e-12


class TestScalarField:
    def test_rejects_nan(self, grid32):
        vals = np.zeros(grid32.shape)
        vals[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            ScalarField(grid32, vals)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_broadcast_view(self, bad):
        # the check reads the view's max and min: NaN reaches both, each infinity one
        g = TorusGrid(3, 16)
        plane = np.zeros(g.shape[:2])
        plane[3, 5] = bad
        with pytest.raises(ValueError, match="finite"):
            ScalarField(g, np.broadcast_to(plane[..., None], g.shape))

    def test_rejects_wrong_shape(self, grid32):
        with pytest.raises(ValueError, match="shape"):
            ScalarField(grid32, np.zeros((3, 3)))

    def test_values_immutable(self, grid32):
        f = ScalarField.constant(grid32, 1.0)
        with pytest.raises(ValueError):
            f.values[0, 0] = 2.0

    def test_source_array_not_aliased(self, grid32):
        src = np.ones(grid32.shape)
        f = ScalarField(grid32, src)
        src[0, 0] = 5.0
        assert f.values[0, 0] == 1.0


class TestVectorField:
    def test_component_count_enforced(self, grid32):
        with pytest.raises(ValueError, match="components"):
            VectorField(grid32, (ScalarField.constant(grid32, 1.0),))

    def test_magnitude(self, grid32):
        v = VectorField.from_arrays(grid32, [3.0 * np.ones(grid32.shape), 4.0 * np.ones(grid32.shape)])
        assert np.allclose(v.magnitude().values, 5.0)
        assert v.max_abs() == 4.0


class TestLpNorm:
    def test_constant_any_p(self, grid32):
        f = ScalarField.constant(grid32, 3.0)
        for p in (1.0, 2.0, 4.0, 7.5, math.inf):
            assert lp_norm(f, p) == pytest.approx(3.0, rel=1e-14)

    def test_sine_l2(self):
        # analytic: integral of sin^2 over the torus is 1/2; cross-checked by
        # a high-resolution rectangle-rule quadrature independent of lp_norm
        fine = np.sin(2 * np.pi * np.arange(4096) / 4096)
        quad = (np.sum(fine**2) / 4096) ** 0.5
        assert quad == pytest.approx(SQRT_HALF, abs=1e-12)
        for n in (16, 64, 256):
            g = TorusGrid(1, n)
            f = ScalarField(g, np.sin(2 * np.pi * g.axis_coordinates()))
            assert lp_norm(f, 2.0) == pytest.approx(SQRT_HALF, abs=1e-10)

    def test_sine_linf(self):
        g = TorusGrid(1, 256)
        f = ScalarField(g, np.sin(2 * np.pi * g.axis_coordinates()))
        assert lp_norm(f, math.inf) == pytest.approx(1.0, abs=1e-3)

    def test_rejects_p_below_one(self, grid32):
        with pytest.raises(ValueError):
            lp_norm(ScalarField.constant(grid32, 1.0), 0.5)

    @hypothesis.given(
        st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=8.0), st.floats(min_value=-8.0, max_value=-1e-3)),
        st.sampled_from([1.0, 2.0, 3.0, math.inf]),
    )
    @hypothesis.settings(max_examples=40, deadline=None)
    def test_absolute_homogeneity(self, alpha, p):
        g = TorusGrid(2, 16)
        f = random_field(g, seed=2)
        lhs = lp_norm(ScalarField(g, alpha * f.values), p)
        rhs = abs(alpha) * lp_norm(f, p)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("p,p_conj", [(1.0, math.inf), (2.0, 2.0), (4.0, 4.0 / 3.0), (3.0, 1.5)])
    def test_hoelder(self, p, p_conj, grid32):
        f = random_field(grid32, seed=5)
        g = random_field(grid32, seed=6)
        assert lp_norm(ScalarField(grid32, f.values * g.values), 1.0) <= lp_norm(f, p) * lp_norm(g, p_conj) + 1e-10

    def test_norm_nesting(self, grid32):
        f = random_field(grid32, seed=7)
        exps = (1.0, 1.5, 2.0, 4.0, 8.0, math.inf)
        norms = [lp_norm(f, q) for q in exps]
        for lower, upper in zip(norms, norms[1:]):
            assert lower <= upper + 1e-10

    def test_partition_independent_summation(self, grid32):
        # reductions must not depend on traversal order beyond 1e-13 relative
        f = random_field(grid32, seed=8)
        ref = lp_norm(f, 2.0)
        shuffled = np.random.default_rng(0).permutation(f.values.ravel()).reshape(f.grid.shape)
        alt = lp_norm(ScalarField(f.grid, shuffled), 2.0)
        assert alt == pytest.approx(ref, rel=1e-13)


class TestHNorm:
    def test_constant_hminus1(self, grid32):
        f = ScalarField.constant(grid32, -2.5)
        assert h_norm(f, -1) == pytest.approx(2.5, rel=1e-13)

    def test_sine_both_orders(self):
        # independent oracle: the exact two-term lattice sum through the
        # multiplier, |fhat(+-1)| = 1/2
        g = TorusGrid(1, 64)
        f = ScalarField(g, np.sin(2 * np.pi * g.axis_coordinates()))
        mult = 1.0 + 4.0 * np.pi**2
        assert h_norm(f, -1) == pytest.approx(math.sqrt(0.5 / mult), abs=1e-12)
        assert h_norm(f, +1) == pytest.approx(math.sqrt(0.5 * mult), abs=1e-11)

    def test_rejects_other_orders(self, grid32):
        with pytest.raises(ValueError):
            h_norm(ScalarField.constant(grid32, 1.0), 2)

    def test_multiplier_monotonicity(self, grid32):
        for seed in range(4):
            f = random_field(grid32, seed=seed)
            low, mid, high = h_norm(f, -1), lp_norm(f, 2.0), h_norm(f, +1)
            assert low <= mid * (1 + 1e-12)
            assert mid <= high * (1 + 1e-12)
