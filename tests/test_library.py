import math

import numpy as np
import pytest

from advdiff.grid import TorusGrid, lp_norm
from advdiff.library import (
    CATALOG,
    FieldSpec,
    catalog_entries,
    estimate_integrability,
    estimate_time_integrability,
    instantiate,
    integrability_card,
    sample_key,
)
from advdiff.spectral import divergence_defect

import advdiff.library
import oracles
from conftest import peak_state_arrays


class TestFieldSpec:
    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown field"):
            FieldSpec("vortex_sheet")

    def test_unknown_parameter(self):
        with pytest.raises(ValueError, match="parameter"):
            FieldSpec("shear", {"frequency": 3})

    @pytest.mark.parametrize("a", [0.0, -0.5, 2.0, 2.5])
    def test_exponent_bounds(self, a):
        with pytest.raises(ValueError, match="exponent"):
            FieldSpec("power_singularity", {"exponent": a})

    def test_cells_must_be_integer(self):
        with pytest.raises(ValueError, match="cells"):
            FieldSpec("shear", {"cells": 1.5})

    def test_defaults_merged(self):
        spec = FieldSpec("shear", {"amplitude": 2.0})
        assert spec.param("amplitude") == 2.0
        assert spec.param("cells") == 1.0

    def test_time_dependence(self):
        assert FieldSpec("alternating_shear").time_dependent
        assert not FieldSpec("shear").time_dependent

    def test_planar_is_every_entry_but_constant(self):
        assert [name for name in CATALOG if not FieldSpec(name).planar] == ["constant"]


class TestSampleKey:
    SWITCHING = FieldSpec("alternating_shear", {"period": 0.125})

    @pytest.mark.parametrize(
        "spec, t1, t2",
        [
            (FieldSpec("taylor_green"), 0.0, 0.7),
            (FieldSpec("power_singularity", {"exponent": 1.25}), 0.0, 0.3),
            (SWITCHING, 0.01, 0.1),  # one parity within a period
            (SWITCHING, 0.01, 0.26),  # the same parity two periods on
            (SWITCHING, 0.13, 0.38),
        ],
    )
    def test_equal_keys_give_identical_arrays(self, grid32, spec, t1, t2):
        assert sample_key(spec, t1) == sample_key(spec, t2)
        first, second = instantiate(spec, grid32, t1), instantiate(spec, grid32, t2)
        for a, b in zip(first.components, second.components):
            assert a.values.tobytes() == b.values.tobytes()

    def test_keys_tell_the_parities_apart(self):
        assert sample_key(FieldSpec("shear"), 0.3) is None
        assert sample_key(self.SWITCHING, 0.01) != sample_key(self.SWITCHING, 0.13)

    def test_modulated_times_have_distinct_keys(self):
        spec = FieldSpec("alternating_shear", {"period": 0.125, "modulation_exponent": 0.5})
        times = (0.01, 0.1, 0.26)
        assert len({sample_key(spec, t) for t in times}) == len(times)


class TestInstantiate:
    def test_constant_divergence_and_norms(self, grid32):
        v = instantiate(FieldSpec("constant", {"c1": 1.0, "c2": 0.0}), grid32)
        assert divergence_defect(v) == 0.0
        for p in (1.0, 2.0, 4.0, math.inf):
            assert lp_norm(v.magnitude(), p) == pytest.approx(1.0, rel=1e-13)

    def test_taylor_green_against_closed_form(self):
        # oracle: hand-coded perpendicular gradient of A sin(2 pi x1) sin(2 pi x2)
        g = TorusGrid(2, 64)
        amp = 1.3
        v = instantiate(FieldSpec("taylor_green", {"amplitude": amp}), g)
        x, y = np.meshgrid(g.axis_coordinates(), g.axis_coordinates(), indexing="ij")
        b1 = -2 * np.pi * amp * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)
        b2 = 2 * np.pi * amp * np.cos(2 * np.pi * x) * np.sin(2 * np.pi * y)
        assert np.max(np.abs(v.components[0].values - b1)) < 1e-12
        assert np.max(np.abs(v.components[1].values - b2)) < 1e-12
        assert divergence_defect(v) < 1e-10
        grid_max = 2 * np.pi * np.max(np.hypot(amp * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y), amp * np.cos(2 * np.pi * x) * np.sin(2 * np.pi * y)))
        assert np.max(v.magnitude().values) == pytest.approx(grid_max, rel=1e-12)

    def test_taylor_green_3d_columns(self):
        g = TorusGrid(3, 16)
        v = instantiate(FieldSpec("taylor_green"), g)
        assert divergence_defect(v) < 1e-10
        assert np.max(np.abs(v.components[2].values)) == 0.0

    def test_rotation_bump_support_and_divergence(self):
        # the stream function is compactly supported; the spectral velocity
        # carries only a super-algebraically small tail outside it
        tails = []
        for n in (64, 128, 256):
            g = TorusGrid(2, n)
            v = instantiate(FieldSpec("rotation_bump", {"radius": 0.3}), g)
            assert divergence_defect(v) < 1e-10
            x, y = np.meshgrid(g.axis_coordinates(), g.axis_coordinates(), indexing="ij")
            r = np.hypot(np.mod(x, 1) - 0.5, np.mod(y, 1) - 0.5)
            tails.append(np.max(v.magnitude().values[r > 0.42]) / v.max_abs())
        assert tails[0] < 2e-3
        assert tails[1] < tails[0] / 10
        assert tails[2] < tails[1] / 10
        assert tails[2] < 1e-5

    def test_power_singularity_divergence_gate_and_notes(self):
        g = TorusGrid(2, 128)
        v = instantiate(FieldSpec("power_singularity", {"exponent": 1.5}), g)
        assert divergence_defect(v) < 1e-8
        assert any("truncated" in note for note in v.notes)
        assert any("leray" in note for note in v.notes)

    def test_power_singularity_peak_grows_with_resolution(self):
        spec = FieldSpec("power_singularity", {"exponent": 1.5})
        peaks = [instantiate(spec, TorusGrid(2, n)).max_abs() for n in (128, 256, 512)]
        assert peaks[0] < peaks[1] < peaks[2]

    def test_quadrature_growth_at_and_below_criticality(self):
        # a = 1.5: the integral of |b|^4 keeps growing under refinement
        # (non-vanishing increments) while |b|^3 settles
        spec = FieldSpec("power_singularity", {"exponent": 1.5})
        resolutions = (64, 128, 256, 512)
        seq4 = [lp_norm(instantiate(spec, TorusGrid(2, n)).magnitude(), 4.0) ** 4 for n in resolutions]
        inc4 = [b - a for a, b in zip(seq4, seq4[1:])]
        assert all(i > 0 for i in inc4)
        assert inc4[-1] > 0.8 * inc4[0]
        seq3 = [lp_norm(instantiate(spec, TorusGrid(2, n)).magnitude(), 3.0) ** 3 for n in resolutions]
        inc3 = [b - a for a, b in zip(seq3, seq3[1:])]
        assert all(i > 0 for i in inc3)
        assert inc3[-1] < 0.55 * inc3[0]

    def test_alternating_shear_switches_direction(self, grid32):
        spec = FieldSpec("alternating_shear", {"period": 0.125})
        early = instantiate(spec, grid32, t=0.05)
        later = instantiate(spec, grid32, t=0.125 + 0.05)
        assert np.max(np.abs(early.components[1].values)) == 0.0
        assert np.max(np.abs(early.components[0].values)) > 0.0
        assert np.max(np.abs(later.components[0].values)) == 0.0
        assert np.max(np.abs(later.components[1].values)) > 0.0

    def test_modulated_shear_rejects_t_zero(self, grid32):
        spec = FieldSpec("alternating_shear", {"modulation_exponent": 0.5})
        with pytest.raises(ValueError, match="singular at t = 0"):
            instantiate(spec, grid32, t=0.0)

    def test_planar_fields_reject_dim_one(self):
        g = TorusGrid(1, 16)
        for name in ("shear", "taylor_green", "rotation_bump", "power_singularity"):
            with pytest.raises(ValueError, match="dim >= 2"):
                instantiate(FieldSpec(name), g)
        instantiate(FieldSpec("constant"), g)  # the one-dimensional entry


class TestIntegrabilityCard:
    def test_bounded_fields(self):
        for name in ("constant", "shear", "taylor_green", "rotation_bump"):
            card = integrability_card(FieldSpec(name))
            assert math.isinf(card.p_finite_below)
            assert math.isinf(card.alpha_time)

    def test_power_singularity_threshold(self):
        card = integrability_card(FieldSpec("power_singularity", {"exponent": 1.5}))
        assert card.p_finite_below == pytest.approx(4.0)
        card = integrability_card(FieldSpec("power_singularity", {"exponent": 0.5}))
        assert math.isinf(card.p_finite_below)

    def test_modulated_shear_time_exponent(self):
        card = integrability_card(FieldSpec("alternating_shear", {"modulation_exponent": 0.4}))
        assert card.alpha_time == pytest.approx(2.5)


class TestEstimateIntegrability:
    def test_needs_three_resolutions(self):
        with pytest.raises(ValueError, match="3 resolutions"):
            estimate_integrability(FieldSpec("shear"), [2.0], (32, 64))

    def test_needs_increasing_resolutions(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            estimate_integrability(FieldSpec("shear"), [2.0], (32, 32, 64))

    def test_shear_converges_any_p(self):
        for report in estimate_integrability(FieldSpec("shear"), (1.0, 4.0, 10.0), (32, 64, 128)):
            assert report.verdict == "converging"

    def test_singular_field_flips_across_threshold(self):
        spec = FieldSpec("power_singularity", {"exponent": 1.5})  # p* = 4
        resolutions = (64, 128, 256, 512)
        below, above = estimate_integrability(spec, (3.0, 5.0), resolutions)
        assert below.verdict == "converging"
        assert above.verdict == "diverging"


class TestTimeIntegrability:
    def test_modulated_shear_alpha_beta_criterion(self):
        g = TorusGrid(2, 16)
        spec = FieldSpec("alternating_shear", {"modulation_exponent": 0.4})
        # alpha*beta: 0.4 finite, 1.2 and 1.6 infinite
        assert estimate_time_integrability(spec, g, 1.0).verdict == "converging"
        assert estimate_time_integrability(spec, g, 3.0).verdict == "diverging"
        assert estimate_time_integrability(spec, g, 4.0).verdict == "diverging"


def _assert_bit_equal(ours, ref):
    for c, r in zip(ours.components, ref.components, strict=True):
        np.testing.assert_array_equal(c.values.view(np.uint64), r.values.view(np.uint64))


def _assert_equals_planar_oracle(spec, g, oracle):
    """Bit for bit with ``oracles.columns`` of the 2D form, and in 3D within 1e-13 of max|b| of the full-grid form."""
    ours = instantiate(spec, g)
    plane = oracle(spec, TorusGrid(2, g.points_per_axis))
    _assert_bit_equal(ours, oracles.columns(plane, g))
    assert ours.notes == plane.notes
    if g.dim == 3:
        full = oracle(spec, g)
        scale = full.max_abs()
        for c, f in zip(ours.components, full.components, strict=True):
            assert np.max(np.abs(c.values - f.values)) <= 1e-13 * scale
        assert ours.notes == full.notes


class TestPlanarBuilders:
    """The planar builders equal the oracles' full-grid forms, in a bounded working set.

    In 2D bit for bit; a 3D vortex column is the lifted 2D form bit for bit
    and agrees with the full-grid 3D form to roundoff.
    """

    @pytest.mark.parametrize("dim,n", [(2, 32), (2, 256), (3, 16), (3, 64)])
    @pytest.mark.parametrize("exponent", [0.5, 1.0, 1.25, 1.5, 1.9])
    @pytest.mark.parametrize("cutoff", [{"cutoff_radius": 0.3}, {}])
    def test_power_singularity_equals_full_grid_builder(self, dim, n, exponent, cutoff):
        spec = FieldSpec("power_singularity", {"exponent": exponent, **cutoff})
        _assert_equals_planar_oracle(spec, TorusGrid(dim, n), oracles.power_singularity)

    @pytest.mark.parametrize("dim,n", [(2, 64), (3, 32)])
    @pytest.mark.parametrize("radius", [0.2, 0.35, 0.5])
    def test_rotation_bump_equals_full_grid_builder(self, dim, n, radius):
        spec = FieldSpec("rotation_bump", {"radius": radius})
        _assert_equals_planar_oracle(spec, TorusGrid(dim, n), oracles.rotation_bump)

    @pytest.mark.parametrize("name", CATALOG)
    @pytest.mark.parametrize("dim,n,bound", [(2, 128, 10), (3, 32, 13)])
    def test_instantiate_working_set(self, name, dim, n, bound):
        # The full-grid power_singularity peaks at about 20 arrays in 2D and
        # 25 in 3D; the catalog keeps every entry near its projection's needs.
        g = TorusGrid(dim, n)
        spec = FieldSpec(name)
        assert peak_state_arrays(lambda: instantiate(spec, g), g) <= bound


PLANAR = [name for name in CATALOG if FieldSpec(name).planar]


class TestVortexColumns:
    """A 3D entry is built, projected and gated on the plane, then lifted by read-only views."""

    @pytest.mark.parametrize("name", CATALOG)
    def test_lift_holds_no_state_array(self, name):
        # A full-grid 3D build peaked at 4.2 to 9.8 arrays of N^3 floats.
        g = TorusGrid(3, 64)
        assert peak_state_arrays(lambda: instantiate(FieldSpec(name), g), g) <= 0.5

    @pytest.mark.parametrize("name", PLANAR)
    def test_plane_gate_certifies_the_lift(self, name):
        v = instantiate(FieldSpec(name), TorusGrid(3, 64))
        assert divergence_defect(v) <= 1e-13
        assert all(not c.values.flags.writeable for c in v.components)
        assert np.max(np.abs(v.components[2].values)) == 0.0

    def test_builders_see_only_planes(self, monkeypatch):
        dims = []
        for name, build in advdiff.library._BUILDERS.items():

            def spy(spec, grid, t, _build=build):
                dims.append(grid.dim)
                return _build(spec, grid, t)

            monkeypatch.setitem(advdiff.library._BUILDERS, name, spy)
        for name in CATALOG:
            instantiate(FieldSpec(name), TorusGrid(3, 16))
        assert dims == [2] * len(CATALOG)

    def test_constant_lift_carries_c3(self):
        v = instantiate(FieldSpec("constant", {"c1": 1.0, "c2": -0.5, "c3": 0.7}), TorusGrid(3, 16))
        assert all(not c.values.flags.writeable for c in v.components)
        assert [float(np.min(c.values)) for c in v.components] == [float(np.max(c.values)) for c in v.components] == [1.0, -0.5, 0.7]

    def test_constant_lift_checks_finiteness_without_a_state_temporary(self):
        # np.isfinite over each broadcast component filled an N^3 bool array: a peak of 0.128 arrays
        g = TorusGrid(3, 64)
        spec = FieldSpec("constant", {"c3": 0.7})
        assert peak_state_arrays(lambda: instantiate(spec, g), g) <= 0.1

    def test_max_abs_of_a_lift_holds_no_state_array(self):
        # max(|c|) filled an N^3 array for each broadcast component: a peak of 1.03 arrays
        g = TorusGrid(3, 64)
        v = instantiate(FieldSpec("taylor_green"), g)
        assert peak_state_arrays(v.max_abs, g) <= 0.5
        assert v.max_abs() == max(float(np.max(np.abs(c.values))) for c in v.components)


@pytest.mark.parametrize("name", ["constant", "shear", "alternating_shear"])
def test_uniform_and_shear_components_are_views(name):
    # Full arrays that ScalarField copied again brought the 2D N=256 peak to 5.28 arrays; views keep it at 3.28.
    g = TorusGrid(2, 256)
    spec = FieldSpec(name)
    t = 0.03 if spec.time_dependent else 0.0
    assert peak_state_arrays(lambda: instantiate(spec, g, t), g) <= 4.0


def test_divergence_free_tag_holds_at_type_tolerance():
    # every catalog field carries spectral divergence below 1e-10 of the component scale
    g = TorusGrid(2, 64)
    for name in CATALOG:
        t = 0.03 if FieldSpec(name).time_dependent else 0.0
        v = instantiate(FieldSpec(name), g, t)
        assert divergence_defect(v) <= 1e-10, name


def test_catalog_listing():
    entries = catalog_entries()
    assert len(entries) == len(CATALOG) == 6
    names = {row["name"] for row in entries}
    assert names == {"constant", "shear", "taylor_green", "rotation_bump", "power_singularity", "alternating_shear"}
