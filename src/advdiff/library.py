"""Catalog of divergence-free velocity fields with integrability metadata.

Divergence-freeness is measured, not declared: ``instantiate`` refuses any
field whose spectral divergence exceeds ``DIVERGENCE_GATE``.  The singular
entry trades closed-form control of its L^p membership (through an explicit
exponent) for a Leray projection that brings it under that gate, so each
region of the integrability diagrams is reachable by at least one catalog
field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .grid import ScalarField, TorusGrid, VectorField, lp_norm, wrapped_displacement
from .mollify import Mollifier, mollify
from .spectral import divergence_defect, leray_project, perp_gradient

__all__ = [
    "CATALOG",
    "FieldSpec",
    "IntegrabilityCard",
    "TrendReport",
    "VelocitySampler",
    "check_dim",
    "instantiate",
    "sample_key",
    "integrability_card",
    "refinement_grids",
    "estimate_integrability",
    "estimate_time_integrability",
    "catalog_entries",
    "log_log_slope",
]

DIVERGENCE_GATE = 1e-8

# Trend thresholds for log(integral) vs log(N) slopes.
CONVERGING_SLOPE = 0.05
DIVERGING_SLOPE = 0.2

_DEFAULT_PARAMS: dict[str, dict[str, float]] = {
    "constant": {"c1": 1.0, "c2": 0.0, "c3": 0.0},
    "shear": {"amplitude": 1.0, "cells": 1.0},
    "taylor_green": {"amplitude": 1.0},
    "rotation_bump": {"amplitude": 1.0, "radius": 0.35},
    "power_singularity": {"amplitude": 1.0, "exponent": 1.5, "cutoff_radius": 0.4},
    "alternating_shear": {"amplitude": 1.0, "cells": 1.0, "period": 0.125, "modulation_exponent": 0.0},
}

_DESCRIPTIONS: dict[str, str] = {
    "constant": "uniform drift (c1, c2[, c3])",
    "shear": "horizontal shear A sin(2 pi m x2) e1",
    "taylor_green": "cellular vortex array, perpendicular gradient of A sin(2 pi x1) sin(2 pi x2)",
    "rotation_bump": "compactly supported rotation around the cell center",
    "power_singularity": "rotation with speed ~ r^(1-a) around the center; in L^p exactly when p (a-1) < 2",
    "alternating_shear": "shear switching direction every `period`, amplitude modulated by t^(-beta)",
}


@dataclass(frozen=True)
class FieldSpec:
    """Catalog entry reference: a name plus its real-valued parameters."""

    name: str
    params: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        if self.name not in _DEFAULT_PARAMS:
            raise ValueError(f"unknown field {self.name!r}; catalog: {sorted(_DEFAULT_PARAMS)}")
        raw = self.params
        if isinstance(raw, Mapping):
            items = raw.items()
        else:
            items = tuple(raw)
        allowed = _DEFAULT_PARAMS[self.name]
        merged = dict(allowed)
        for key, value in items:
            if key not in allowed:
                raise ValueError(f"field {self.name!r} does not take parameter {key!r}")
            merged[key] = float(value)
        _validate_params(self.name, merged)
        object.__setattr__(self, "params", tuple(sorted(merged.items())))

    def param(self, key: str) -> float:
        for k, v in self.params:
            if k == key:
                return v
        raise KeyError(key)

    @property
    def time_dependent(self) -> bool:
        return self.name == "alternating_shear"

    @property
    def planar(self) -> bool:
        """A field of (x1, x2) alone, with no x3 component: every entry but ``constant``."""
        return self.name != "constant"


def _validate_params(name: str, p: dict[str, float]) -> None:
    if name == "power_singularity":
        a = p["exponent"]
        if not 0.0 < a < 2.0:
            raise ValueError(f"power_singularity exponent must lie in (0, 2), got {a}")
        if not 0.0 < p["cutoff_radius"] <= 0.5:
            raise ValueError("cutoff_radius must lie in (0, 0.5]")
    if name in ("shear", "alternating_shear"):
        m = p["cells"]
        if m < 1 or m != int(m):
            raise ValueError(f"cells must be a positive integer, got {m}")
    if name == "alternating_shear":
        if p["period"] <= 0.0:
            raise ValueError("period must be positive")
        if p["modulation_exponent"] < 0.0:
            raise ValueError("modulation_exponent must be nonnegative")
    if name == "rotation_bump":
        if not 0.0 < p["radius"] <= 0.5:
            raise ValueError("radius must lie in (0, 0.5]")


@dataclass(frozen=True)
class IntegrabilityCard:
    """Integrability metadata by construction.

    ``p_finite_below`` is the supremum of p with b in L^p_x; ``alpha_time``
    the supremum of alpha with the time integral of ||b(t)||_2^alpha finite.
    """

    p_finite_below: float
    alpha_time: float


@dataclass(frozen=True)
class TrendReport:
    verdict: str  # "converging" | "diverging" | "inconclusive"
    slope: float


def integrability_card(spec: FieldSpec) -> IntegrabilityCard:
    p_star = math.inf
    alpha = math.inf
    if spec.name == "power_singularity":
        a = spec.param("exponent")
        if a > 1.0:
            p_star = 2.0 / (a - 1.0)
    if spec.name == "alternating_shear":
        beta = spec.param("modulation_exponent")
        if beta > 0.0:
            alpha = 1.0 / beta
    return IntegrabilityCard(p_finite_below=p_star, alpha_time=alpha)


def _smoothstep(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """C-infinity step rising 0 -> 1 on [0,1] and its derivative."""
    s = np.zeros_like(t)
    ds = np.zeros_like(t)
    s[t >= 1.0] = 1.0
    mid = (t > 0.0) & (t < 1.0)
    tm = t[mid]
    g = np.exp(-1.0 / tm)
    h = np.exp(-1.0 / (1.0 - tm))
    denom = g + h
    s[mid] = g / denom
    dg = g / tm**2
    dh = h / (1.0 - tm) ** 2
    ds[mid] = (dg * h + g * dh) / denom**2
    return s, ds


def _planar_geometry(grid: TorusGrid):
    """Wrapped displacement from the cell center and its radius, on a 2D grid."""
    disp = wrapped_displacement(grid.coordinate_mesh(), [0.5, 0.5])
    w1 = np.broadcast_to(disp[0], grid.shape)
    w2 = np.broadcast_to(disp[1], grid.shape)
    r = np.sqrt(w1 * w1 + w2 * w2)
    return w1, w2, r


def _build_constant(spec: FieldSpec, grid: TorusGrid, t: float) -> VectorField:
    comps = [np.broadcast_to(spec.param(f"c{i + 1}"), grid.shape) for i in range(grid.dim)]
    return VectorField.from_arrays(grid, comps)


def _shear_arrays(grid: TorusGrid, amplitude: float, cells: float, horizontal: bool) -> list[np.ndarray]:
    x1, x2 = grid.coordinate_mesh()
    profile = amplitude * np.sin(2.0 * np.pi * cells * (x2 if horizontal else x1))
    comps = [np.broadcast_to(profile, grid.shape), np.broadcast_to(0.0, grid.shape)]
    return comps if horizontal else comps[::-1]


def _build_shear(spec: FieldSpec, grid: TorusGrid, t: float) -> VectorField:
    comps = _shear_arrays(grid, spec.param("amplitude"), spec.param("cells"), horizontal=True)
    return VectorField.from_arrays(grid, comps)


def _build_taylor_green(spec: FieldSpec, grid: TorusGrid, t: float) -> VectorField:
    a = spec.param("amplitude")
    x1, x2 = grid.coordinate_mesh()
    two_pi = 2.0 * np.pi
    b1 = -two_pi * a * np.sin(two_pi * x1) * np.cos(two_pi * x2)
    b2 = two_pi * a * np.cos(two_pi * x1) * np.sin(two_pi * x2)
    comps = [np.broadcast_to(b1, grid.shape), np.broadcast_to(b2, grid.shape)]
    return VectorField.from_arrays(grid, comps)


def _build_rotation_bump(spec: FieldSpec, grid: TorusGrid, t: float) -> VectorField:
    radius = spec.param("radius")
    _, _, r = _planar_geometry(grid)
    t_sq = (r / radius) ** 2
    psi = np.zeros(r.shape)
    inside = t_sq < 1.0
    psi[inside] = spec.param("amplitude") * np.exp(-1.0 / (1.0 - t_sq[inside]))
    psi.flags.writeable = False  # so ScalarField keeps it without a copy
    return perp_gradient(ScalarField(grid, psi))


def _power_profile(spec: FieldSpec, grid: TorusGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Planar displacement (w1, w2) and the factor with power_singularity = factor * (-w2, w1).

    b = psi'(r) e_theta with psi = A chi(r) (r^(2-a) - r2^(2-a)).  The
    constant shift makes psi vanish at the support edge, so the cutoff
    contributes no large azimuthal speed and |b| ~ r^(1-a) rules the
    integral all the way out; the factor is psi'(r)/r.  Every other profile
    array is freed on return.
    """
    a = spec.param("exponent")
    r2 = spec.param("cutoff_radius")
    r1 = 0.7 * r2
    w1, w2, r = _planar_geometry(grid)

    step, dstep = _smoothstep((r - r1) / (r2 - r1))
    chi = 1.0 - step
    dchi = -dstep / (r2 - r1)
    del step, dstep  # not held through the factor's temporaries, which set the builder's peak

    safe_r = np.where(r > 0.0, r, 1.0)
    shifted = safe_r ** (2.0 - a) - r2 ** (2.0 - a)
    factor = spec.param("amplitude") * (dchi * shifted / safe_r + (2.0 - a) * chi * safe_r**-a)
    return w1, w2, np.where(r > 0.0, factor, 0.0)


def _build_power_singularity(spec: FieldSpec, grid: TorusGrid, t: float) -> VectorField:
    w1, w2, factor = _power_profile(spec, grid)
    comps = [-factor * w2, factor * w1]
    for c in comps:
        c.flags.writeable = False  # so ScalarField keeps them without a copy
    raw = VectorField.from_arrays(grid, comps)
    projected = leray_project(raw)

    a = spec.param("exponent")
    notes = []
    if a >= 1.0:
        notes.append(f"singular peak truncated at the grid scale (exponent={a}, N={grid.points_per_axis})")
    shift = _relative_l2_shift(raw, projected)
    notes.append(f"leray projection moved the field by {shift:.3e} relative L2")
    return VectorField(grid, projected.components, notes=tuple(notes))


def _relative_l2_shift(before: VectorField, after: VectorField) -> float:
    num = 0.0
    den = 0.0
    for b, a in zip(before.components, after.components):
        num += float(np.sum((b.values - a.values) ** 2))
        den += float(np.sum(b.values**2))
    return math.sqrt(num / den) if den > 0.0 else 0.0


def _switch_parity(spec: FieldSpec, t: float) -> int:
    """0 while alternating_shear runs horizontally, 1 while it runs vertically."""
    return int(math.floor(t / spec.param("period"))) % 2


def _build_alternating_shear(spec: FieldSpec, grid: TorusGrid, t: float) -> VectorField:
    beta = spec.param("modulation_exponent")
    if beta > 0.0 and t <= 0.0:
        raise ValueError("alternating_shear with modulation_exponent > 0 is singular at t = 0")
    modulation = t**-beta if beta > 0.0 else 1.0
    horizontal = _switch_parity(spec, t) == 0
    comps = _shear_arrays(grid, spec.param("amplitude") * modulation, spec.param("cells"), horizontal=horizontal)
    return VectorField.from_arrays(grid, comps)


_BUILDERS = {
    "constant": _build_constant,
    "shear": _build_shear,
    "taylor_green": _build_taylor_green,
    "rotation_bump": _build_rotation_bump,
    "power_singularity": _build_power_singularity,
    "alternating_shear": _build_alternating_shear,
}


def check_dim(spec: FieldSpec, dim: int) -> None:
    """Refuse a planar entry in fewer than two dimensions."""
    if dim < 2 and spec.planar:
        raise ValueError(f"field {spec.name!r} requires dim >= 2")


def instantiate(spec: FieldSpec, grid: TorusGrid, t: float = 0.0) -> VectorField:
    """Sample the catalog field on the grid at time t, refused unless divergence-free.

    The field's spectral divergence, relative to its largest component, must
    not exceed ``DIVERGENCE_GATE``; no tag on the field stands in for this
    measurement.  Static entries ignore t.  The singular entry is returned
    already projected onto the discretely divergence-free fields; what the
    projection changed is recorded in the field's notes.

    In 3D every entry is built, projected and gated on the (x1, x2) plane
    and lifted: each plane component repeated along x3 as a read-only view,
    and a broadcast third component, ``c3`` for ``constant`` and 0 for the
    planar entries, which are vortex columns.
    """
    check_dim(spec, grid.dim)
    build_grid = TorusGrid(2, grid.points_per_axis) if grid.dim == 3 else grid
    field = _BUILDERS[spec.name](spec, build_grid, t)
    defect = divergence_defect(field)
    if defect > DIVERGENCE_GATE:
        raise AssertionError(f"catalog field {spec.name!r} failed the divergence gate: {defect:.3e}")
    if build_grid == grid:
        return field
    comps = [np.broadcast_to(c.values[..., np.newaxis], grid.shape) for c in field.components]
    comps.append(np.broadcast_to(spec.param("c3") if spec.name == "constant" else 0.0, grid.shape))
    return VectorField.from_arrays(grid, comps, notes=field.notes)


def sample_key(spec: FieldSpec, t: float) -> int | float | None:
    """Which times share one sample of the field: equal keys, identical arrays.

    ``instantiate(spec, grid, t)`` returns byte-identical arrays for any two
    times with equal keys.  The key is None for a static entry, the switch
    parity for an unmodulated alternating_shear, and t itself when the
    amplitude is modulated.
    """
    if not spec.time_dependent:
        return None
    if spec.param("modulation_exponent") > 0.0:
        return t
    return _switch_parity(spec, t)


class VelocitySampler:
    """b(t) of a source b (None, a VectorField or a FieldSpec), optionally
    mollified, sampled once per ``sample_key`` as (field, max |b|);
    with no source, ``field(t)`` is None and ``max_abs(t)`` is 0.

    At most two samples are kept, the oldest dropped first: both parities of
    a switching field fit, and callers ask for time-keyed samples in increasing t.
    """

    def __init__(self, b, grid: TorusGrid, moll: Mollifier | None = None):
        if isinstance(b, VectorField):
            if b.grid != grid:
                raise ValueError("velocity field grid does not match the solution grid")
        elif b is not None and not isinstance(b, FieldSpec):
            raise TypeError(f"unsupported velocity source {type(b).__name__}")
        self.b = b
        self.grid = grid
        self._moll = moll
        self._samples: dict[object, tuple[VectorField, float]] = {}

    def _sample(self, t: float) -> tuple[VectorField, float] | None:
        if self.b is None:
            return None
        key = sample_key(self.b, t) if isinstance(self.b, FieldSpec) else None
        if key not in self._samples:
            v = self.b if isinstance(self.b, VectorField) else instantiate(self.b, self.grid, t)
            if self._moll is not None:
                v = mollify(v, self._moll)
            if len(self._samples) == 2:
                del self._samples[next(iter(self._samples))]
            self._samples[key] = v, v.max_abs()
        return self._samples[key]

    def field(self, t: float) -> VectorField | None:
        sample = self._sample(t)
        return None if sample is None else sample[0]

    def max_abs(self, t: float) -> float:
        sample = self._sample(t)
        return 0.0 if sample is None else sample[1]


def log_log_slope(x, y) -> float:
    """Least-squares slope of log(y) against log(x); y is floored at 1e-300 so a zero stays finite."""
    return float(np.polyfit(np.log(x), np.log(np.maximum(y, 1e-300)), 1)[0])


def _fit_trend(samples) -> TrendReport:
    """Classify the slope of log(integral) against log(x) over the (x, integral) samples."""
    slope = log_log_slope([x for x, _ in samples], [integral for _, integral in samples])
    if slope < CONVERGING_SLOPE:
        verdict = "converging"
    elif slope > DIVERGING_SLOPE:
        verdict = "diverging"
    else:
        verdict = "inconclusive"
    return TrendReport(verdict=verdict, slope=slope)


def refinement_grids(resolutions, dim: int) -> tuple[TorusGrid, ...]:
    """The grids of a refinement trend: at least 3 strictly increasing sizes, each a valid ``TorusGrid(dim, n)``."""
    resolutions = [int(n) for n in resolutions]
    if len(resolutions) < 3:
        raise ValueError("need at least 3 resolutions to fit a trend")
    if any(a >= b for a, b in zip(resolutions, resolutions[1:])):
        raise ValueError(f"resolutions must be strictly increasing, got {resolutions}")
    return tuple(TorusGrid(dim, n) for n in resolutions)


def estimate_integrability(spec: FieldSpec, p_values, resolutions, dim: int = 2) -> tuple[TrendReport, ...]:
    """Classify the quadrature trend of the integral of |b|^p under grid refinement, for each p.

    Fits log(integral) vs log(N); a flat fit means the quadrature converges
    and b is p-integrable, sustained growth means it diverges.  A switching
    field is sampled mid-way through its first period.  Each grid is
    instantiated once and serves every p; the reports follow ``p_values``.
    """
    grids = refinement_grids(resolutions, dim)
    t = 0.5 * spec.param("period") if spec.time_dependent else 0.0
    samples = [[] for _ in p_values]
    for grid in grids:
        magnitude = instantiate(spec, grid, t).magnitude()
        for p, trend in zip(p_values, samples):
            trend.append((float(grid.points_per_axis), lp_norm(magnitude, p) ** p))
    return tuple(_fit_trend(trend) for trend in samples)


def estimate_time_integrability(spec: FieldSpec, grid: TorusGrid, alpha: float) -> TrendReport:
    """Trend of the integral of ||b(t)||_2^alpha over [t_min, T] as t_min -> 0, with T = 1.

    The lower cutoff is refined dyadically from T/20 over 6 levels, each
    integrated over 600 geometric nodes; growth without bound flags a
    diverging time integral.
    """
    if alpha < 1.0:
        raise ValueError("alpha must be >= 1")
    t_final, levels, nodes_per_level = 1.0, 6, 600
    samples = []
    for j in range(levels):
        t_min = (t_final / 20.0) * 0.5**j
        nodes = np.geomspace(t_min, t_final, nodes_per_level)
        norms = np.array([lp_norm(instantiate(spec, grid, float(s)).magnitude(), 2.0) for s in nodes])
        integral = float(np.trapezoid(norms**alpha, nodes))
        samples.append((1.0 / t_min, integral))
    return _fit_trend(samples)


def catalog_entries() -> tuple[dict, ...]:
    """One row per catalog entry: name, description, card at defaults."""
    rows = []
    for name in _DEFAULT_PARAMS:
        spec = FieldSpec(name)
        card = integrability_card(spec)
        rows.append(
            {
                "name": name,
                "description": _DESCRIPTIONS[name],
                "p_finite_below": card.p_finite_below,
                "alpha_time": card.alpha_time,
                "time_dependent": spec.time_dependent,
            }
        )
    return tuple(rows)


CATALOG = tuple(_DEFAULT_PARAMS)
