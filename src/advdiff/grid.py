"""Uniform periodic grids, field containers and norms on the flat torus [0,1)^d."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TorusGrid",
    "ScalarField",
    "VectorField",
    "lp_from_values",
    "lp_norm",
    "h_norm",
    "wrapped_displacement",
    "wrapped_radius_sq",
]


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class TorusGrid:
    """Uniform N^d sampling of the torus identified with the cube [0,1)^d.

    N must be a power of two (N >= 4); the transform and the 2/3 dealiasing
    rule rely on it.  Index arithmetic wraps modulo N on every axis, so the
    grid carries no boundary.
    """

    dim: int
    points_per_axis: int

    def __post_init__(self) -> None:
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        n = self.points_per_axis
        if n < 4 or not _is_power_of_two(n):
            raise ValueError(f"points_per_axis must be a power of two >= 4, got {n}")

    @property
    def spacing(self) -> float:
        return 1.0 / self.points_per_axis

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points_per_axis,) * self.dim

    @property
    def size(self) -> int:
        return self.points_per_axis**self.dim

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dim

    def axis_coordinates(self) -> np.ndarray:
        """Coordinates 0, h, 2h, ... of one axis."""
        return np.arange(self.points_per_axis) * self.spacing

    def coordinate_mesh(self) -> tuple[np.ndarray, ...]:
        """Broadcastable (sparse) coordinate arrays, one per axis."""
        axes = [self.axis_coordinates()] * self.dim
        return tuple(np.meshgrid(*axes, indexing="ij", sparse=True))


@dataclass(frozen=True)
class ScalarField:
    """Real samples of a scalar function at the grid points.

    A read-only sample holder: the array is copied on construction unless it
    is already read-only, and code computes with ``.values``.  Construction
    rejects non-finite values.
    """

    grid: TorusGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.shape != self.grid.shape:
            raise ValueError(f"values shape {arr.shape} does not match grid shape {self.grid.shape}")
        # NaN reaches both reductions and each infinity one; unlike np.isfinite, neither fills an N^d array for a broadcast view
        if not (math.isfinite(np.max(arr)) and math.isfinite(np.min(arr))):
            raise ValueError("field values must be finite (no NaN/Inf)")
        if arr.flags.writeable:
            arr = arr.copy()
            arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @classmethod
    def constant(cls, grid: TorusGrid, value: float) -> "ScalarField":
        return cls(grid, np.full(grid.shape, float(value)))


@dataclass(frozen=True)
class VectorField:
    """dim-tuple of scalar components sharing one grid.

    The container certifies nothing: a catalog field is divergence-free
    because ``library.instantiate`` measures its spectral divergence against
    a gate.  ``notes`` is a free-form warning channel, e.g. for
    under-resolved singularities.
    """

    grid: TorusGrid
    components: tuple[ScalarField, ...]
    notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        comps = tuple(self.components)
        if len(comps) != self.grid.dim:
            raise ValueError(f"expected {self.grid.dim} components, got {len(comps)}")
        for c in comps:
            if c.grid != self.grid:
                raise ValueError("all components must share the vector field's grid")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "notes", tuple(self.notes))

    @classmethod
    def from_arrays(cls, grid: TorusGrid, arrays, notes: tuple[str, ...] = ()) -> "VectorField":
        return cls(grid, tuple(ScalarField(grid, a) for a in arrays), notes)

    def magnitude(self) -> ScalarField:
        sq = sum(c.values**2 for c in self.components)
        return ScalarField(self.grid, np.sqrt(sq))

    def max_abs(self) -> float:
        # max and -min, not max(abs): abs would fill a full array for a broadcast view
        return max(max(float(np.max(c.values)), -float(np.min(c.values))) for c in self.components)


def wrapped_displacement(coords, center) -> list[np.ndarray]:
    """Per-axis displacement coords - center wrapped to [-1/2, 1/2)."""
    return [np.mod(c - ci + 0.5, 1.0) - 0.5 for c, ci in zip(coords, center)]


def wrapped_radius_sq(grid: TorusGrid, center) -> np.ndarray:
    """Squared geodesic distance from ``center`` at every grid point."""
    out = np.zeros(grid.shape)
    for w in wrapped_displacement(grid.coordinate_mesh(), center):
        out = out + w * w
    return out


def lp_from_values(values: np.ndarray, p: float, cell_volume: float) -> float:
    """L^p norm of raw grid samples by the rectangle rule; p is not validated."""
    if math.isinf(p):
        return float(np.max(np.abs(values)))
    if p == 1.0:
        s = np.sum(np.abs(values))
    elif p == 2.0:
        s = np.sum(values * values)
    else:
        s = np.sum(np.abs(values) ** p)
    return float((s * cell_volume) ** (1.0 / p))


def lp_norm(f: ScalarField, p: float) -> float:
    """L^p norm by the rectangle rule; p = inf returns the grid maximum of |f|.

    The rectangle rule is spectrally accurate for smooth periodic integrands,
    and the grid maximum slightly under-estimates the true sup.
    """
    p = float(p)
    if not (p >= 1.0 or math.isinf(p)):
        raise ValueError(f"p must satisfy p >= 1 or p = inf, got {p}")
    return lp_from_values(f.values, p, f.grid.cell_volume)


def h_norm(f: ScalarField, s: int) -> float:
    """Sobolev norm through the Fourier multiplier (1 + 4 pi^2 |k|^2)^s, s in {-1, +1}.

    s = +1 gives the H^1 norm and s = -1 the H^-1 norm.  The multiplier norm
    is equivalent (with dimensional constants) to the duality-pairing H^-1
    norm; all tolerances in this package are stated for the multiplier form.
    """
    if s not in (-1, 1):
        raise ValueError(f"s must be -1 or +1, got {s}")
    from .spectral import spectral_core  # spectral builds on this module

    core = spectral_core(f.grid)
    coeffs = core.forward(f.values) / f.grid.size
    return math.sqrt(core.parseval_sum(coeffs, (1.0 + 4.0 * np.pi**2 * core.ksq) ** s))
