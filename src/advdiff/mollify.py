"""Smoothing kernel families rho^delta and spectral convolution on the torus."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import ScalarField, TorusGrid, VectorField, wrapped_radius_sq
from .spectral import spectral_core

__all__ = [
    "GAUSSIAN_PERIODIZED",
    "BUMP_COMPACT",
    "PROFILES",
    "MIN_DELTA_FACTOR",
    "MAX_DELTA",
    "Mollifier",
    "UnderResolvedKernelError",
    "check_profile",
    "check_resolvable",
    "kernel_multiplier",
    "mollify",
    "dyadic_schedule",
]

GAUSSIAN_PERIODIZED = "gaussian_periodized"
BUMP_COMPACT = "bump_compact"
PROFILES = (GAUSSIAN_PERIODIZED, BUMP_COMPACT)

# Kernels narrower than this many cells degenerate into grid deltas and the
# convolution stops measuring anything; reject them outright.
MIN_DELTA_FACTOR = 1.5

# The wrapped Gaussian sums about 4 delta periodic shifts, so its sampling
# time grows with delta; at 10 it is already flat to 1e-6 on the unit torus.
MAX_DELTA = 10.0


class UnderResolvedKernelError(ValueError):
    """Kernel scale delta too small for the grid spacing."""


def check_profile(profile: str) -> None:
    """Raise ``ValueError`` unless ``profile`` names one of the kernel families in ``PROFILES``."""
    if profile not in PROFILES:
        raise ValueError(f"unknown mollifier profile {profile!r}; choose from {PROFILES}")


@dataclass(frozen=True)
class Mollifier:
    """Convolution kernel family member: a profile shape at scale 0 < delta <= MAX_DELTA.

    Both profiles are nonnegative with unit mass after sampling; the
    gaussian profile is the wrapped Gaussian of standard deviation delta/3,
    the bump profile vanishes identically outside geodesic radius delta.
    """

    profile: str
    delta: float

    def __post_init__(self) -> None:
        check_profile(self.profile)
        if not self.delta > 0.0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        if self.delta > MAX_DELTA:
            raise ValueError(f"delta must be at most {MAX_DELTA}, got {self.delta}")


def check_resolvable(m: Mollifier, grid: TorusGrid) -> None:
    """Raise ``UnderResolvedKernelError`` if ``m`` is narrower than the grid can resolve."""
    if m.delta < MIN_DELTA_FACTOR * grid.spacing:
        raise UnderResolvedKernelError(
            f"kernel scale delta={m.delta} under-resolved on spacing {grid.spacing}"
            f" (resolvable only for delta >= {MIN_DELTA_FACTOR} * spacing)"
        )


def _sample_kernel(m: Mollifier, grid: TorusGrid) -> np.ndarray:
    if m.profile == GAUSSIAN_PERIODIZED:
        sigma = m.delta / 3.0
        reach = int(math.ceil(6.0 * sigma)) + 1
        t = grid.axis_coordinates()
        line = np.zeros_like(t)
        for shift in range(-reach, reach + 1):
            line += np.exp(-((t - shift) ** 2) / (2.0 * sigma * sigma))
        axes = np.meshgrid(*([line] * grid.dim), indexing="ij", sparse=True)
        prod = np.ones(grid.shape)
        for a in axes:
            prod = prod * a
        return prod
    # compact bump exp(-1/(1 - (r/delta)^2)) inside geodesic radius delta
    t_sq = wrapped_radius_sq(grid, [0.0] * grid.dim) / (m.delta * m.delta)
    vals = np.zeros(grid.shape)
    inside = t_sq < 1.0
    vals[inside] = np.exp(-1.0 / (1.0 - t_sq[inside]))
    return vals


def _kernel_values(m: Mollifier, grid: TorusGrid) -> np.ndarray:
    check_resolvable(m, grid)
    vals = _sample_kernel(m, grid)
    mass = float(np.sum(vals)) * grid.cell_volume
    if mass <= 0.0:
        raise UnderResolvedKernelError(f"kernel has no mass on the grid (delta={m.delta})")
    return vals / mass


@lru_cache(maxsize=128)
def kernel_multiplier(m: Mollifier, grid: TorusGrid) -> np.ndarray:
    """Fourier multiplier of convolution with rho^delta, in the half-spectrum layout.

    Multiplying ``spectral_core(grid).forward(f)`` by it convolves f with the
    sampled kernel.  It is real because the kernel is even, and its zero mode
    is pinned to 1 so convolution preserves the mean exactly.  The array is
    cached per (m, grid) and read-only, a real copy rather than a view that
    would keep the complex spectrum alive.  Raises UnderResolvedKernelError
    when delta is below the resolvable floor.
    """
    mult = np.ascontiguousarray((spectral_core(grid).forward(_kernel_values(m, grid)) / grid.size).real)
    mult[(0,) * grid.dim] = 1.0
    mult.flags.writeable = False
    return mult


def _mollify_scalar(f: ScalarField, m: Mollifier) -> ScalarField:
    core = spectral_core(f.grid)
    return ScalarField(f.grid, core.inverse(core.forward(f.values) * kernel_multiplier(m, f.grid)))


def mollify(f, m: Mollifier):
    """Convolve a scalar or vector field with rho^delta (spectral product).

    The convolution is the exact discrete circular convolution with the
    sampled kernel, so unit mass makes it mean-preserving and an average
    with nonnegative weights, hence an L^p contraction for every p.
    """
    if isinstance(f, ScalarField):
        return _mollify_scalar(f, m)
    if isinstance(f, VectorField):
        comps = tuple(_mollify_scalar(c, m) for c in f.components)
        return VectorField(f.grid, comps, notes=f.notes)
    raise TypeError(f"cannot mollify object of type {type(f).__name__}")


def dyadic_schedule(delta0: float, levels: int) -> tuple[float, ...]:
    """delta_j = delta0 * 2^-j for j = 0, ..., levels-1."""
    if levels < 1:
        raise ValueError("need at least one level")
    if delta0 <= 0.0:
        raise ValueError("delta0 must be positive")
    return tuple(delta0 * 0.5**j for j in range(levels))
