"""Transport-mollification commutators and their convergence studies.

The commutator r^delta = b . grad(w * rho^delta) - (b . grad w) * rho^delta
measures how far smoothing fails to commute with transport.  Its decay in
L^1 over space-time (Lipschitz-type velocities) or in L^2_t H^-1_x (merely
integrable velocities paired with bounded data) is what the uniqueness and
regularity mechanisms run on; this module measures those norms on dyadic
kernel schedules and fits empirical rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import ScalarField, TorusGrid, VectorField, lp_norm
from .library import FieldSpec, instantiate, log_log_slope, sample_key
from .mollify import Mollifier, check_resolvable, kernel_multiplier
from .spectral import spectral_core

__all__ = [
    "L1_SPACETIME",
    "L2_HMINUS1",
    "NORM_TYPES",
    "CommutatorStudyConfig",
    "DecayStudy",
    "convergence_study",
    "summarize_decay",
]

L1_SPACETIME = "L1_spacetime"
L2_HMINUS1 = "L2_Hminus1"
NORM_TYPES = (L1_SPACETIME, L2_HMINUS1)

EXACT_FLOOR = 1e-12
NO_DECAY_SLACK = 1.2  # a level may exceed its predecessor by at most 20%


class _Transport:
    """The delta-independent half of the commutator of one (b, w) on one grid, which the caller ensures.

    Holds b, the coefficients of w and those of b . grad w, so a kernel level
    costs d inverse transforms and one more: an inverse for r^delta, a forward for its coefficients.
    ``w_hat``, if given, is w's coefficients from an earlier transport of the same w.
    """

    def __init__(self, b: VectorField, w: ScalarField, w_hat: np.ndarray | None = None) -> None:
        self.b = b
        self.core = spectral_core(w.grid)
        self.w_hat = self.core.forward(w.values) if w_hat is None else w_hat
        self.advected_hat = self.core.forward(self._dot_grad(self.w_hat))

    def _dot_grad(self, coeffs: np.ndarray) -> np.ndarray:
        """b . grad of the field with half-spectrum coefficients ``coeffs``."""
        out = None
        for bj, ikj in zip(self.b.components, self.core.ik):
            term = self.core.inverse(ikj * coeffs)
            term *= bj.values
            out = term if out is None else np.add(out, term, out=out)
        return out

    def remainder(self, mult: np.ndarray) -> ScalarField:
        """r^delta for the kernel whose multiplier is ``mult``."""
        r = self._dot_grad(mult * self.w_hat)
        r -= self.core.inverse(mult * self.advected_hat)
        r.flags.writeable = False  # ScalarField keeps a read-only array without copying it
        return ScalarField(self.b.grid, r)

    def hminus1_sq(self, mult: np.ndarray) -> float:
        """||r^delta||_{H^-1}^2 from its coefficients F[b . grad(w * rho^delta)] - mult * advected_hat; r never reaches the grid."""
        r_hat = self.core.forward(self._dot_grad(mult * self.w_hat))
        r_hat -= mult * self.advected_hat
        return self.core.sobolev_sum(r_hat, -1) / self.b.grid.size**2


@dataclass(frozen=True)
class CommutatorStudyConfig:
    """A decay study: a catalog field b, one datum w, a strictly decreasing kernel schedule, one norm.

    The config validates on construction: every level must be resolvable on
    the grid (``UnderResolvedKernelError`` otherwise).
    """

    b_source: FieldSpec
    w_source: ScalarField
    delta_schedule: tuple[float, ...]
    mollifier_profile: str = "gaussian_periodized"
    norm: str = L1_SPACETIME
    t_final: float = 1.0
    time_samples: int = 1

    def __post_init__(self) -> None:
        sched = tuple(float(d) for d in self.delta_schedule)
        if len(sched) < 2:
            raise ValueError("schedule needs at least two levels")
        if any(later >= earlier for earlier, later in zip(sched, sched[1:])):
            raise ValueError("delta schedule must be strictly decreasing")
        if self.norm not in NORM_TYPES:
            raise ValueError(f"norm must be one of {NORM_TYPES}")
        if self.time_samples < 1:
            raise ValueError("time_samples must be >= 1")
        if not self.t_final > 0.0:
            raise ValueError("t_final must be positive")
        object.__setattr__(self, "delta_schedule", sched)
        for delta in sched:
            check_resolvable(Mollifier(self.mollifier_profile, delta), self.grid)

    @property
    def grid(self) -> TorusGrid:
        return self.w_source.grid


@dataclass(frozen=True)
class DecayStudy:
    """Norm-per-level table with consecutive ratios and the fitted log-log rate."""

    deltas: tuple[float, ...]
    norms: tuple[float, ...]
    ratios: tuple[float, ...]
    fitted_rate: float | None
    verdict: str  # "decay" | "no-decay" | "exact"
    norm_type: str


def _time_nodes(cfg: CommutatorStudyConfig):
    """(times, weights) of the midpoint rule in time; a static field takes one node."""
    if not cfg.b_source.time_dependent:
        return np.asarray([0.0]), np.asarray([cfg.t_final])
    m = cfg.time_samples
    times = (np.arange(m) + 0.5) * cfg.t_final / m
    weights = np.full(m, cfg.t_final / m)
    return times, weights


def _level_term(norm: str, transport: _Transport, mult: np.ndarray) -> float:
    """One node's integrand of the space-time norm at one kernel level; its remainder dies on return."""
    return lp_norm(transport.remainder(mult), 1.0) if norm == L1_SPACETIME else transport.hminus1_sq(mult)


def summarize_decay(deltas, norms, norm_type: str) -> DecayStudy:
    """Classify a norm sequence: "exact" at the roundoff floor, "no-decay" if
    any level rises beyond 20% slack, otherwise "decay" with a least-squares
    log-log rate.  The first level is excluded from the fit when five or
    more levels exist (pre-asymptotic transient)."""
    deltas = tuple(float(d) for d in deltas)
    norms = tuple(float(n) for n in norms)
    ratios = tuple(b / a if a > 0.0 else math.nan for a, b in zip(norms, norms[1:]))
    if max(norms) <= EXACT_FLOOR:
        return DecayStudy(deltas, norms, ratios, None, "exact", norm_type)
    if any(later > NO_DECAY_SLACK * earlier for earlier, later in zip(norms, norms[1:])):
        return DecayStudy(deltas, norms, ratios, None, "no-decay", norm_type)
    start = 1 if len(deltas) >= 5 else 0
    slope = log_log_slope(deltas[start:], norms[start:])
    return DecayStudy(deltas, norms, ratios, slope, "decay", norm_type)


def convergence_study(cfg: CommutatorStudyConfig) -> DecayStudy:
    """Evaluate the configured space-time norm along the schedule and fit a rate.

    Time nodes are the outer loop.  At the first node of each ``library.sample_key``
    b is instantiated, the delta-independent half of the commutator built once and
    every level's term kept under the key; each node adds its key's terms times its
    weight, in node order.  Only the terms are kept per key; w's coefficients are
    computed by the first key's transport and reused by every later one.
    """
    grid = cfg.grid
    mults = [kernel_multiplier(Mollifier(cfg.mollifier_profile, d), grid) for d in cfg.delta_schedule]
    terms: dict[int | float | None, list[float]] = {}
    w_hat = None
    acc = [0.0] * len(mults)
    for t, wt in zip(*_time_nodes(cfg)):
        key = sample_key(cfg.b_source, float(t))
        if key not in terms:
            transport = _Transport(instantiate(cfg.b_source, grid, float(t)), cfg.w_source, w_hat)
            w_hat = transport.w_hat
            terms[key] = [_level_term(cfg.norm, transport, mult) for mult in mults]
        for j, term in enumerate(terms[key]):
            acc[j] += term * wt
    norms = acc if cfg.norm == L1_SPACETIME else [math.sqrt(a) for a in acc]
    return summarize_decay(cfg.delta_schedule, norms, cfg.norm)
