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
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.integrate import simpson

from .grid import ScalarField, TorusGrid, VectorField, h_norm, lp_from_values, lp_norm
from .library import FieldSpec, log_log_slope
from .mollify import Mollifier, check_resolvable, kernel_multiplier, mollify
from .solver import Trajectory, VelocitySampler
from .spectral import divergence, spectral_core

__all__ = [
    "L1_SPACETIME",
    "L2_HMINUS1",
    "NORM_TYPES",
    "CommutatorStudyConfig",
    "DecayStudy",
    "CouplingRecord",
    "commutator",
    "commutator_divform",
    "commutator_divb_correction",
    "convergence_study",
    "summarize_decay",
    "mollified_energy_coupling",
]

L1_SPACETIME = "L1_spacetime"
L2_HMINUS1 = "L2_Hminus1"
NORM_TYPES = (L1_SPACETIME, L2_HMINUS1)

EXACT_FLOOR = 1e-12
NO_DECAY_SLACK = 1.2  # a level may exceed its predecessor by at most 20%


def _check_grids(b: VectorField, w: ScalarField) -> None:
    if b.grid != w.grid:
        raise ValueError("velocity and scalar live on different grids")


class _Transport:
    """The delta-independent half of the commutator of one (b, w).

    Holds b, the coefficients of w and those of b . grad w, so each kernel
    level costs only its multiplier: d + 1 inverse transforms.
    """

    def __init__(self, b: VectorField, w: ScalarField) -> None:
        _check_grids(b, w)
        self.b = b
        self.core = spectral_core(w.grid)
        self.w_hat = self.core.forward(w.values)
        self.advected_hat = self.core.forward(self._dot_grad(self.w_hat))

    def _dot_grad(self, coeffs: np.ndarray) -> np.ndarray:
        """b . grad of the field with half-spectrum coefficients ``coeffs``."""
        out = np.zeros(self.b.grid.shape)
        for bj, ikj in zip(self.b.components, self.core.ik):
            out = out + bj.values * self.core.inverse(ikj * coeffs)
        return out

    def remainder(self, mult: np.ndarray) -> ScalarField:
        """r^delta for the kernel whose multiplier is ``mult``."""
        first = self._dot_grad(mult * self.w_hat)
        r = first - self.core.inverse(mult * self.advected_hat)
        r.flags.writeable = False  # ScalarField keeps a read-only array without copying it
        return ScalarField(self.b.grid, r)


def commutator(b: VectorField, w: ScalarField, m: Mollifier) -> ScalarField:
    """r^delta = b . grad(w * rho^delta) - (b . grad w) * rho^delta."""
    return _Transport(b, w).remainder(kernel_multiplier(m, w.grid))


def commutator_divform(b: VectorField, w: ScalarField, m: Mollifier) -> ScalarField:
    """div[ b (w * rho^delta) - (b w) * rho^delta ]; equals the direct form when div b = 0."""
    _check_grids(b, w)
    smooth = mollify(w, m)
    comps = []
    for bj in b.components:
        flux_direct = bj.values * smooth.values
        flux_mollified = mollify(ScalarField(w.grid, bj.values * w.values), m)
        comps.append(flux_direct - flux_mollified.values)
    return divergence(VectorField.from_arrays(w.grid, comps))


def commutator_divb_correction(b: VectorField, w: ScalarField, m: Mollifier) -> ScalarField:
    """(w * rho^delta) div b - (w div b) * rho^delta, the bounded-divergence remainder."""
    _check_grids(b, w)
    db = divergence(b)
    smooth = mollify(w, m)
    first = smooth.values * db.values
    second = mollify(ScalarField(w.grid, w.values * db.values), m)
    return ScalarField(w.grid, first - second.values)


@dataclass(frozen=True)
class CommutatorStudyConfig:
    """A decay study: fixed (b, w), a strictly decreasing kernel schedule, one norm.

    ``w_source`` is either an explicit ScalarField or a solver Trajectory,
    in which case the time quadrature runs over its recorded snapshots.
    """

    b_source: object  # FieldSpec | VectorField
    w_source: object  # ScalarField | Trajectory
    delta_schedule: tuple[float, ...]
    mollifier_profile: str = "gaussian_periodized"
    norm: str = L1_SPACETIME
    t_final: float = 1.0
    time_samples: int = 1

    def __post_init__(self) -> None:
        sched = tuple(float(d) for d in self.delta_schedule)
        if len(sched) < 2:
            raise ValueError("schedule needs at least two levels")
        if any(d <= 0.0 for d in sched):
            raise ValueError("kernel scales must be positive")
        if any(later >= earlier for earlier, later in zip(sched, sched[1:])):
            raise ValueError("delta schedule must be strictly decreasing")
        if self.norm not in NORM_TYPES:
            raise ValueError(f"norm must be one of {NORM_TYPES}")
        if not isinstance(self.b_source, (FieldSpec, VectorField)):
            raise TypeError("b_source must be a FieldSpec or a VectorField")
        if not isinstance(self.w_source, (ScalarField, Trajectory)):
            raise TypeError("w_source must be a ScalarField or a Trajectory")
        if self.time_samples < 1:
            raise ValueError("time_samples must be >= 1")
        if not self.t_final > 0.0:
            raise ValueError("t_final must be positive")
        object.__setattr__(self, "delta_schedule", sched)

    @property
    def grid(self) -> TorusGrid:
        return self.w_source.grid

    def validate_resolvable(self) -> None:
        """Raise ``UnderResolvedKernelError`` if any level is narrower than the grid resolves."""
        for delta in self.delta_schedule:
            check_resolvable(Mollifier(self.mollifier_profile, delta), self.grid)

    def validate_time_sampling(self) -> None:
        b = self.b_source
        if isinstance(b, FieldSpec) and b.time_dependent and isinstance(self.w_source, Trajectory):
            times = self.w_source.times
            if len(times) < 2:
                raise ValueError("trajectory must carry at least two snapshots")
            spacing = float(np.max(np.diff(times)))
            period = b.param("period")
            if spacing > 0.5 * period:
                raise ValueError(
                    f"snapshot spacing {spacing:.3g} too coarse for field period {period:.3g};"
                    " record at least twice per switch"
                )


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
    """(times, weights, states or None) for the rectangle rule in time."""
    if isinstance(cfg.w_source, Trajectory):
        times = np.asarray(cfg.w_source.times, dtype=np.float64)
        weights = np.diff(times)
        return times[:-1], weights, cfg.w_source.states[:-1]
    b = cfg.b_source
    time_dependent = isinstance(b, FieldSpec) and b.time_dependent
    if not time_dependent:
        return np.asarray([0.0]), np.asarray([cfg.t_final]), None
    m = cfg.time_samples
    times = (np.arange(m) + 0.5) * cfg.t_final / m
    weights = np.full(m, cfg.t_final / m)
    return times, weights, None


def _level_term(norm: str, transport: _Transport, mult: np.ndarray) -> float:
    """One node's integrand of the space-time norm at one kernel level."""
    r = transport.remainder(mult)
    return lp_norm(r, 1.0) if norm == L1_SPACETIME else h_norm(r, -1) ** 2


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


def convergence_study(cfg: CommutatorStudyConfig, threads: int = 1) -> DecayStudy:
    """Evaluate the configured space-time norm along the schedule and fit a rate.

    Time nodes are the outer loop: b is sampled through a ``VelocitySampler``
    (once per ``library.sample_key``) and at each node the delta-independent
    half of the commutator is computed once, so each level costs only its
    kernel multiplier.  Only one node's pieces are held at a time.
    ``threads`` fans out the levels within each node; every level sums its
    node terms in node order, so the norms do not depend on the thread count.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    cfg.validate_resolvable()
    cfg.validate_time_sampling()
    grid = cfg.grid
    mults = [kernel_multiplier(Mollifier(cfg.mollifier_profile, d), grid) for d in cfg.delta_schedule]
    times, weights, states = _time_nodes(cfg)
    sampler = VelocitySampler(cfg.b_source, grid)
    acc = [0.0] * len(mults)
    with ThreadPoolExecutor(max_workers=threads) if threads > 1 else nullcontext() as pool:
        fan_out = pool.map if pool is not None else map
        for i, (t, wt) in enumerate(zip(times, weights)):
            w = states[i] if states is not None else cfg.w_source
            transport = _Transport(sampler.field(float(t)), w)
            for j, term in enumerate(fan_out(partial(_level_term, cfg.norm, transport), mults)):
                acc[j] += term * wt
    norms = acc if cfg.norm == L1_SPACETIME else [math.sqrt(a) for a in acc]
    return summarize_decay(cfg.delta_schedule, norms, cfg.norm)


@dataclass(frozen=True)
class CouplingRecord:
    delta: float
    energy_residual: float
    coupling_integral: float

    @property
    def gap(self) -> float:
        return abs(self.energy_residual - self.coupling_integral)


def mollified_energy_coupling(traj: Trajectory, b, profile: str, deltas) -> tuple[CouplingRecord, ...]:
    """Check that the mollified energy budget is exactly the commutator pairing.

    For u^delta = u * rho^delta the budget
    0.5||u^delta(T)||^2 + int ||grad u^delta||^2 - 0.5||u^delta(0)||^2
    equals the space-time pairing of r^delta with u^delta up to quadrature;
    both shrink together as delta -> 0.  b is taken at each snapshot time,
    and one transport per snapshot serves every level.  Requires densely
    recorded snapshots and a velocity.
    """
    if b is None:
        raise ValueError("the energy coupling needs a velocity b: without one the commutator vanishes")
    grid = traj.grid
    if len(traj.states) < 5:
        raise ValueError("trajectory must carry densely recorded snapshots")
    times = np.asarray(traj.times, dtype=np.float64)
    cell = grid.cell_volume
    core = spectral_core(grid)
    grad_sym = 4.0 * np.pi**2 * core.derivative_ksq
    size = grid.size
    molls = [Mollifier(profile, float(delta)) for delta in deltas]
    mults = [kernel_multiplier(m, grid) for m in molls]
    sampler = VelocitySampler(b, grid)

    # Snapshots outside, levels inside: one snapshot's transport is alive at a time.
    grad_sq = [[] for _ in mults]
    pairing = [[] for _ in mults]
    half_sq = [[] for _ in mults]
    last = len(traj.states) - 1
    for k, (t, state) in enumerate(zip(times, traj.states)):
        transport = _Transport(sampler.field(float(t)), state)
        for j, mult in enumerate(mults):
            us_hat = mult * transport.w_hat
            us = core.inverse(us_hat)
            grad_sq[j].append(core.parseval_sum(us_hat, grad_sym) / size**2)
            r = transport.remainder(mult)
            pairing[j].append(float(np.sum(r.values * us)) * cell)
            if k in (0, last):
                half_sq[j].append(0.5 * lp_from_values(us, 2.0, cell) ** 2)

    out = []
    for m, grad_j, pairing_j, (half_start, half_end) in zip(molls, grad_sq, pairing, half_sq):
        residual = half_end + float(simpson(np.asarray(grad_j), x=times)) - half_start
        coupling = float(simpson(np.asarray(pairing_j), x=times))
        out.append(CouplingRecord(m.delta, residual, coupling))
    return tuple(out)
