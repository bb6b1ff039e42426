"""Reference implementations the tests compare the package against.

The spectral forms here are the full-lattice complex ``np.fft`` versions of
the package's operators: every field is transformed with ``fftn`` on all N^d
modes, and the real part of ``ifftn`` is kept.  They share no code with the
half-spectrum core in ``advdiff.spectral``.

The commutator study here is the level-by-level form: every kernel level
instantiates b again at every time node and runs the commutator as four
transform passes (mollify w, its gradient, the gradient of w, mollify
b . grad w) built from the full-lattice forms.

The energy coupling here is the per-(delta, snapshot) form: it instantiates
b at every snapshot and, at every level, mollifies the snapshot and runs the
package's one-shot ``commutator``, so its couplings equal the package's bit
for bit while its energy residuals take one more transform round trip.

The regime classifier here evaluates every predicate at every point, with
no part shared between the cells of a row, and builds a fresh report each
time.  The region-map forms at the end format every cell of a ``RegionMap``
from scratch: label, flag string and coordinates, once for the CSV and once
for the SVG.  They read only the public fields of each report.

The time quadratures here are scipy's ``simpson`` and
``cumulative_simpson``.  The package ports only ``cumulative_simpson`` to
numpy, in ``advdiff.solver``, and must equal it bit for bit; its two
library-only callers of ``simpson`` import scipy's.

The catalog builders here are the full-grid forms of ``power_singularity``
and ``rotation_bump``: every radial-profile temporary spans the whole grid,
and the singular field keeps its raw components through a half-spectrum
Leray projection that subtracts out of place and copies what it returns.
In 2D they share the package's spectral core and ``perp_gradient`` but not
its smoothstep, so the package's builders must equal them bit for bit.  In
3D they build, project and differentiate on the whole N^3 grid, the
singular field through the 3D half-spectrum core and ``rotation_bump``
through the full-lattice ``gradient`` above.  The package builds a 3D
vortex column on the plane and lifts it, so it equals ``columns`` of the 2D
form bit for bit and the 3D form to roundoff.

Two helpers that only the tests use sit here too: ``kernel_field`` wraps the
package's cached kernel samples as a field, and ``lq_dissipation_check``
reads the worst increase of an L^q norm off a trajectory's records.
"""

from __future__ import annotations

import itertools
import math
from xml.sax.saxutils import escape

import numpy as np
from scipy.integrate import cumulative_simpson, simpson

from advdiff.commutators import L1_SPACETIME, CommutatorStudyConfig, CouplingRecord
from advdiff.commutators import commutator as package_commutator
from advdiff.grid import ScalarField, TorusGrid, VectorField, lp_norm, wrapped_displacement
from advdiff.library import FieldSpec, instantiate
from advdiff.mollify import Mollifier, _kernel_values
from advdiff.mollify import mollify as package_mollify
from advdiff.regimes import FLAG_NAMES, STATEMENTS, RegimeReport, RegionMap
from advdiff.solver import LQ_COLUMNS, Trajectory
from advdiff.spectral import perp_gradient, spectral_core


def geodesic_distance(x, y) -> float:
    """Distance on the torus: min over integer shifts k with |k| <= 2 of |x - y - k|.

    Coordinates must lie in [0,1)^d.  The shift search radius follows the
    definition literally even though |k| <= 1 already suffices on [0,1)^d.
    """
    xv = np.atleast_1d(np.asarray(x, dtype=np.float64))
    yv = np.atleast_1d(np.asarray(y, dtype=np.float64))
    if xv.shape != yv.shape or xv.ndim != 1 or not 1 <= xv.size <= 3:
        raise ValueError("x and y must be points of equal dimension 1, 2 or 3")
    for v in (xv, yv):
        if np.any(v < 0.0) or np.any(v >= 1.0):
            raise ValueError("coordinates must lie in [0,1)")
    best = math.inf
    for k in itertools.product(range(-2, 3), repeat=xv.size):
        kv = np.asarray(k, dtype=np.float64)
        if kv @ kv > 4.0:
            continue
        best = min(best, float(np.linalg.norm(xv - yv - kv)))
    return best


def integer_wavenumbers(grid: TorusGrid) -> tuple[np.ndarray, ...]:
    """Broadcastable integer frequency lattice in the full FFT layout, one array per axis."""
    n = grid.points_per_axis
    k1 = np.fft.fftfreq(n) * n
    return tuple(np.meshgrid(*([k1] * grid.dim), indexing="ij", sparse=True))


def derivative_wavenumbers(grid: TorusGrid) -> tuple[np.ndarray, ...]:
    """The integer lattice with the Nyquist mode zeroed per axis."""
    nyq = grid.points_per_axis // 2
    return tuple(np.where(np.abs(k) == nyq, 0.0, k) for k in integer_wavenumbers(grid))


def translate(f: ScalarField, shift) -> ScalarField:
    """g(x) = f(x - shift), computed exactly through the phase factor e^{-2 pi i k.shift}."""
    shift = np.atleast_1d(np.asarray(shift, dtype=np.float64))
    if shift.size != f.grid.dim:
        raise ValueError("shift dimension does not match the grid")
    phase = sum(k * s for k, s in zip(integer_wavenumbers(f.grid), shift))
    return ScalarField(f.grid, np.fft.ifftn(np.fft.fftn(f.values) * np.exp(-2j * np.pi * phase)).real)


def gradient(values: np.ndarray, grid: TorusGrid) -> list[np.ndarray]:
    fh = np.fft.fftn(values)
    return [np.fft.ifftn(2j * np.pi * k * fh).real for k in derivative_wavenumbers(grid)]


def divergence(components, grid: TorusGrid) -> np.ndarray:
    out = np.zeros(grid.shape, dtype=np.complex128)
    for k, c in zip(derivative_wavenumbers(grid), components):
        out += 2j * np.pi * k * np.fft.fftn(c)
    return np.fft.ifftn(out).real


def laplacian(values: np.ndarray, grid: TorusGrid) -> np.ndarray:
    ksq = sum(k * k for k in derivative_wavenumbers(grid))
    return np.fft.ifftn(-4.0 * np.pi**2 * ksq * np.fft.fftn(values)).real


def leray_project(components, grid: TorusGrid) -> list[np.ndarray]:
    ks = derivative_wavenumbers(grid)
    hats = [np.fft.fftn(c) for c in components]
    ksq = np.broadcast_to(sum(k * k for k in ks), grid.shape).copy()
    ksq[ksq == 0.0] = 1.0
    dot = sum(k * h for k, h in zip(ks, hats)) / ksq
    return [np.fft.ifftn(h - k * dot).real for k, h in zip(ks, hats)]


def smoothstep(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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


def full_grid_geometry(grid: TorusGrid):
    """Wrapped in-plane displacement from the cell center and its radius, each spanning the whole grid."""
    coords = grid.coordinate_mesh()
    disp = wrapped_displacement(coords[:2], [0.5, 0.5])
    w1 = np.broadcast_to(disp[0], grid.shape)
    w2 = np.broadcast_to(disp[1], grid.shape)
    return w1, w2, np.sqrt(w1 * w1 + w2 * w2)


def half_spectrum_leray_project(v: VectorField) -> VectorField:
    """The package's Leray projection with an out-of-place subtraction and copied outputs (dim >= 2)."""
    grid = v.grid
    core = spectral_core(grid)
    ks = core.wavenumbers
    hats = [core.forward(c.values) for c in v.components]
    ksq = core.derivative_ksq
    ksq = np.where(ksq == 0.0, 1.0, ksq)
    dot = sum(k * h for k, h in zip(ks, hats)) / ksq
    comps = [core.inverse(h - k * dot) for k, h in zip(ks, hats)]
    return VectorField.from_arrays(grid, comps, notes=v.notes)


def power_singularity(spec: FieldSpec, grid: TorusGrid) -> VectorField:
    """The catalog's power_singularity, projected, with the notes ``instantiate`` gives it."""
    a = spec.param("exponent")
    amp = spec.param("amplitude")
    r2 = spec.param("cutoff_radius")
    r1 = 0.7 * r2
    w1, w2, r = full_grid_geometry(grid)
    step, dstep = smoothstep((r - r1) / (r2 - r1))
    chi = 1.0 - step
    dchi = -dstep / (r2 - r1)
    safe_r = np.where(r > 0.0, r, 1.0)
    shifted = safe_r ** (2.0 - a) - r2 ** (2.0 - a)
    factor = amp * (dchi * shifted / safe_r + (2.0 - a) * chi * safe_r**-a)
    factor = np.where(r > 0.0, factor, 0.0)
    comps = [-factor * w2, factor * w1]
    if grid.dim == 3:
        comps.append(np.zeros(grid.shape))
    raw = VectorField.from_arrays(grid, comps)
    projected = half_spectrum_leray_project(raw)

    notes = []
    if a >= 1.0:
        notes.append(f"singular peak truncated at the grid scale (exponent={a}, N={grid.points_per_axis})")
    num = den = 0.0
    for b, p in zip(raw.components, projected.components):
        num += float(np.sum((b.values - p.values) ** 2))
        den += float(np.sum(b.values**2))
    shift = math.sqrt(num / den) if den > 0.0 else 0.0
    notes.append(f"leray projection moved the field by {shift:.3e} relative L2")
    return VectorField(grid, projected.components, notes=tuple(notes))


def rotation_bump(spec: FieldSpec, grid: TorusGrid) -> VectorField:
    """The catalog's rotation_bump: the perpendicular gradient of a compactly supported stream function."""
    _, _, r = full_grid_geometry(grid)
    t_sq = (r / spec.param("radius")) ** 2
    psi = np.zeros(grid.shape)
    inside = t_sq < 1.0
    psi[inside] = spec.param("amplitude") * np.exp(-1.0 / (1.0 - t_sq[inside]))
    if grid.dim == 2:
        return perp_gradient(ScalarField(grid, psi))
    g = gradient(psi, grid)
    return VectorField.from_arrays(grid, [-g[1], g[0], np.zeros(grid.shape)])


def columns(plane: VectorField, grid: TorusGrid) -> VectorField:
    """A planar field on ``grid``: itself in 2D; in 3D each component copied along x3, and a zero third."""
    if grid.dim == 2:
        return plane
    comps = [np.repeat(c.values[..., np.newaxis], grid.points_per_axis, axis=2) for c in plane.components]
    return VectorField.from_arrays(grid, [*comps, np.zeros(grid.shape)], notes=plane.notes)


def h_norm(values: np.ndarray, grid: TorusGrid, s: int) -> float:
    coeffs = np.fft.fftn(values) / grid.size
    mult = (1.0 + 4.0 * np.pi**2 * sum(k * k for k in integer_wavenumbers(grid))) ** s
    return float(np.sqrt(np.sum(mult * np.abs(coeffs) ** 2)))


def kernel_field(m: Mollifier, grid: TorusGrid) -> ScalarField:
    """The package's rho^delta samples, renormalized to unit discrete mass.

    Raises UnderResolvedKernelError when delta is below the resolvable floor.
    """
    return ScalarField(grid, _kernel_values(m, grid))


def mollify(values: np.ndarray, grid: TorusGrid, m: Mollifier) -> np.ndarray:
    mult = (np.fft.fftn(kernel_field(m, grid).values) / grid.size).real
    mult[(0,) * grid.dim] = 1.0
    return np.fft.ifftn(np.fft.fftn(values) * mult).real


def grad_l2_sq(values: np.ndarray, grid: TorusGrid) -> float:
    """||grad u||_2^2 through Parseval, as the solver's dissipation diagnostic measures it."""
    ksq = sum(k * k for k in derivative_wavenumbers(grid))
    uh = np.fft.fftn(values)
    return float(np.sum(4.0 * np.pi**2 * ksq * np.abs(uh) ** 2)) / grid.size**2


def lq_dissipation_check(traj: Trajectory, q: float) -> float:
    """Worst increase of ||u(t)||_q across successive records (negative = monotone)."""
    column = {exponent: name for name, exponent in LQ_COLUMNS.items()}.get(float(q))
    if column is None:
        raise ValueError(f"q must be one of {tuple(LQ_COLUMNS.values())}")
    series = traj.diagnostics[column]
    return max(b - a for a, b in zip(series, series[1:]))


def commutator(b: VectorField, w: ScalarField, m: Mollifier) -> np.ndarray:
    """r^delta = b . grad(w * rho^delta) - (b . grad w) * rho^delta in four transform passes."""
    grid = w.grid
    bs = [c.values for c in b.components]
    first = sum(bj * gj for bj, gj in zip(bs, gradient(mollify(w.values, grid, m), grid)))
    advected = sum(bj * gj for bj, gj in zip(bs, gradient(w.values, grid)))
    return first - mollify(advected, grid, m)


def study_norms(cfg: CommutatorStudyConfig) -> list[float]:
    """The study's norm at each level, with the level loop outside the time-node loop."""
    grid = cfg.grid
    if isinstance(cfg.w_source, Trajectory):
        times = np.asarray(cfg.w_source.times, dtype=np.float64)
        nodes = list(zip(times[:-1], np.diff(times), cfg.w_source.states[:-1]))
    elif isinstance(cfg.b_source, FieldSpec) and cfg.b_source.time_dependent:
        step = cfg.t_final / cfg.time_samples
        nodes = [((k + 0.5) * step, step, cfg.w_source) for k in range(cfg.time_samples)]
    else:
        nodes = [(0.0, cfg.t_final, cfg.w_source)]
    norms = []
    for delta in cfg.delta_schedule:
        m = Mollifier(cfg.mollifier_profile, delta)
        acc = 0.0
        for t, weight, w in nodes:
            b = cfg.b_source if isinstance(cfg.b_source, VectorField) else instantiate(cfg.b_source, grid, float(t))
            r = commutator(b, w, m)
            if cfg.norm == L1_SPACETIME:
                acc += float(np.sum(np.abs(r))) * grid.cell_volume * weight
            else:
                acc += h_norm(r, grid, -1) ** 2 * weight
        norms.append(acc if cfg.norm == L1_SPACETIME else math.sqrt(acc))
    return norms


def energy_coupling(traj: Trajectory, b, profile: str, deltas) -> tuple[CouplingRecord, ...]:
    """``mollified_energy_coupling`` with b instantiated at every snapshot and
    every (delta, snapshot) pair mollified and commuted from scratch."""
    grid = traj.grid
    times = np.asarray(traj.times, dtype=np.float64)
    core = spectral_core(grid)
    grad_sym = 4.0 * np.pi**2 * core.derivative_ksq
    molls = [Mollifier(profile, float(delta)) for delta in deltas]
    grad_sq = [[] for _ in molls]
    pairing = [[] for _ in molls]
    for t, state in zip(times, traj.states):
        b_t = b if isinstance(b, VectorField) else instantiate(b, grid, float(t))
        for j, m in enumerate(molls):
            us = package_mollify(state, m)
            grad_sq[j].append(core.parseval_sum(core.forward(us.values), grad_sym) / grid.size**2)
            r = package_commutator(b_t, state, m)
            pairing[j].append(float(np.sum(r.values * us.values)) * grid.cell_volume)
    out = []
    for m, grad_j, pairing_j in zip(molls, grad_sq, pairing):
        half_start, half_end = (0.5 * lp_norm(package_mollify(traj.states[k], m), 2.0) ** 2 for k in (0, -1))
        residual = half_end + float(simpson(np.asarray(grad_j), x=times)) - half_start
        coupling = float(simpson(np.asarray(pairing_j), x=times))
        out.append(CouplingRecord(m.delta, residual, coupling))
    return tuple(out)


def classify(d: int, inv_alpha: float, inv_p: float, inv_q: float) -> RegimeReport:
    """Every statement applied at one point (d, 1/alpha, 1/p, 1/q); no validation."""
    sum_pq = inv_p + inv_q
    product_defined = sum_pq <= 1.0
    distributional_exists = product_defined  # existence needs only L^1 in time
    parabolic_exists = product_defined and inv_p <= 0.5 and inv_q <= 0.5
    parabolic_unique = parabolic_exists and inv_alpha <= 0.5
    all_distributional_parabolic = inv_alpha <= 0.5 and sum_pq <= 0.5

    tags: list[str] = []
    questions: list[str] = []
    if product_defined:
        cih1_threshold = (d + 2.0) / (2.0 * d)
        if inv_p > cih1_threshold:
            tags.append("CIH1")
        if d > 2 and sum_pq == 1.0 and inv_p > 1.0 / d:
            tags.append("DISTR")
        if d > 2 and inv_p == 0.5 and inv_q == 0.5:
            tags.append("P2Q2")

        if 0.5 < inv_p <= cih1_threshold:
            questions.append("Q1")
        if inv_alpha > 0.5 and inv_p <= 0.5:
            questions.extend(("Q2", "Q3"))
        if inv_alpha > 0.5 and sum_pq <= 0.5:
            questions.append("Q4")
        if d == 2 and inv_p == 0.5 and inv_q == 0.5:
            questions.append("Q5")
        if 0.5 < sum_pq < 1.0:
            questions.append("Q6")

    flags = (product_defined, distributional_exists, parabolic_exists, parabolic_unique, all_distributional_parabolic)
    cited = ["product_defined"] + [name for name, on in zip(FLAG_NAMES[1:], flags[1:]) if on] + tags + questions
    return RegimeReport(
        *flags,
        known_nonuniqueness=tuple(tags),
        open_questions=tuple(questions),
        citations=tuple((sid, STATEMENTS[sid]) for sid in cited),
    )


def _flags(report: RegimeReport) -> tuple[bool, ...]:
    return tuple(getattr(report, name) for name in FLAG_NAMES)


def cell_label(report: RegimeReport) -> str:
    bits = "".join("1" if f else "0" for f in _flags(report))
    tags = "+".join(report.known_nonuniqueness) or "-"
    qs = "+".join(report.open_questions) or "-"
    return f"{bits}|{tags}|{qs}"


def region_map_csv(rm: RegionMap) -> str:
    lines = ["inv_p,inv_q," + ",".join(FLAG_NAMES) + ",nonuniqueness,open_questions"]
    for i in range(rm.resolution):
        for j in range(rm.resolution):
            rep = rm.reports[i][j]
            inv_p, inv_q = (i + 0.5) / rm.resolution, (j + 0.5) / rm.resolution
            flags = ",".join(str(int(f)) for f in _flags(rep))
            lines.append(
                f"{inv_p:.17g},{inv_q:.17g},{flags},"
                f"{'+'.join(rep.known_nonuniqueness) or '-'},{'+'.join(rep.open_questions) or '-'}"
            )
    return "\n".join(lines) + "\n"


_PALETTE = (
    "#4477aa", "#ee6677", "#228833", "#ccbb44", "#66ccee", "#aa3377",
    "#bbbbbb", "#cc3311", "#009988", "#ee3377", "#0077bb", "#ddaa33",
    "#555555", "#99ddff", "#44bb99", "#eedd88",
)


def region_map_svg(rm: RegionMap) -> str:
    """One fill per distinct flag/tag/question combination plus a citation legend."""
    plot = 480.0
    x0, y0 = 70.0, 40.0
    cell = plot / rm.resolution
    labels: dict[str, str] = {}
    used_statements: list[str] = []

    body = []
    for i in range(rm.resolution):
        for j in range(rm.resolution):
            rep = rm.reports[i][j]
            label = cell_label(rep)
            if label not in labels:
                labels[label] = _PALETTE[len(labels) % len(_PALETTE)]
                for sid, _ in rep.citations:
                    if sid not in used_statements:
                        used_statements.append(sid)
            x = x0 + i * cell
            y = y0 + (rm.resolution - 1 - j) * cell
            body.append(
                f'<rect x="{x:.2f}" y="{y:.2f}" width="{cell:.2f}" height="{cell:.2f}" '
                f'fill="{labels[label]}"/>'
            )

    axes = [
        f'<rect x="{x0}" y="{y0}" width="{plot}" height="{plot}" fill="none" stroke="black"/>',
        f'<text x="{x0 + plot / 2:.1f}" y="{y0 + plot + 32:.1f}" text-anchor="middle">1/p</text>',
        f'<text x="{x0 - 40:.1f}" y="{y0 + plot / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 {x0 - 40:.1f} {y0 + plot / 2:.1f})">1/q</text>',
        f'<text x="{x0 + plot / 2:.1f}" y="{y0 - 14:.1f}" text-anchor="middle">'
        f"d={rm.d}, 1/alpha={rm.inv_alpha:g}</text>",
    ]
    for frac in (0.0, 0.5, 1.0):
        axes.append(f'<text x="{x0 + frac * plot:.1f}" y="{y0 + plot + 16:.1f}" text-anchor="middle">{frac:g}</text>')
        axes.append(
            f'<text x="{x0 - 8:.1f}" y="{y0 + (1 - frac) * plot + 4:.1f}" text-anchor="end">{frac:g}</text>'
        )

    legend = []
    ly = y0
    lx = x0 + plot + 30
    legend.append(f'<text x="{lx}" y="{ly - 14}" font-weight="bold">flags|nonuniqueness|questions</text>')
    for label, color in labels.items():
        legend.append(f'<rect x="{lx}" y="{ly:.1f}" width="14" height="14" fill="{color}"/>')
        legend.append(f'<text x="{lx + 20}" y="{ly + 12:.1f}">{escape(label)}</text>')
        ly += 20
    ly += 16
    legend.append(f'<text x="{lx}" y="{ly:.1f}" font-weight="bold">statements</text>')
    ly += 20
    for sid in used_statements:
        legend.append(f'<text x="{lx}" y="{ly:.1f}" font-size="10">{sid}: {escape(STATEMENTS[sid])}</text>')
        ly += 16

    height = max(y0 + plot + 60.0, ly + 20.0)
    width = lx + 620.0
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'font-family="monospace" font-size="12">\n'
        + "\n".join(body + axes + legend)
        + "\n</svg>\n"
    )
