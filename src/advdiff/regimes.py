"""Executable well-posedness map for the advection-diffusion problem.

A query point carries the dimension and the reciprocals (1/alpha, 1/p, 1/q)
of the time integrability of b, the space integrability of b and the
integrability of the initial datum.  ``classify`` answers which
existence/uniqueness/regularity statements apply there, which nonuniqueness
constructions are known, and which open questions govern the remaining gap;
``emit_region_map`` rasterizes a (1/p, 1/q) square into region labels.

Conventions: all inequalities are non-strict on the closed regions; every
tag and question is attached only where the product u*b is defined, since
the equation has no meaning otherwise.
"""

from __future__ import annotations

import os
from bisect import bisect_left, bisect_right
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from html import escape

__all__ = [
    "RegimeQuery",
    "RegimeReport",
    "RegionMap",
    "classify",
    "classify_exponents",
    "reciprocal_exponent",
    "check_resolution",
    "emit_region_map",
    "region_map_csv",
    "region_map_svg",
    "STATEMENTS",
    "FLAG_NAMES",
]

FLAG_NAMES = (
    "product_defined",
    "distributional_exists",
    "parabolic_exists",
    "parabolic_unique",
    "all_distributional_parabolic",
)

# Statement registry: stable ids with formula-level anchors.  These strings
# are snapshot-tested; change them only deliberately.
STATEMENTS: dict[str, str] = {
    "product_defined": "1/p + 1/q <= 1: the product u b is integrable, so the weak formulation makes sense",
    "distributional_exists": "b in L^1_t L^p_x divergence-free, u0 in L^q, 1/p + 1/q <= 1: a distributional solution exists",
    "parabolic_exists": "p >= 2 and q >= 2: at least one parabolic solution (finite dissipation) exists",
    "parabolic_unique": "min(alpha, p, q) >= 2: at most one parabolic solution",
    "all_distributional_parabolic": "alpha >= 2 and 1/p + 1/q <= 1/2: every distributional solution is parabolic and obeys the exact energy balance",
    "CIH1": "p < 2d/(d+2): infinitely many solutions in C_t H^1_x are known",
    "DISTR": "d > 2, 1/p + 1/q = 1, p < d: distributional solutions are known to be nonunique",
    "P2Q2": "d > 2, p = q = 2: infinitely many distributional solutions although the parabolic one is unique",
    "Q1": "open: behaviour of parabolic uniqueness for 2d/(d+2) <= p < 2",
    "Q2": "open: nonuniqueness in L^2_t H^1_x for fields merely L^2 in time",
    "Q3": "open: uniqueness of parabolic solutions for b in L^r_t L^2_x with 1 <= r < 2",
    "Q4": "open: parabolic regularity of distributional solutions when b is L^r in time, r < 2, and 1/p + 1/q <= 1/2",
    "Q5": "open: a distributional non-parabolic solution in dimension 2 with p = q = 2 (also for autonomous b)",
    "Q6": "open: distributional non-parabolic solutions in the window 1/2 < 1/p + 1/q < 1",
}


@dataclass(frozen=True)
class RegimeQuery:
    """Query point (d, 1/alpha, 1/p, 1/q); reciprocals lie in [0,1] (exponents in [1,inf])."""

    d: int
    inv_alpha: float
    inv_p: float
    inv_q: float

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError("dimension must be >= 1")
        for name in ("inv_alpha", "inv_p", "inv_q"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0,1], got {v}")


def _joined(ids: tuple[str, ...]) -> str:
    return "+".join(ids) or "-"


@dataclass(frozen=True)
class RegimeReport:
    """Flags, nonuniqueness tags, open questions and their citations at one query point."""

    product_defined: bool
    distributional_exists: bool
    parabolic_exists: bool
    parabolic_unique: bool
    all_distributional_parabolic: bool
    known_nonuniqueness: tuple[str, ...]
    open_questions: tuple[str, ...]
    citations: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        chain = (
            self.parabolic_unique <= self.parabolic_exists
            and self.parabolic_exists <= self.distributional_exists
            and self.distributional_exists <= self.product_defined
            and self.all_distributional_parabolic <= self.parabolic_unique
        )
        if not chain:
            raise AssertionError("regime report violates the implication chain")

    @cached_property
    def flags(self) -> tuple[bool, ...]:
        return tuple(getattr(self, name) for name in FLAG_NAMES)

    @cached_property
    def label(self) -> str:
        """Region label ``flag bits|tags|questions``, e.g. ``11110|-|Q6``."""
        bits = "".join("1" if f else "0" for f in self.flags)
        return f"{bits}|{_joined(self.known_nonuniqueness)}|{_joined(self.open_questions)}"

    @cached_property
    def csv_fields(self) -> str:
        """The flag, nonuniqueness and open-question columns of a region-map CSV row."""
        flags = ",".join(str(int(f)) for f in self.flags)
        return f"{flags},{_joined(self.known_nonuniqueness)},{_joined(self.open_questions)}"

    def as_dict(self) -> dict:
        return {
            **{name: getattr(self, name) for name in FLAG_NAMES},
            "known_nonuniqueness": list(self.known_nonuniqueness),
            "open_questions": list(self.open_questions),
            "citations": [list(c) for c in self.citations],
        }


def classify(q: RegimeQuery) -> RegimeReport:
    """Apply every encoded statement to the query point.

    Points with the same flags, tags and questions share one report object.
    """
    cell, _ = _row(q.d, q.inv_alpha, q.inv_p)
    return cell(q.inv_q)


def _row(d: int, inv_alpha: float, inv_p: float):
    """The classifier of one row (d, 1/alpha, 1/p) of the square: ``(cell, cuts)``.

    The predicates that read only d, 1/alpha and 1/p are evaluated here, once;
    ``cell(inv_q)`` evaluates those that involve 1/q.  Each of those is a
    threshold in 1/q, on 1/q itself or on 1/p + 1/q, and float addition
    rounds monotonically, so on increasing ``inv_qs`` every one is constant
    between the indices that ``cuts(inv_qs)`` returns.  Hence ``cell`` gives
    the same report object for every 1/q between two consecutive cuts.  The
    arguments are not validated: ``RegimeQuery`` does that for public queries.
    """
    cih1_threshold = (d + 2.0) / (2.0 * d)
    p_ge_2 = inv_p <= 0.5
    alpha_ge_2 = inv_alpha <= 0.5
    row_tags = ("CIH1",) if inv_p > cih1_threshold else ()
    row_questions = ("Q1",) if 0.5 < inv_p <= cih1_threshold else ()
    if not alpha_ge_2 and p_ge_2:
        row_questions += ("Q2", "Q3")
    distr = d > 2 and inv_p > 1.0 / d  # and 1/p + 1/q = 1
    p2q2 = d > 2 and inv_p == 0.5  # and 1/q = 1/2
    q5 = d == 2 and inv_p == 0.5  # and 1/q = 1/2
    undefined = _report((False,) * len(FLAG_NAMES), (), ())

    def cell(inv_q: float) -> RegimeReport:
        sum_pq = inv_p + inv_q
        if not sum_pq <= 1.0:  # the product u b is undefined: no statement applies
            return undefined
        # existence needs only L^1 in time, so distributional_exists = product_defined
        parabolic_exists = p_ge_2 and inv_q <= 0.5
        flags = (True, True, parabolic_exists, parabolic_exists and alpha_ge_2, alpha_ge_2 and sum_pq <= 0.5)
        tags = row_tags
        if distr and sum_pq == 1.0:
            tags += ("DISTR",)
        if p2q2 and inv_q == 0.5:
            tags += ("P2Q2",)
        questions = row_questions
        if not alpha_ge_2 and sum_pq <= 0.5:
            questions += ("Q4",)
        if q5 and inv_q == 0.5:
            questions += ("Q5",)
        if 0.5 < sum_pq < 1.0:
            questions += ("Q6",)
        return _report(flags, tags, questions)

    def plus_p(inv_q: float) -> float:
        return inv_p + inv_q  # cell's sum_pq, rounded the same way

    def cuts(inv_qs: list[float]) -> tuple[int, ...]:
        """The indices of increasing ``inv_qs`` at which a predicate of ``cell`` may change value."""
        return (
            bisect_left(inv_qs, 0.5),  # 1/q = 1/2 from here
            bisect_right(inv_qs, 0.5),  # 1/q <= 1/2 up to here
            bisect_right(inv_qs, 0.5, key=plus_p),  # 1/p + 1/q <= 1/2 up to here, > 1/2 from here
            bisect_left(inv_qs, 1.0, key=plus_p),  # 1/p + 1/q < 1 up to here, = 1 from here
            bisect_right(inv_qs, 1.0, key=plus_p),  # 1/p + 1/q <= 1 up to here
        )

    return cell, cuts


@lru_cache(maxsize=None)  # finite key space: 5 chained flags, 3 tags, 6 questions
def _report(flags: tuple[bool, ...], tags: tuple[str, ...], questions: tuple[str, ...]) -> RegimeReport:
    cited = ["product_defined"]
    cited += [name for name, on in zip(FLAG_NAMES[1:], flags[1:]) if on]
    cited += tags + questions
    return RegimeReport(
        *flags,
        known_nonuniqueness=tags,
        open_questions=questions,
        citations=tuple((sid, STATEMENTS[sid]) for sid in cited),
    )


def reciprocal_exponent(exponent) -> float:
    """1/exponent for an integrability exponent in [1, inf] (a number or "inf"/"infinity")."""
    value = float("inf") if exponent in ("inf", "infinity") else float(exponent)
    if not value >= 1.0:  # also rejects NaN
        raise ValueError(f"exponents must be >= 1 or inf, got {value}")
    return 1.0 / value


def classify_exponents(d: int, alpha, p, q) -> RegimeReport:
    """classify() with exponents given directly (numbers or "inf")."""
    inv_alpha, inv_p, inv_q = (reciprocal_exponent(e) for e in (alpha, p, q))
    return classify(RegimeQuery(d=d, inv_alpha=inv_alpha, inv_p=inv_p, inv_q=inv_q))


@dataclass(frozen=True)
class RegionMap:
    """Rasterized (1/p, 1/q) square at one (d, 1/alpha) slice; cell (i, j) is sampled at its
    center ((i + 0.5) / resolution, (j + 0.5) / resolution).  ``rows[i]`` is row i as the runs
    ``(start, stop, report)`` that tile ``[0, resolution)`` in order; neighbouring runs may share a report."""

    d: int
    inv_alpha: float
    resolution: int
    rows: tuple[tuple[tuple[int, int, RegimeReport], ...], ...]


# Bytes of one cell's CSV line and SVG <rect> line that no coordinate, label or colour shortens.
_CELL_BYTES_FLOOR = len(",,0,0,0,0,0,-,-\n") + len('<rect x="" y="" width="" height="" fill=""/>\n')


def check_resolution(resolution: int) -> None:
    """Refuse a region-map resolution below 16, or one whose ``map.csv`` and
    ``map.svg`` together would be larger than physical memory.  The files are
    written a row at a time, so this bounds their size, not the run's memory."""
    if resolution < 16:
        raise ValueError(f"resolution must be >= 16, got {resolution}")
    floor = _CELL_BYTES_FLOOR * resolution**2
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if floor > memory:
        raise ValueError(
            f"resolution {resolution}: the CSV and SVG of {resolution}^2 cells take at least "
            f"{floor} bytes, more than the {memory} bytes of physical memory"
        )


def emit_region_map(d: int, inv_alpha: float, resolution: int) -> RegionMap:
    """The (1/p, 1/q) square at (d, 1/alpha), ``resolution`` cells per side.

    Each row is kept as its runs between consecutive cuts of ``_row``: the
    cell rule is evaluated once per run, so a row costs at most 6
    evaluations, not ``resolution``.
    """
    check_resolution(resolution)
    RegimeQuery(d=d, inv_alpha=inv_alpha, inv_p=0.5, inv_q=0.5)  # validates d and 1/alpha, once
    centers = [(i + 0.5) / resolution for i in range(resolution)]  # increasing, in (0, 1) by construction
    rows = []
    for inv_p in centers:
        cell, cuts = _row(d, inv_alpha, inv_p)
        bounds = sorted({0, resolution, *cuts(centers)})
        rows.append(tuple((lo, hi, cell(centers[lo])) for lo, hi in zip(bounds, bounds[1:])))
    return RegionMap(d=d, inv_alpha=inv_alpha, resolution=resolution, rows=tuple(rows))


def region_map_csv(rm: RegionMap) -> Iterator[str]:
    """Yield the header, then one chunk per row: one line per cell, the lines of a run from one join."""
    centers = [f"{(i + 0.5) / rm.resolution:.17g}" for i in range(rm.resolution)]
    yield "inv_p,inv_q," + ",".join(FLAG_NAMES) + ",nonuniqueness,open_questions\n"
    for inv_p, row in zip(centers, rm.rows):
        head = f"{inv_p},"
        parts = []
        for start, stop, rep in row:
            tail = f",{rep.csv_fields}\n"
            parts += (head, (tail + head).join(centers[start:stop]), tail)
        yield "".join(parts)


_PALETTE = (
    "#4477aa", "#ee6677", "#228833", "#ccbb44", "#66ccee", "#aa3377",
    "#bbbbbb", "#cc3311", "#009988", "#ee3377", "#0077bb", "#ddaa33",
    "#555555", "#99ddff", "#44bb99", "#eedd88",
)


def region_map_svg(rm: RegionMap) -> Iterator[str]:
    """Yield the head, one chunk of <rect> lines per row, then the axes and the legend.

    One fill per distinct flag/tag/question combination, assigned in row-major
    order of first appearance, plus a citation legend; both are known before
    the head, whose height depends on the legend.
    """
    plot = 480.0
    x0, y0 = 70.0, 40.0
    cell = plot / rm.resolution
    labels: dict[str, str] = {}
    used_statements: list[str] = []
    for row in rm.rows:
        for _, _, rep in row:
            if rep.label not in labels:
                labels[rep.label] = _PALETTE[len(labels) % len(_PALETTE)]
                for sid, _ in rep.citations:
                    if sid not in used_statements:
                        used_statements.append(sid)

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
        legend.append(f'<text x="{lx + 20}" y="{ly + 12:.1f}">{escape(label, quote=False)}</text>')
        ly += 20
    ly += 16
    legend.append(f'<text x="{lx}" y="{ly:.1f}" font-weight="bold">statements</text>')
    ly += 20
    for sid in used_statements:
        legend.append(f'<text x="{lx}" y="{ly:.1f}" font-size="10">{sid}: {escape(STATEMENTS[sid], quote=False)}</text>')
        ly += 16

    height = max(y0 + plot + 60.0, ly + 20.0)
    width = lx + 620.0
    yield (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'font-family="monospace" font-size="12">\n'
    )
    res = rm.resolution
    xs = [f'<rect x="{x0 + i * cell:.2f}"' for i in range(res)]
    ys = [f' y="{y0 + (res - 1 - j) * cell:.2f}" width="{cell:.2f}" height="{cell:.2f}" fill="' for j in range(res)]
    for x, row in zip(xs, rm.rows):
        parts = []
        for start, stop, rep in row:
            tail = f'{labels[rep.label]}"/>\n'
            parts += (x, (tail + x).join(ys[start:stop]), tail)
        yield "".join(parts)
    yield "\n".join(axes + legend) + "\n</svg>\n"
