import itertools
import math
import re
import xml.etree.ElementTree as ET

import hypothesis
import hypothesis.strategies as st
import pytest

import oracles
from advdiff import regimes
from advdiff.regimes import (
    FLAG_NAMES,
    STATEMENTS,
    RegimeQuery,
    classify,
    classify_exponents,
    emit_region_map,
    region_map_csv,
    region_map_svg,
)


def flags_of(report):
    return report.flags


class TestQueryValidation:
    def test_reciprocals_in_unit_interval(self):
        with pytest.raises(ValueError):
            RegimeQuery(d=2, inv_alpha=-0.1, inv_p=0.5, inv_q=0.5)
        with pytest.raises(ValueError):
            RegimeQuery(d=2, inv_alpha=0.0, inv_p=1.2, inv_q=0.5)
        with pytest.raises(ValueError):
            RegimeQuery(d=0, inv_alpha=0.0, inv_p=0.5, inv_q=0.5)

    def test_exponent_conversion(self):
        rep_direct = classify(RegimeQuery(d=3, inv_alpha=0.0, inv_p=0.0, inv_q=0.5))
        rep_exp = classify_exponents(3, "inf", math.inf, 2)
        assert rep_direct == rep_exp
        with pytest.raises(ValueError):
            classify_exponents(3, 2, 0.5, 2)


class TestClassifyExamples:
    def test_red_wedge_point_all_flags(self):
        rep = classify(RegimeQuery(d=3, inv_alpha=0.0, inv_p=0.0, inv_q=0.5))
        assert flags_of(rep) == (True, True, True, True, True)
        assert rep.known_nonuniqueness == ()
        assert rep.open_questions == ()

    def test_p2q2_point(self):
        rep = classify(RegimeQuery(d=3, inv_alpha=0.5, inv_p=0.5, inv_q=0.5))
        assert rep.parabolic_unique
        assert not rep.all_distributional_parabolic
        assert "P2Q2" in rep.known_nonuniqueness
        assert "DISTR" in rep.known_nonuniqueness

    def test_cih1_point_any_alpha(self):
        for inv_alpha in (0.0, 0.5, 1.0):
            rep = classify(RegimeQuery(d=3, inv_alpha=inv_alpha, inv_p=1.0, inv_q=0.0))
            assert rep.product_defined
            assert not rep.parabolic_exists
            assert "CIH1" in rep.known_nonuniqueness

    def test_undefined_point_carries_definedness_citation_only(self):
        rep = classify(RegimeQuery(d=3, inv_alpha=0.0, inv_p=0.7, inv_q=0.7))
        assert flags_of(rep) == (False, False, False, False, False)
        assert rep.known_nonuniqueness == ()
        assert rep.open_questions == ()
        assert [sid for sid, _ in rep.citations] == ["product_defined"]


# hand-audited table spanning every region of the exponent diagrams:
# (d, inv_alpha, inv_p, inv_q) -> (flags, tags, questions)
AUDITED_TABLE = [
    # black wedge: defined, no parabolic theory applies
    ((3, 0.0, 0.8, 0.1), (True, True, False, False, False), (), ("Q1", "Q6")),
    # blue cube but not red wedge: unique parabolic solution
    ((3, 0.4, 0.3, 0.3), (True, True, True, True, False), (), ("Q6",)),
    # red wedge: everything, incl. parabolic regularity of all solutions
    ((3, 0.2, 0.2, 0.2), (True, True, True, True, True), (), ()),
    # convex-integration nonuniqueness region
    ((3, 0.0, 0.9, 0.05), (True, True, False, False, False), ("CIH1",), ("Q6",)),
    # nonuniqueness at p = q = 2 with a unique parabolic solution
    ((3, 0.5, 0.5, 0.5), (True, True, True, True, False), ("DISTR", "P2Q2"), ()),
    # the open interval of exponents just above the known constructions
    ((3, 0.0, 0.7, 0.2), (True, True, False, False, False), (), ("Q1", "Q6")),
    # dimension two at p = q = 2: open
    ((2, 0.0, 0.5, 0.5), (True, True, True, True, False), (), ("Q5",)),
    # the open middle window in dimension two
    ((2, 0.0, 0.3, 0.4), (True, True, True, True, False), (), ("Q6",)),
    # product undefined
    ((3, 0.0, 0.7, 0.7), (False, False, False, False, False), (), ()),
]


@pytest.mark.parametrize("point,flags,tags,questions", AUDITED_TABLE)
def test_audited_region_table(point, flags, tags, questions):
    d, inv_alpha, inv_p, inv_q = point
    rep = classify(RegimeQuery(d=d, inv_alpha=inv_alpha, inv_p=inv_p, inv_q=inv_q))
    assert flags_of(rep) == flags
    assert rep.known_nonuniqueness == tags
    assert rep.open_questions == questions


def test_poor_time_integrability_annotations():
    rep = classify(RegimeQuery(d=3, inv_alpha=1.0, inv_p=0.25, inv_q=0.2))
    assert rep.parabolic_exists and not rep.parabolic_unique
    assert set(rep.open_questions) == {"Q2", "Q3", "Q4"}


class TestBoundaryInclusivity:
    def test_red_wedge_boundary_included(self):
        rep = classify(RegimeQuery(d=3, inv_alpha=0.5, inv_p=0.25, inv_q=0.25))
        assert rep.all_distributional_parabolic

    def test_definedness_boundary_included(self):
        rep = classify(RegimeQuery(d=3, inv_alpha=0.0, inv_p=0.6, inv_q=0.4))
        assert rep.product_defined

    def test_cube_boundary_included(self):
        rep = classify(RegimeQuery(d=3, inv_alpha=0.5, inv_p=0.5, inv_q=0.5))
        assert rep.parabolic_unique


class TestInvariants:
    @hypothesis.given(
        st.integers(min_value=1, max_value=4),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @hypothesis.settings(max_examples=200, deadline=None)
    def test_coherence_chain(self, d, inv_alpha, inv_p, inv_q):
        rep = classify(RegimeQuery(d=d, inv_alpha=inv_alpha, inv_p=inv_p, inv_q=inv_q))
        assert rep.parabolic_unique <= rep.parabolic_exists
        assert rep.parabolic_exists <= rep.distributional_exists
        assert rep.distributional_exists <= rep.product_defined
        assert rep.all_distributional_parabolic <= rep.parabolic_unique

    @hypothesis.given(
        st.integers(min_value=1, max_value=4),
        *(st.floats(min_value=0.0, max_value=1.0) for _ in range(6)),
    )
    @hypothesis.settings(max_examples=200, deadline=None)
    def test_monotone_improvement(self, d, a0, p0, q0, a1, p1, q1):
        base = RegimeQuery(d=d, inv_alpha=a0, inv_p=p0, inv_q=q0)
        better = RegimeQuery(d=d, inv_alpha=min(a0, a1), inv_p=min(p0, p1), inv_q=min(q0, q1))
        rep0, rep1 = classify(base), classify(better)
        for name in FLAG_NAMES:
            assert getattr(rep0, name) <= getattr(rep1, name)

    def test_citation_completeness(self):
        rep = classify(RegimeQuery(d=3, inv_alpha=0.5, inv_p=0.5, inv_q=0.5))
        cited = {sid for sid, _ in rep.citations}
        expected = {"product_defined"}
        expected |= {name for name in FLAG_NAMES if getattr(rep, name)}
        expected |= set(rep.known_nonuniqueness) | set(rep.open_questions)
        assert cited == expected
        for sid, anchor in rep.citations:
            assert anchor == STATEMENTS[sid]

    def test_statement_snapshot(self):
        # frozen anchors; change deliberately or not at all
        assert STATEMENTS["parabolic_unique"] == "min(alpha, p, q) >= 2: at most one parabolic solution"
        assert STATEMENTS["CIH1"].startswith("p < 2d/(d+2)")
        assert STATEMENTS["Q6"].startswith("open: distributional non-parabolic solutions in the window")
        assert set(STATEMENTS) == set(FLAG_NAMES) | {"CIH1", "DISTR", "P2Q2"} | {f"Q{i}" for i in range(1, 7)}


class TestRegionMap:
    def test_resolution_floor(self):
        with pytest.raises(ValueError):
            emit_region_map(2, 0.0, 8)

    def test_d2_slice_structure(self):
        rm = emit_region_map(2, 0.0, 32)
        for i in range(32):
            for j in range(32):
                inv_p, inv_q = (i + 0.5) / rm.resolution, (j + 0.5) / rm.resolution
                rep = rm.reports[i][j]
                assert rep.product_defined == (inv_p + inv_q <= 1.0)
                assert rep.parabolic_exists == (inv_p <= 0.5 and inv_q <= 0.5)

    def test_d3_wedge_inside_cube(self):
        rm = emit_region_map(3, 0.0, 32)
        wedge = {(i, j) for i in range(32) for j in range(32) if rm.reports[i][j].all_distributional_parabolic}
        cube = {(i, j) for i in range(32) for j in range(32) if rm.reports[i][j].parabolic_unique}
        assert wedge and wedge < cube  # strict inclusion

    def test_csv_shape(self):
        rm = emit_region_map(2, 0.0, 16)
        lines = region_map_csv(rm).splitlines()
        assert len(lines) == 1 + 16 * 16
        assert lines[0].startswith("inv_p,inv_q,product_defined")

    def test_svg_parses_and_has_cells(self):
        rm = emit_region_map(2, 0.0, 16)
        svg = region_map_svg(rm)
        root = ET.fromstring(svg)
        rects = [el for el in root.iter() if el.tag.endswith("rect")]
        assert len(rects) >= 16 * 16
        texts = [el.text for el in root.iter() if el.tag.endswith("text") and el.text]
        assert any("1/p" in t for t in texts)
        assert any("product_defined" in t for t in texts)


@pytest.mark.parametrize("resolution", [16, 37, 64, 128])
@pytest.mark.parametrize("inv_alpha", [0.0, 0.5, 2.0 / 3.0])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_region_map_outputs_match_per_cell_oracle(d, inv_alpha, resolution):
    # resolution 37 gives a non-dyadic cell width (.2f rounding) and a cell centre on 1/2; d = 3 crosses DISTR
    rm = emit_region_map(d, inv_alpha, resolution)
    assert region_map_csv(rm) == oracles.region_map_csv(rm)
    assert region_map_svg(rm) == oracles.region_map_svg(rm)
    for row in rm.reports:
        for rep in row:
            assert rep.label == oracles.cell_label(rep)


class TestSharedReports:
    def test_one_report_object_per_region(self):
        rm = emit_region_map(3, 0.0, 64)
        reports = [rep for row in rm.reports for rep in row]
        assert len({id(rep) for rep in reports}) <= len({rep.label for rep in reports})

    def test_same_region_same_object(self):
        a = classify(RegimeQuery(d=3, inv_alpha=0.0, inv_p=0.1, inv_q=0.2))
        b = classify(RegimeQuery(d=3, inv_alpha=0.0, inv_p=0.2, inv_q=0.1))
        assert a.label == b.label
        assert a is b


# d = 1 through 4 and 1/alpha on both sides of 1/2; resolution 37 puts a cell
# centre exactly on 1/2, which reaches the P2Q2 and Q5 equalities, and the
# dyadic resolutions reach DISTR's 1/p + 1/q = 1 exactly.
@pytest.mark.parametrize("resolution", [16, 37, 64])
@pytest.mark.parametrize("inv_alpha", [0.0, 0.5, 2.0 / 3.0, 1.0])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_region_map_reports_match_per_cell_classifier(d, inv_alpha, resolution):
    rm = emit_region_map(d, inv_alpha, resolution)
    for i in range(resolution):
        for j in range(resolution):
            inv_p, inv_q = (i + 0.5) / rm.resolution, (j + 0.5) / rm.resolution
            assert rm.reports[i][j].as_dict() == oracles.classify(d, inv_alpha, inv_p, inv_q).as_dict()


def test_region_map_evaluates_the_cell_rule_per_run(monkeypatch):
    # each row holds at most 6 runs of equal cells; one evaluation per cell would be 65,536
    calls = []
    row = regimes._row

    def counting_row(*args):
        cell, cuts = row(*args)

        def counted(inv_q):
            calls.append(inv_q)
            return cell(inv_q)

        return counted, cuts

    monkeypatch.setattr(regimes, "_row", counting_row)
    emit_region_map(3, 0.0, 256)
    assert 256 <= len(calls) <= 8 * 256


@hypothesis.given(
    d=st.integers(min_value=1, max_value=4),
    inv_alpha=st.sampled_from([0.0, 0.5, 1.0]) | st.floats(min_value=0.0, max_value=1.0),
    resolution=st.integers(min_value=16, max_value=96),
)
@hypothesis.settings(max_examples=40, deadline=None)
def test_region_map_by_runs_matches_per_cell_classifier(d, inv_alpha, resolution):
    # odd resolutions put a cell centre on 1/q = 1/2 exactly, even ones reach 1/p + 1/q = 1
    rm = emit_region_map(d, inv_alpha, resolution)
    for i, row in enumerate(rm.reports):
        for j, rep in enumerate(row):
            assert rep.as_dict() == oracles.classify(d, inv_alpha, (i + 0.5) / resolution, (j + 0.5) / resolution).as_dict(), (i, j)


@st.composite
def query_points(draw):
    """(d, 1/alpha, 1/p, 1/q) with each reciprocal on a threshold or anywhere in [0, 1]."""
    d = draw(st.integers(min_value=1, max_value=4))
    thresholds = [x for x in (0.0, 1.0 / d, 0.5, (d + 2.0) / (2.0 * d), 1.0) if x <= 1.0]
    reciprocal = st.sampled_from(thresholds) | st.floats(min_value=0.0, max_value=1.0)
    return d, draw(reciprocal), draw(reciprocal), draw(reciprocal)


@hypothesis.given(query_points())
@hypothesis.settings(max_examples=500, deadline=None)
def test_classify_matches_per_point_oracle(point):
    rep = classify(RegimeQuery(*point))
    assert rep.as_dict() == oracles.classify(*point).as_dict()


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_classify_matches_per_point_oracle_on_thresholds(d):
    # every threshold and its complement, so that 1/p + 1/q = 1 is reached
    # with 1/p on a threshold (1/4 + 3/4 at d = 4 tests DISTR's strict 1/p > 1/d)
    thresholds = {0.0, 1.0 / d, 0.5, (d + 2.0) / (2.0 * d), 1.0}
    values = sorted(x for t in thresholds for x in (t, 1.0 - t) if 0.0 <= x <= 1.0)
    for point in itertools.product([d], values, values, values):
        assert classify(RegimeQuery(*point)).as_dict() == oracles.classify(*point).as_dict(), point


def test_region_map_builds_at_most_one_query(monkeypatch):
    built = []
    post_init = RegimeQuery.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(RegimeQuery, "__post_init__", counting)
    emit_region_map(3, 0.0, 64)
    assert len(built) <= 1


@pytest.mark.parametrize("d,inv_alpha,message", [(0, 0.0, "dimension must be >= 1"), (3, 1.5, "inv_alpha must lie in [0,1]")])
def test_region_map_validates_slice(d, inv_alpha, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        emit_region_map(d, inv_alpha, 16)
