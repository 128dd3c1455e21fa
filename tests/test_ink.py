"""Ingestion, arc-length normalization, and the coefficient pipeline."""

import dataclasses
import hashlib
import itertools
import os
import re
import sys
from collections import Counter

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_random_trace, near_duplicate_knots, skewed_knots
from oracles import inkml_points, pendigits_traces
from inkbasis import BASIS_KINDS, InkBasisError, InvalidParameterError, ink, poly
from inkbasis import (
    LabeledDataset, OrthoBasis, build_basis, knn_accuracy, synthesize,
)
from inkbasis import (
    BasisMismatchError,
    CoeffTable,
    DensePoly,
    InkTrace,
    InvalidDataError,
    ParseError,
    PiecewisePoly,
    SplineKind,
    SymbolCoeffs,
    accuracy_sweep,
    arc_length_normalize,
    build_named_basis,
    inner_closed_form,
    match_symbol,
    merge_strokes,
    parse_inkml,
    parse_pendigits,
    project,
    read_coeffs_jsonl,
    reconstruct,
    representation_error,
    save_basis,
    symbol_coeffs,
    to_coeffs,
    write_coeffs_jsonl,
)
from inkbasis.ink import (
    _GL8_NODES, _GL8_WEIGHTS, _MAX_RESCALED, _corpus, _cubic_arc_lengths, _normalize,
)
from inkbasis.poly import _BLOCK_BYTES

PENDIGITS_LINE = "0,100, 0,0, 100,0, 100,100, 0,100, 0,0, 50,50, 100,50, 7"


class TestParsePendigits:
    def test_single_line(self):
        traces = parse_pendigits(PENDIGITS_LINE)
        assert len(traces) == 1
        assert traces[0].label == "7"
        assert traces[0].points.shape == (8, 2)
        np.testing.assert_array_equal(traces[0].points[0], [0, 100])

    def test_blank_lines_skipped(self):
        traces = parse_pendigits("\n\n" + PENDIGITS_LINE + "\n\n")
        assert len(traces) == 1

    def test_wrong_field_count(self):
        bad = ",".join(["1"] * 15)
        with pytest.raises(ParseError) as exc:
            parse_pendigits("\n" + bad)
        assert exc.value.line == 2
        assert "15" in str(exc.value)

    def test_non_integer_field(self):
        bad = PENDIGITS_LINE.replace("100", "abc", 1)
        with pytest.raises(ParseError) as exc:
            parse_pendigits(bad)
        assert exc.value.line == 1

    def test_duplicate_points_collapsed(self):
        line = "0,0, 0,0, 1,1, 2,2, 3,3, 4,4, 5,5, 6,6, 3"
        (trace,) = parse_pendigits(line)
        assert len(trace.points) == 7

    def test_one_distinct_point_reports_its_line(self):
        with pytest.raises(ParseError, match="^line 2: trace has fewer than two distinct points$"):
            parse_pendigits(PENDIGITS_LINE + "\n" + "5,5, " * 8 + "1")

    def test_accepts_line_iterable(self):
        traces = parse_pendigits([PENDIGITS_LINE, "", PENDIGITS_LINE])
        assert len(traces) == 2

    @pytest.mark.parametrize("line", [
        "-1,+2, -0,3, 4,5, 6,7, 8,9, 10,11, 12,13, 14,15, +7",
        "   0,  28,  50,   7,  25,  40,  49,  22,  78,  49,  90,  32,  65,  18,  11,   0,   8",
        "\t1 ,2\t, 3,4, 5,6, 7,8, 9,10, 11,12, 13,14, 15,16, 2\r",
        "\u20031,\u00a02, 3,4, 5,6, 7,8, 9,10, 11,12, 13,14, 15,16, 2\u3000",
        "1_000,2, 3,4, 5,6, 7,8, 9,10, 11,12, 13,14, 15,16, 1_0",
        "\u0661\u0662,\uff13, 3,4, 5,6, 7,8, 9,10, 11,12, 13,14, 15,16, \u0663",
        "9007199254740993,1, 9223372036854775809,4, -18446744073709551617,6, 7,8, 9,10, 11,12, "
        "13,14, 15,16, 4",
        "1,2, 3,4, 5,6, 7,8, 9,10, 11,12, 13,14, 15,16, 05",
        "1,2, 3,4, 5,6, 7,8, 9,10, 11,12, 13,14, 15,16, " + "9" * 400,
        "9" * 400 + ",2, 3,4, 5,6, 7,8, 9,10, 11,12, 13,14, 15,16, 1",
        "1,-" + "9" * 400 + ", 3,4, 5,6, 7,8, 9,10, 11,12, 13,14, 15,16, 1",
        "1" + "0" * 308 + ",2, 3,4, 5,6, 7,8, 9,10, 11,12, 13,14, 15,16, 1",
        "1.0,2, 3,4, 5,6, 7,8, 9,10, 11,12, 13,14, 15,16, 1",
        "0x10,2, 3,4, 5,6, 7,8, 9,10, 11,12, 13,14, 15,16, 1",
        "1,2, 3,4, 5,6, 7,8, 9,10, 11,12, 13,14, 15,16, 1e3",
        "1__0,2, 3,4, 5,6, 7,8, 9,10, 11,12, 13,14, 15,16, 1",
        "1,,3,4, 5,6, 7,8, 9,10, 11,12, 13,14, 15,16, 1",
        "1, ,3,4, 5,6, 7,8, 9,10, 11,12, 13,14, 15,16, 1",
        "1,2, 3,4, 5,6, 7,8, 9,10, 11,12, 13,14, 15,16, \t x1 \u3000",  # quoted stripped
        "1,2, 3,4, 5,6, 7,8, 9,10, 11,12, 13,14, 15,16",
        "1,2, 3,4, 5,6, 7,8, 9,10, 11,12, 13,14, 15,16, 1, 2",
        "1,2, 3,4, 5,6, 7,8, 9,10, 11,12, 13,14, 15,16, 1,",
        ",,,,,,,,,,,,,,,,",
        "", "   ", "\t\r",
        "5,5, " * 8 + "1",
        "5,5, " * 7 + "6,6, 1",
        "1,2, 3,4, 5,6, 7,8, 9,10, 11,12, 13,14, 15,16, 1\n1,2",
        "1,2, 3,4, 5,6, 7,8, 9,10, 11,12, 13,14, 15,16\n1,2, 3,4, 5,6, 7,8, 9,10, 11,12, 13,14, "
        "15,16, 1,2",  # as text, 16 and 18 fields: 34 in all
        7, b"1,2, 3,4, 5,6, 7,8, 9,10, 11,12, 13,14, 15,16, 1", None,
    ])
    @pytest.mark.parametrize("at", [0, 2])
    def test_lines_are_read_as_the_line_by_line_reader_reads_them(self, line, at):
        # what parse_pendigits accepts and refuses, with which message and line
        # number, is what the line-by-line reference (oracles.pendigits_traces) gives,
        # though it reads each field of a line unstripped; the line sits alone, or
        # third after a good line and a blank one
        lines = [PENDIGITS_LINE, " ", line, PENDIGITS_LINE][2 - at:]
        assert _outcome(parse_pendigits, lines) == _outcome(pendigits_traces, lines)
        if all(isinstance(x, str) for x in lines):
            text = "\n".join(lines)
            assert _outcome(parse_pendigits, text) == _outcome(pendigits_traces, text)

    @pytest.mark.parametrize("early", [
        "5,5, " * 8 + "1",  # fails InkTrace
        "9" * 400 + ",2, 3,4, 5,6, 7,8, 9,10, 11,12, 13,14, 15,16, 1",  # fails the float array
        f"{2**1024 - 2**970 - 1},2, 3,4, 5,6, 7,8, 9,10, 11,12, 13,14, 15,16, 1",  # float's max
        PENDIGITS_LINE,
    ])
    @pytest.mark.parametrize("late", [
        "1,2, 3,4",
        "1,x, 3,4, 5,6, 7,8, 9,10, 11,12, 13,14, 15,16, 1",
        f"1,{-2**1024 + 2**970}, 3,4, 5,6, 7,8, 9,10, 11,12, 13,14, 15,16, 1",  # rounds past it
        None,
    ])
    def test_the_first_bad_line_raises_whatever_the_later_line_holds(self, early, late):
        # each line becomes its InkTrace before the next line is read, so a later
        # line's fault, in its fields or past float's range, must not hide an earlier line's
        lines = [PENDIGITS_LINE, early, PENDIGITS_LINE, late]
        assert _outcome(parse_pendigits, lines) == _outcome(pendigits_traces, lines)

    def test_a_one_shot_source_is_read_once(self):
        lines = [PENDIGITS_LINE, "", PENDIGITS_LINE.replace("7", "3")]
        reads = []
        source = (reads.append(line) or line for line in lines)
        assert _outcome(parse_pendigits, source) == _outcome(pendigits_traces, lines)
        assert reads == lines

    def test_the_first_bad_line_raises_before_a_later_line_is_read(self):
        reads = []

        def source():
            for line in (PENDIGITS_LINE, "5,5, " * 8 + "1", PENDIGITS_LINE):
                reads.append(line)
                yield line
            raise AssertionError("a line after the bad one was read")

        with pytest.raises(ParseError, match="^line 2: trace has fewer than two distinct points$"):
            parse_pendigits(source())
        assert len(reads) == 2


def _outcome(parse, source):
    """parse(source) as comparable values: each trace's point bytes and label, or the error."""
    try:
        return [(t.points.tobytes(), t.label) for t in parse(source)]
    except InkBasisError as exc:
        return type(exc).__name__, str(exc), exc.line


class TestInkTrace:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(InvalidDataError):
            InkTrace([(0.0, 0.0), (bad, 1.0), (2.0, 2.0)])

    def test_non_finite_inkml_rejected(self):
        with pytest.raises(InvalidDataError):
            parse_inkml("<ink><trace>0 0, nan 1, 2 2</trace></ink>")

    def test_consecutive_repeats_dropped(self):
        trace = InkTrace([(0, 0), (0, 0), (3, 4)])
        np.testing.assert_array_equal(trace.points, [[0, 0], [3, 4]])

    @pytest.mark.parametrize("points", [[(1, 2)], [(1, 2), (1, 2)], np.empty((0, 2))])
    def test_fewer_than_two_distinct_points_rejected(self, points):
        with pytest.raises(InvalidDataError, match="^trace has fewer than two distinct points$"):
            InkTrace(points)

    def test_one_point_inkml_trace_rejected(self):
        with pytest.raises(InvalidDataError, match="^trace has fewer than two distinct points$"):
            parse_inkml("<ink><trace>0 0, 0 0</trace></ink>")

    def test_ragged_points_are_typed(self):
        with pytest.raises(InvalidDataError, match=r"^trace points must be \(x, y\) pairs"):
            InkTrace([(0, 0), (1,)])

    def test_non_numeric_points_are_typed(self):
        with pytest.raises(InvalidDataError, match=r"^trace points must be \(x, y\) pairs"):
            InkTrace([("a", "b"), (1, 2)])

    @pytest.mark.parametrize(
        "points",
        [[("0", "1"), ("2", "3")], [(True, False), (False, True)], [(1j, 0), (1, 2)],
         [(0, True), (1, 2)]],
        ids=["numeric-strings", "booleans", "complex", "a-boolean-among-numbers"],
    )
    def test_numbers_in_other_types_are_refused(self, points):
        with pytest.raises(InvalidDataError, match=r"^trace points must be \(x, y\) pairs"):
            InkTrace(points)

    def test_callers_array_stays_writable(self):
        pts = np.array([(0.0, 0.0), (1.0, 0.0)])
        trace = InkTrace(pts)
        pts[0, 0] = 5.0
        assert trace.points[0, 0] == 0.0

    @pytest.mark.parametrize(
        "points",
        [np.array([(0.0, 0.0), (1.0, 0.0), (2.0, 1.0)]),
         np.array([(0.0, 0.0), (0.0, 0.0), (2.0, 1.0)]),
         np.array([(0, 0), (1, 0), (2, 1)]),
         np.array([(0, 0), (1, 0), (1, 0)]),
         InkTrace([(0.0, 0.0), (1.0, 0.0)]).points],
        ids=["float", "float-with-a-repeat", "int", "int-with-a-repeat", "another-trace's"],
    )
    def test_points_never_share_the_callers_memory(self, points):
        trace = InkTrace(points)
        assert not np.shares_memory(trace.points, points)
        assert not trace.points.flags.writeable

    @pytest.mark.parametrize("label", [7, b"a", ["a"]])
    def test_label_is_none_or_a_string(self, label):
        message = f"^label must be a string, got {re.escape(repr(label))}$"
        with pytest.raises(InvalidDataError, match=message):
            InkTrace([(0, 0), (1, 1)], label=label)
        assert InkTrace([(0, 0), (1, 1)], label=None).label is None


class TestParseInkml:
    def test_basic_trace(self):
        (trace,) = parse_inkml("<ink><trace>0 0, 1 0, 1 1</trace></ink>")
        np.testing.assert_array_equal(trace.points, [[0, 0], [1, 0], [1, 1]])

    def test_extra_channels_ignored(self):
        (trace,) = parse_inkml("<ink><trace>0 0 0.5, 1 0 0.7</trace></ink>")
        np.testing.assert_array_equal(trace.points, [[0, 0], [1, 0]])

    def test_zero_traces(self):
        assert parse_inkml("<ink></ink>") == []

    def test_document_order_and_count(self):
        traces = parse_inkml(
            "<ink><trace>0 0, 1 1</trace><trace>5 5, 6 6</trace></ink>"
        )
        assert len(traces) == 2
        np.testing.assert_array_equal(traces[1].points[0], [5, 5])

    def test_annotation_becomes_label(self):
        doc = """<ink xmlns="http://www.w3.org/2003/InkML">
            <annotation type="truth">a</annotation>
            <trace>0 0, 1 1</trace></ink>"""
        (trace,) = parse_inkml(doc)
        assert trace.label == "a"

    def test_malformed_xml(self):
        with pytest.raises(ParseError):
            parse_inkml("<ink><trace>0 0, 1 1</ink>")

    def test_non_numeric_coordinate(self):
        with pytest.raises(ParseError):
            parse_inkml("<ink><trace>0 zero, 1 1</trace></ink>")

    @pytest.mark.parametrize("text", [
        "0 0, 1 1", "1_000 2, 3 4", " 1.5 2 , 3 4 ", "+1 -2, .5 5., 1.0e+00 0001",
        "1 2 3, 4 5 abc", "1 2,, 3 4,", "1 2\n3 4, 5 6", "nan 1, 2 2", "1e400 0, 1 1",
        "infinity 0, 1 1", "inF 0, -iNfInItY 1", "\u0661\u0662 3, 4 5", "1e-400 0, 1 1",
        "0x10 1, 2 2", "1e 2, 3 4", "1__0 2, 3 4", "_1 2, 3 4", "0b1 1, 2 2", "1j 0, 1 1",
        "\u22121 0, 1 1", "1, 2 3", "1 a, 2", "1 2, 3", "0 0, 1 a, 2", "", " , ", "5 5",
        "1 2, 1 2",
    ])
    def test_points_are_read_as_float_reads_them(self, text):
        # what parse_inkml accepts and refuses, and with which message, is one
        # float() per channel (oracles.inkml_points), converted in one numpy call
        def outcome(parse):
            try:
                return [t.points.tobytes() for t in parse()]
            except InkBasisError as exc:
                return type(exc).__name__, str(exc)

        doc = f"<ink><trace>{text}</trace></ink>"
        assert outcome(lambda: parse_inkml(doc)) == outcome(lambda: [InkTrace(inkml_points(text))])

    def test_load_from_file(self, tmp_path):
        from inkbasis import load_inkml

        path = tmp_path / "sym.inkml"
        path.write_text("<ink><trace>0 0, 3 4</trace></ink>", encoding="utf-8")
        (trace,) = load_inkml(path)
        np.testing.assert_array_equal(trace.points, [[0, 0], [3, 4]])


class TestMergeStrokes:
    def test_concatenates_in_order(self):
        a = InkTrace([(0, 0), (1, 0)], label="x")
        b = InkTrace([(1, 0), (2, 0)])
        merged = merge_strokes([a, b])
        assert merged.label == "x"
        # shared junction point collapses
        np.testing.assert_array_equal(merged.points, [[0, 0], [1, 0], [2, 0]])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            merge_strokes([])

    def test_one_stroke_is_itself(self):
        a = InkTrace([(0, 0), (1, 0)], label="x")
        assert merge_strokes([a]) is a
        assert merge_strokes([a], label="y").label == "y"


class TestArcLengthNormalize:
    def test_three_four_five_triangle(self):
        n = arc_length_normalize(InkTrace([(0, 0), (3, 4)]))
        assert n.total_length == pytest.approx(5.0)
        np.testing.assert_array_equal(n.knots, [-1.0, 1.0])
        assert n.curve(-1.0)[0] == pytest.approx(0.0, abs=1e-15)
        assert n.curve(1.0)[0] == pytest.approx(6 / 5, abs=1e-14)
        assert n.curve(1.0)[1] == pytest.approx(8 / 5, abs=1e-14)

    def test_equal_segments(self):
        n = arc_length_normalize(InkTrace([(0, 0), (1, 0), (2, 0)]))
        np.testing.assert_allclose(n.knots, [-1, 0, 1], atol=1e-15)

    def test_unknown_spline_is_typed(self):
        with pytest.raises(InvalidParameterError, match="^unknown spline 'quintic'"):
            arc_length_normalize(InkTrace([(0, 0), (1, 1)]), "quintic")

    def test_degenerate(self):
        with pytest.raises(InvalidDataError, match="^trace has fewer than two distinct points$"):
            arc_length_normalize(InkTrace([(0, 0), (0, 0)]))

    @pytest.mark.parametrize("spline", [SplineKind.LINEAR, SplineKind.CUBIC])
    def test_knot_interpolation(self, rng, spline):
        for _ in range(20):
            trace = make_random_trace(rng)
            n = arc_length_normalize(trace, spline)
            scaled = trace.points * (2.0 / n.total_length)
            np.testing.assert_allclose(n.curve(n.knots), scaled, atol=1e-12)

    def test_linear_is_unit_speed(self, rng):
        trace = make_random_trace(rng, n_min=5, n_max=10)
        n = arc_length_normalize(trace, SplineKind.LINEAR)
        for sx, sy in n.curve.local:
            speed_sq = sx[1] ** 2 + sy[1] ** 2
            assert speed_sq == pytest.approx(1.0, abs=1e-12)

    def test_cubic_natural_boundary(self, rng):
        trace = make_random_trace(rng, n_min=6, n_max=10)
        n = arc_length_normalize(trace, SplineKind.CUBIC)
        h = n.knots[-1] - n.knots[-2]
        for coord in (0, 1):
            first, last = n.curve.local[0, coord], n.curve.local[-1, coord]
            # second derivative 6*c3*t + 2*c2 in the local offset t vanishes
            # at the end knots: t = 0 on the first segment, t = h on the last
            for seg, t in ((first, 0.0), (last, h)):
                c = np.zeros(4)
                c[: len(seg)] = seg
                assert 6 * c[3] * t + 2 * c[2] == pytest.approx(0.0, abs=1e-9)

    def test_cubic_overflow_is_typed(self):
        trace = InkTrace([(0.0, 0.0), (1e300, 1.0), (2.0, 2.0)])
        with pytest.raises(InvalidDataError):
            arc_length_normalize(trace, SplineKind.CUBIC)
        arc_length_normalize(trace)  # the linear spline handles it

    def test_infinite_arc_length_is_typed(self):
        trace = InkTrace([(0.0, 0.0), (1e308, 1.0), (-1e308, 2.0)])
        for spline in SplineKind:
            with pytest.raises(InvalidDataError):
                arc_length_normalize(trace, spline)

    @pytest.mark.parametrize(
        "points, linear, cubic",
        [([(0.0, 0.0), (1e308, 1e308), (-1e308, 0.0)], "arc length is not finite",
          "cubic fit is not finite: knot slopes are not finite"),
         ([(0.0, 0.0), (1e308, 0.0), (1e308, 1e-300), (2.0, 0.0)], "arc length is not finite",
          "cubic fit is not finite: knots are not strictly increasing"),
         ([(1e307, 0.0), (1e307, 1e-300), (1e307, 1.0), (0.0, 0.0)],
          "arc-length parameters collapse", "cubic fit is not finite: singular slope system"),
         ([(0.0, 0.0), (5e-324, 0.0), (1.0, 1.0)], "arc-length parameters collapse",
          "arc length is not finite")],
        ids=["slopes-overflow", "chord-knots-stall", "singular", "subnormal-gap"],
    )
    def test_a_curve_raises_the_first_check_it_fails(self, points, linear, cubic):
        # a cubic's checks: its fit on chord length, its knots, its rescaled values, its refit
        for spline, message in ((SplineKind.LINEAR, linear), (SplineKind.CUBIC, cubic)):
            with pytest.raises(InvalidDataError, match=f"^{message}"):
                arc_length_normalize(InkTrace(points), spline)

    @pytest.mark.parametrize("spline", list(SplineKind))
    def test_rescaled_overflow_is_typed(self, spline):
        # length 2, so the rescale is 1, yet a weighted integral of 1e308 overflows;
        # a length of 1e-10 rescales 1e300 past the float range
        for points in ([(1e308, 0.0), (1e308, 1.0), (1e308, 2.0)],
                       [(1e300, 0.0), (1e300, 5e-11), (1e300, 1e-10)]):
            with pytest.raises(InvalidDataError, match="^rescaled coordinates too large: "):
                arc_length_normalize(InkTrace(points), spline)

    @pytest.mark.parametrize("spline", list(SplineKind))
    def test_largest_rescaled_coordinates_project_finite(self, spline):
        trace = InkTrace([(_MAX_RESCALED, 0.0), (_MAX_RESCALED, 1.0), (_MAX_RESCALED, 2.0)])
        for kind in BASIS_KINDS:
            c = symbol_coeffs(trace, build_named_basis(kind, 100), spline)
            assert np.isfinite([c.x0, c.y0, *c.xs, *c.ys]).all(), kind

    def test_long_cubic_random_walk(self, rng):
        # segments written on the global parameter used to fail continuity here
        trace = make_random_trace(rng, n_min=120, n_max=120)
        n = arc_length_normalize(trace, SplineKind.CUBIC)
        scaled = trace.points * (2.0 / n.total_length)
        np.testing.assert_allclose(n.curve(n.knots), scaled, atol=1e-12)

    def test_knots_at_exact_ends(self, rng):
        trace = make_random_trace(rng)
        n = arc_length_normalize(trace)
        assert n.knots[0] == -1.0 and n.knots[-1] == 1.0

    @pytest.mark.parametrize("spline", [SplineKind.LINEAR, SplineKind.CUBIC])
    def test_one_curve_on_one_knot_vector(self, rng, spline):
        trace = make_random_trace(rng)
        n = arc_length_normalize(trace, spline)
        assert n.knots is n.curve.breakpoints
        assert n.curve.local.shape[:2] == (len(trace.points) - 1, 2)
        assert not n.knots.flags.writeable


class TestGaussLegendre:
    """The 8-point rule of the cubic arc length, written out as literals."""

    def test_literals_are_numpys_leggauss(self):
        nodes, weights = np.polynomial.legendre.leggauss(8)
        assert _GL8_NODES.tobytes() == nodes.tobytes()
        assert _GL8_WEIGHTS.tobytes() == weights.tobytes()

    def test_literals_lie_near_the_exact_rule(self):
        with mpmath.workdps(40):
            for x, w in zip(_GL8_NODES, _GL8_WEIGHTS):
                node = mpmath.findroot(lambda s: mpmath.legendre(8, s), mpmath.mpf(float(x)))
                slope = 8 * (node * mpmath.legendre(8, node) - mpmath.legendre(7, node)) / (node**2 - 1)
                assert abs(x - node) <= 1e-15
                assert abs(w - 2 / ((1 - node**2) * slope**2)) <= 1e-15

    def test_paired_weights_sum_to_exactly_two(self):
        # a straight unit-speed segment's length is (t1 - t0) / 2 times the weights'
        # sum in _cubic_arc_lengths' order, so it is its knot gap only if that sum is 2
        t = np.array([[0.0, 3.0, 5.0, 9.0, 9.5]])
        points = np.stack([t[0], np.zeros(5)], -1)[None]
        lengths, failure = _cubic_arc_lengths(t, points)
        assert failure.tolist() == [0]
        assert lengths.tolist() == [[3.0, 2.0, 4.0, 0.5]]


def trace_on_knots(rng, t, twin=()):
    """A trace whose chord steps follow the gaps of t; a twin point repeats its y."""
    dy = np.diff(t, prepend=t[0]) * rng.normal(scale=0.3, size=len(t))
    dy[twin] = 0.0
    return InkTrace(np.column_stack([t, np.cumsum(dy)]))


class TestBuckets:
    @pytest.mark.parametrize("n_points", [2, 3, 8, 300])
    @pytest.mark.parametrize("spline", [SplineKind.LINEAR, SplineKind.CUBIC])
    def test_bucket_equals_bucket_of_one(self, rng, spline, n_points):
        traces = [make_random_trace(rng, n_points, n_points) for _ in range(3)]
        if n_points > 2:  # the row interchange, and Gauss nodes on a neighbouring segment
            traces += [trace_on_knots(rng, skewed_knots(rng, n_points)) for _ in range(3)]
            # a few ulps can collapse the arc-length knots: the failure code is compared too
            for ulps in (2, 20, 50):
                t, twin = near_duplicate_knots(rng, n_points, ulps)
                traces.append(trace_on_knots(rng, t[:n_points], twin[twin < n_points]))
        points = np.stack([t.points for t in traces])
        together = _normalize(points, spline)
        for i in range(len(points)):
            for got, alone in zip(together, _normalize(points[i : i + 1], spline)):
                assert np.array_equal(got[i], alone[0], equal_nan=True)

    @pytest.mark.parametrize("degree", [1, 10, 60, 100])
    @pytest.mark.parametrize("spline", [SplineKind.LINEAR, SplineKind.CUBIC])
    def test_corpus_rows_equal_per_trace_coefficients(self, rng, spline, degree):
        # bucket sizes around the block size of poly._moments
        width = 2 if spline is SplineKind.LINEAR else 4
        block = _BLOCK_BYTES // (8 * 2 * (degree + width) * 7)
        traces = [make_random_trace(rng, 8, 8) for _ in range(block + 1)]
        bases = [build_named_basis(kind, degree) for kind in BASIS_KINDS]
        want = []
        for basis in bases:
            alone = [to_coeffs(arc_length_normalize(t, spline), basis) for t in traces]
            want.append(np.array([[[c.x0, *c.xs], [c.y0, *c.ys]] for c in alone]))
        for size in sorted({1, 2, block - 1, block, block + 1}):
            # the four kinds together, in one _project call
            [(idx, *_)], got = _corpus(traces[:size], spline, bases)  # one shape, one bucket
            np.testing.assert_array_equal(idx, np.arange(size))
            for kind, rows, rows_alone in zip(BASIS_KINDS, got, want):
                assert np.array_equal(rows, rows_alone[:size]), f"{kind}, {size} traces"

    @pytest.mark.parametrize("spline", [SplineKind.LINEAR, SplineKind.CUBIC])
    def test_corpus_buckets_hold_each_curve_as_alone(self, rng, spline):
        # the CLI's normalized curves and lengths are slices of the buckets
        traces = [make_random_trace(rng, 2, 9) for _ in range(30)]
        buckets, rows = _corpus(traces, spline, [])
        assert rows == []
        assert sorted(np.concatenate([idx for idx, *_ in buckets])) == list(range(30))
        for idx, knots, local, total in buckets:
            for i, k, c, length in zip(idx, knots, local, total):
                alone = arc_length_normalize(traces[i], spline)
                assert np.array_equal(k, alone.knots) and np.array_equal(c, alone.curve.local)
                assert length == alone.total_length

    def test_a_far_trace_fails_the_corpus_where_it_stands(self):
        far = InkTrace([(1e308, 0.0), (1e308, 1.0), (1e308, 2.0)], label="1")
        ok = [InkTrace([(0.0, 0.0), (1.0, i), (2.0, 0.0)], label=str(i % 2)) for i in range(1, 7)]
        for spline in SplineKind:
            with pytest.raises(InvalidDataError, match="^rescaled coordinates too large: "):
                _corpus([*ok[:3], far, *ok[3:]], spline, [])
            with pytest.raises(InvalidDataError, match="^rescaled coordinates too large: "):
                accuracy_sweep([*ok[:3], far, *ok[3:]], ["chebyshev-sobolev"], [1], degree=3,
                               spline=spline)

    @pytest.mark.parametrize("spline", [SplineKind.LINEAR, SplineKind.CUBIC])
    def test_mixed_point_counts_come_back_in_input_order(self, rng, spline, monkeypatch):
        # 250 traces of 9 points make a bucket of more than one block
        traces = [make_random_trace(rng, 2, 12) for _ in range(40)]
        traces += [make_random_trace(rng, 9, 9) for _ in range(250)]
        rng.shuffle(traces)
        basis = build_named_basis("legendre-sobolev", 10)
        # each bucket goes to the kernel as its arrays, and no PiecewisePoly is built
        calls, built = [], []
        real_project, real_init = ink._project, poly.PiecewisePoly.__post_init__
        monkeypatch.setattr(ink, "_project", lambda bp, c, b: calls.append(bp.shape)
                            or real_project(bp, c, b))
        monkeypatch.setattr(poly.PiecewisePoly, "__post_init__",
                            lambda self: built.append(1) or real_init(self))
        buckets, [rows] = _corpus(traces, spline, [basis])
        monkeypatch.undo()
        counts = Counter(len(t.points) for t in traces)
        assert sorted(len(idx) for idx, *_ in buckets) == sorted(counts.values())
        width = 2 if spline is SplineKind.LINEAR else 4
        assert counts[9] > _BLOCK_BYTES // (8 * 2 * (10 + width) * 8)
        assert sorted(calls) == sorted((len(idx), len(k[0])) for idx, k, *_ in buckets)
        assert built == []
        for t, row in zip(traces, rows):
            assert np.array_equal(row, project(arc_length_normalize(t, spline).curve, basis))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 12), scale=st.integers(-300, 300),
           rel=st.integers(-20, 20), spline=st.sampled_from(SplineKind))
    def test_every_curve_the_normalizer_accepts_is_a_piecewise_poly(self, seed, n, scale, rel,
                                                                     spline):
        # _corpus hands _normalize's arrays to the kernel unchecked: each curve it accepts
        # (code 0) must pass PiecewisePoly's checks.  Walks 10^scale across, 10^rel of that
        # off the origin, some steps 1e-8..1e-16 of the others: near-duplicate points
        rng = np.random.default_rng(seed)
        steps = rng.normal(size=(4, n - 1, 2))
        tiny = rng.random((4, n - 1, 1)) < 0.4
        steps = np.where(tiny, steps * 10.0 ** -rng.integers(8, 17, (4, n - 1, 1)), steps)
        walks = np.concatenate([np.zeros((4, 1, 2)), np.cumsum(steps, axis=1)], axis=1)
        offset = rng.choice([-1.0, 1.0], (4, 1, 2)) * 10.0 ** min(scale + rel, 307)
        for points in offset + 10.0 ** scale * walks:
            try:
                trace = InkTrace(points)
            except InvalidDataError:  # the points collapse in float precision
                continue
            knots, local, _, failure = _normalize(trace.points[None], spline)
            if failure[0] == 0:
                PiecewisePoly(knots[0], local[0])

    def test_first_failing_trace_in_input_order_raises(self):
        # linear: infinite length; cubic: the fit on chord length has infinite slopes
        huge = InkTrace([(0.0, 0.0), (1e308, 1e308), (-1e308, 0.0)])
        # linear: infinite length; cubic: chord-length knots not increasing
        wide = InkTrace([(0.0, 0.0), (1e308, 0.0), (1e308, 1e-300), (2.0, 0.0)])
        flat = InkTrace([(0.0, 0.0), (1e-300, 0.0), (1.0, 0.0), (2.0, 0.0)])  # knots collapse
        far = InkTrace([(1e308, 0.0), (1e308, 1.0), (1e308, 2.0)])  # rescaled values too large
        ok = InkTrace([(0.0, 0.0), (1.0, 1.0), (2.0, 0.0), (3.0, 1.0)])
        for spline, traces in itertools.product(SplineKind, (
                [ok, flat, huge], [ok, huge, flat], [ok, far, huge], [ok, huge, far],
                [ok, far, flat], [ok, wide, flat], [ok, flat, wide], [ok, wide, huge])):
            with pytest.raises(InvalidDataError) as alone:
                arc_length_normalize(traces[1], spline)
            with pytest.raises(InvalidDataError, match=f"^{alone.value}$"):
                _corpus(traces, spline, [])


def midpoint_resample(trace: InkTrace) -> InkTrace:
    """Insert the midpoint of every segment; geometry is unchanged."""
    pts = trace.points
    mids = (pts[:-1] + pts[1:]) / 2.0
    out = np.empty((len(pts) + len(mids), 2))
    out[0::2] = pts
    out[1::2] = mids
    return InkTrace(out, label=trace.label)


class TestToCoeffs:
    def test_straight_line_coefficients(self):
        basis = build_named_basis("chebyshev", 3)
        c = symbol_coeffs(InkTrace([(0, 0), (2, 0)]), basis)
        np.testing.assert_allclose(c.xs, [1, 0, 0], atol=1e-12)
        np.testing.assert_allclose(c.ys, [0, 0, 0], atol=1e-12)
        assert c.x0 == pytest.approx(1.0)
        assert c.length == pytest.approx(2.0)

    def test_requires_degree_one(self):
        basis = build_named_basis("chebyshev", 0)
        with pytest.raises(InvalidParameterError, match="^basis degree must be at least 1$"):
            to_coeffs(arc_length_normalize(InkTrace([(0, 0), (1, 1)])), basis)
        traces = [InkTrace([(0, 0), (1, i)], label=str(i % 2)) for i in range(1, 5)]
        with pytest.raises(InvalidParameterError, match="^basis degree must be at least 1$"):
            accuracy_sweep(traces, ["chebyshev"], [1], degree=0)

    @pytest.mark.parametrize("spline", [SplineKind.LINEAR, SplineKind.CUBIC])
    def test_one_antiderivative_table_per_curve_and_basis(self, rng, monkeypatch, spline):
        calls = []
        steps = poly._antiderivative_steps
        monkeypatch.setattr(poly, "_antiderivative_steps", lambda *a: calls.append(a) or steps(*a))
        n = arc_length_normalize(make_random_trace(rng), spline)
        for kind in ("legendre", "chebyshev", "legendre-sobolev", "chebyshev-sobolev"):
            calls.clear()
            to_coeffs(n, build_named_basis(kind, 10))
            assert len(calls) == 1
            assert calls[0][2] is n.knots

    def test_translation_invariance(self, rng):
        basis = build_named_basis("chebyshev-sobolev", 8)
        trace = make_random_trace(rng)
        a = symbol_coeffs(trace, basis)
        b = symbol_coeffs(trace.translated(1000.0, -500.0), basis)
        np.testing.assert_allclose(a.xs, b.xs, atol=1e-9)
        np.testing.assert_allclose(a.ys, b.ys, atol=1e-9)

    def test_scale_invariance(self, rng):
        basis = build_named_basis("chebyshev-sobolev", 8)
        trace = make_random_trace(rng)
        a = symbol_coeffs(trace, basis)
        b = symbol_coeffs(trace.scaled(3.0), basis)
        np.testing.assert_allclose(a.xs, b.xs, atol=1e-9)
        np.testing.assert_allclose(a.ys, b.ys, atol=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(-30, 40), degree=st.integers(1, 100))
    def test_a_power_of_two_scale_keeps_every_bit(self, seed, k, degree):
        # 2^k scales the points, their steps and L exactly, and 2 / L takes it out exactly
        trace = make_random_trace(np.random.default_rng(seed), 2, 40)
        scaled = trace.scaled(2.0**k)
        for spline in SplineKind:
            for kind in BASIS_KINDS:
                basis = build_named_basis(kind, degree)
                a, b = symbol_coeffs(trace, basis, spline), symbol_coeffs(scaled, basis, spline)
                assert np.array_equal(a.xs, b.xs) and np.array_equal(a.ys, b.ys), (spline, kind)
                assert (a.x0, a.y0) == (b.x0, b.y0), (spline, kind)
                assert b.length == a.length * 2.0**k, (spline, kind)

    def test_resampling_invariance(self, rng):
        basis = build_named_basis("chebyshev-sobolev", 8)
        trace = make_random_trace(rng)
        a = symbol_coeffs(trace, basis)
        b = symbol_coeffs(midpoint_resample(trace), basis)
        np.testing.assert_allclose(a.xs, b.xs, atol=1e-9)
        np.testing.assert_allclose(a.ys, b.ys, atol=1e-9)

    def test_similarity_invariance_with_cubic_spline(self, rng):
        # natural cubics commute with similarity transforms, so the
        # invariance carries over to the cubic pipeline as well
        basis = build_named_basis("chebyshev-sobolev", 8)
        trace = make_random_trace(rng)
        a = symbol_coeffs(trace, basis, SplineKind.CUBIC)
        b = symbol_coeffs(
            trace.scaled(7.5).translated(-300.0, 40.0), basis, SplineKind.CUBIC
        )
        np.testing.assert_allclose(a.xs, b.xs, atol=1e-9)
        np.testing.assert_allclose(a.ys, b.ys, atol=1e-9)

    def test_label_propagates(self):
        basis = build_named_basis("chebyshev", 3)
        c = symbol_coeffs(InkTrace([(0, 0), (2, 1)], label="z"), basis)
        assert c.label == "z"


class TestReconstruct:
    def test_straight_line_is_exact(self):
        trace = InkTrace([(1.0, 2.0), (4.0, 6.0), (7.0, 10.0)])
        n = arc_length_normalize(trace)
        basis = build_named_basis("legendre-sobolev", 3)
        xhat, yhat = reconstruct(to_coeffs(n, basis), basis, n.knots)
        np.testing.assert_allclose(xhat, trace.points[:, 0], atol=1e-12, rtol=0)
        np.testing.assert_allclose(yhat, trace.points[:, 1], atol=1e-12, rtol=0)

    def test_scalar_matches_array(self, rng):
        basis = build_named_basis("chebyshev", 7)
        c = symbol_coeffs(make_random_trace(rng), basis)
        s = np.linspace(-1.0, 1.0, 9)
        xs, ys = reconstruct(c, basis, s)
        for i, si in enumerate(s):
            assert reconstruct(c, basis, si) == (xs[i], ys[i])

    def test_non_numeric_parameters_are_typed(self):
        basis = build_named_basis("chebyshev-sobolev", 3)
        c = symbol_coeffs(InkTrace([(0, 0), (2, 1), (3, 3)]), basis)
        with pytest.raises(InvalidDataError, match="^evaluation points must be numbers"):
            reconstruct(c, basis, "abc")

    @pytest.mark.parametrize("points", [None, np.nan, np.inf, -np.inf, [0.5, None],
                                        [0.5, np.nan], np.array([0.5, np.inf]), [-np.inf, 0.5]])
    def test_points_that_are_not_finite_are_refused(self, points):
        basis = build_named_basis("chebyshev-sobolev", 3)
        c = symbol_coeffs(InkTrace([(0, 0), (2, 1), (3, 3)]), basis)
        with pytest.raises(InvalidDataError, match="^evaluation points must be finite$"):
            reconstruct(c, basis, points)

    def test_array_of_any_shape(self, rng):
        basis = build_named_basis("legendre-sobolev", 6)
        c = symbol_coeffs(make_random_trace(rng), basis)
        s = np.linspace(-1.0, 1.0, 12)
        xs, ys = reconstruct(c, basis, s)
        xg, yg = reconstruct(c, basis, s.reshape(3, 4))
        assert xg.shape == yg.shape == (3, 4)
        assert np.array_equal(xg.ravel(), xs) and np.array_equal(yg.ravel(), ys)

    def test_missing_sidecar(self):
        basis = build_named_basis("chebyshev", 3)
        c = symbol_coeffs(InkTrace([(0, 0), (2, 1), (3, 3)]), basis)
        bare = type(c)(c.basis_id, c.xs, c.ys)
        with pytest.raises(InvalidDataError):
            reconstruct(bare, basis, 0.0)

    @pytest.mark.parametrize("kind, degree", [
        ("legendre", 5), ("chebyshev", 5), ("chebyshev", 2), ("chebyshev-sobolev", 3)])
    def test_another_basis_is_refused(self, kind, degree):
        # a lower degree of the same family is refused too, as match_symbol refuses it
        trace = InkTrace([(0, 0), (2, 1), (3, 3), (5, 2)])
        n = arc_length_normalize(trace)
        c = to_coeffs(n, build_named_basis("chebyshev", 3))
        other = build_named_basis(kind, degree)
        message = (r"^coefficient bases differ: chebyshev\(degree=3\) with 3 per coordinate vs "
                   f"{re.escape(other.basis_id)}$")
        with pytest.raises(BasisMismatchError, match=message):
            reconstruct(c, other, 0.0)
        with pytest.raises(BasisMismatchError, match=message):
            representation_error(trace, n, c, other)

    def test_more_coefficients_than_the_basis_has_are_refused(self):
        basis = build_named_basis("legendre-sobolev", 3)
        c = SymbolCoeffs(basis.basis_id, np.ones(4), np.ones(4), None, 0.0, 0.0, 1.0)
        with pytest.raises(BasisMismatchError, match="with 4 per coordinate vs legendre-sobolev"):
            reconstruct(c, basis, 0.0)

    @pytest.mark.parametrize("kind", BASIS_KINDS)
    def test_a_prefix_keeps_its_basis_and_reconstructs_as_the_lower_degree(self, rng, kind):
        # error-sweep's lower degrees: a prefix of the projection at --d-max
        n = arc_length_normalize(make_random_trace(rng))
        high, low = build_named_basis(kind, 9), build_named_basis(kind, 4)
        c = to_coeffs(n, high)
        prefix = dataclasses.replace(c, xs=c.xs[:4], ys=c.ys[:4])
        got = reconstruct(prefix, high, n.knots)
        want = reconstruct(to_coeffs(n, low), low, n.knots)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


class TestCoeffTable:
    def make(self, rng, basis, n):
        return tuple(
            symbol_coeffs(InkTrace(make_random_trace(rng).points, label=str(i)), basis)
            for i in range(n)
        )

    def test_sequence_over_items(self, rng):
        items = self.make(rng, build_named_basis("chebyshev", 6), 4)
        table = CoeffTable(items)
        assert len(table) == 4 and table[2] is items[2] and tuple(table) == items
        assert table.basis_id == items[0].basis_id
        assert table.xs.shape == table.ys.shape == (4, 6)
        assert not table.xs.flags.writeable and not table.ys.flags.writeable

    def test_mixed_bases_rejected(self, rng):
        a = self.make(rng, build_named_basis("chebyshev", 6), 1)
        b = self.make(rng, build_named_basis("legendre", 6), 1)
        with pytest.raises(BasisMismatchError):
            CoeffTable(a + b)

    def test_mixed_lengths_rejected(self, rng):
        a = self.make(rng, build_named_basis("chebyshev", 6), 1)[0]
        short = type(a)(a.basis_id, a.xs[:3], a.ys[:3])
        with pytest.raises(BasisMismatchError):
            CoeffTable((a, short))

    def test_empty(self):
        table = CoeffTable(())
        assert not table and len(table) == 0 and table.basis_id is None

    @pytest.mark.parametrize(
        "xs, ys, message",
        [(["a"], [1.0], "arrays of real numbers"), ([1.0], [None], "finite"),
         ([1.0, np.nan], [1.0, 2.0], "finite"), ([-np.inf], [0.0], "finite"),
         ([[1.0], [2.0, 3.0]], [1.0, 2.0], "arrays of real numbers"),
         ([1.0, 2.0], [1.0], "1-D arrays of equal length"),
         (["1.5"], [1.0], "arrays of real numbers"), ([1.5], [True], "arrays of real numbers"),
         (np.array([1.5]), np.array([True]), "arrays of real numbers"),
         ([b"1"], [1.0], "arrays of real numbers"), ([1.0], [1j], "arrays of real numbers"),
         ([10**400], [1.0], "arrays of real numbers"),
         ([1.5, True], [1.0, 2.0], "arrays of real numbers")],
        ids=["string", "none", "nan", "infinity", "ragged", "unequal-lengths", "numeric-string",
             "boolean", "boolean-array", "bytes", "complex", "integer-past-float-range",
             "a-boolean-among-numbers"],
    )
    def test_symbol_coeffs_are_finite_numbers(self, xs, ys, message):
        with pytest.raises(InvalidDataError, match=f"^xs and ys must be {message}$"):
            SymbolCoeffs("b", xs, ys)

    @pytest.mark.parametrize("basis_id", [5, None, b"b"])
    def test_basis_id_is_a_string(self, basis_id):
        with pytest.raises(InvalidDataError,
                           match=f"^basis_id must be a string, got {re.escape(repr(basis_id))}$"):
            SymbolCoeffs(basis_id, [1.0], [2.0])

    @pytest.mark.parametrize(
        "sidecar, message",
        [({"x0": np.nan, "y0": 0.0, "length": 1.0}, "x0 is not a finite number: nan"),
         ({"x0": 0.0, "y0": 0.0, "length": "abc"}, "length is not a finite number: 'abc'"),
         ({"x0": 0.0, "y0": True, "length": 1.0}, "y0 is not a finite number: True"),
         ({"x0": 0.0, "y0": 0.0, "length": [1.0]}, "length is not a finite number: [1.0]"),
         ({"x0": 0.0, "y0": 0.0, "length": np.inf}, "length is not a finite number: inf"),
         ({"x0": 1.0}, "y0 is not a finite number: None"),
         ({"length": 2.0}, "x0 is not a finite number: None")],
        ids=["nan-x0", "string-length", "boolean-y0", "list-length", "infinite-length",
             "x0-alone", "length-alone"],
    )
    def test_sidecar_is_all_none_or_all_finite(self, sidecar, message):
        with pytest.raises(InvalidDataError, match=f"^{re.escape(message)}$"):
            SymbolCoeffs("b", [1.0], [2.0], **sidecar)

    def test_sidecar_is_stored_as_floats(self):
        c = SymbolCoeffs("b", [1.0], [2.0], x0=np.float64(0.5), y0=3, length=np.int64(2))
        assert (c.x0, c.y0, c.length) == (0.5, 3.0, 2.0)
        assert [type(v) for v in (c.x0, c.y0, c.length)] == [float, float, float]


_NOT_REAL = "^line 3: xs and ys must be arrays of real numbers$"


class TestCoeffsJsonl:
    def test_bit_exact_round_trip(self, rng, tmp_path):
        basis = build_named_basis("chebyshev-sobolev", 10)
        items = [
            symbol_coeffs(
                InkTrace(make_random_trace(rng).points, label=str(i % 3)), basis
            )
            for i in range(8)
        ]
        path = tmp_path / "coeffs.jsonl"
        write_coeffs_jsonl(items, path)
        back = read_coeffs_jsonl(path)
        assert len(back) == len(items)
        for a, b in zip(items, back):
            assert a.basis_id == b.basis_id
            assert a.label == b.label
            assert np.array_equal(a.xs, b.xs)  # bitwise
            assert np.array_equal(a.ys, b.ys)
            assert a.x0 == b.x0 and a.y0 == b.y0 and a.length == b.length

    def test_a_bad_item_leaves_the_file_as_it_was(self, tmp_path):
        # the table, the writer's one check, is made before the file is opened, and so emptied
        path = tmp_path / "coeffs.jsonl"
        write_coeffs_jsonl([_LINE3] * 3, path)
        before = path.read_bytes()
        for items in ([_LINE3, "oops"], ["oops"], [None, _LINE3]):
            with pytest.raises(InvalidDataError, match="^a table holds SymbolCoeffs, got "):
                write_coeffs_jsonl(items, path)
            assert path.read_bytes() == before

    def test_written_bytes(self, tmp_path):
        top = np.finfo(float).max
        item = SymbolCoeffs("b", [-0.0, 5e-324, top], [1.5, -top, 0.1], "a", -0.0, 5e-324, top)
        path = tmp_path / "coeffs.jsonl"
        write_coeffs_jsonl([item], path)
        assert path.read_bytes() == (
            b'{"label": "a", "basis_id": "b", "xs": [-0.0, 5e-324, 1.7976931348623157e+308], '
            b'"ys": [1.5, -1.7976931348623157e+308, 0.1], '
            b'"x0": -0.0, "y0": 5e-324, "length": 1.7976931348623157e+308}\n'
        )
        back = read_coeffs_jsonl(path)[0]
        assert back.xs.tobytes() == item.xs.tobytes() and back.ys.tobytes() == item.ys.tobytes()

    def test_reads_a_bit_exact_table(self, rng, tmp_path):
        basis = build_named_basis("legendre-sobolev", 9)
        items = [symbol_coeffs(make_random_trace(rng), basis) for _ in range(6)]
        path = tmp_path / "coeffs.jsonl"
        write_coeffs_jsonl(items, path)
        back = read_coeffs_jsonl(path)
        assert isinstance(back, CoeffTable) and back.basis_id == basis.basis_id
        want_x = np.array([c.xs for c in items])
        want_y = np.array([c.ys for c in items])
        assert back.xs.tobytes() == want_x.tobytes()
        assert back.ys.tobytes() == want_y.tobytes()

    def test_mixed_bases_file_rejected(self, rng, tmp_path):
        # the writer refuses such records, so the file is two written files joined
        parts = []
        for kind in ("chebyshev", "chebyshev-sobolev"):
            part = tmp_path / f"{kind}.jsonl"
            write_coeffs_jsonl([symbol_coeffs(make_random_trace(rng), build_named_basis(kind, 5))],
                               part)
            parts.append(part.read_bytes())
        path = tmp_path / "mixed.jsonl"
        path.write_bytes(b"".join(parts))
        with pytest.raises(BasisMismatchError, match="^coefficient sets differ in basis or length"):
            read_coeffs_jsonl(path)

    @pytest.mark.parametrize("kind", ["legendre", "chebyshev"])
    def test_records_the_reader_refuses_are_not_written(self, tmp_path, kind):
        # a chebyshev d = 3 record, then a d = 4 one of another basis or of the same
        items = [_LINE3, symbol_coeffs(_TRACE3, build_named_basis(kind, 4))]
        new, old = tmp_path / "new.jsonl", tmp_path / "old.jsonl"
        write_coeffs_jsonl(items[:1], old)
        before = old.read_bytes()
        for path in (new, old):
            with pytest.raises(BasisMismatchError,
                               match="^coefficient sets differ in basis or length"):
                write_coeffs_jsonl(iter(items), path)
        assert not new.exists() and old.read_bytes() == before

    def test_good_records_keep_their_bytes(self, tmp_path):
        items = [SymbolCoeffs("chebyshev(degree=3)", [i / 3, -i / 7, 1e-300 * i],
                              [0.1 * i, 2.0 ** -i, -0.0], None if i % 2 else str(i),
                              *((i / 11, -i / 13, 1.0 + i) if i % 3 else (None,) * 3))
                 for i in range(6)]
        path = tmp_path / "good.jsonl"
        for records in (items, (c for c in items)):
            write_coeffs_jsonl(records, path)
            assert hashlib.sha256(path.read_bytes()).hexdigest() == (
                "e03d202a16547825822f406828305e635897b4ce55c27f34aa59a75b609a208e")

    @pytest.mark.parametrize(
        "line, message",
        [
            ('{"xs": [1.0], "ys": [2.0]}', "^line 3: coefficient record lacks 'basis_id'$"),
            ('{"basis_id": "b", "xs": [1.0]', "^line 3: malformed JSON: Expecting"),
            ('[1.0, 2.0]', "^line 3: a coefficient record is a JSON object, got list$"),
            ('{"basis_id": "b", "xs": ["q"], "ys": [1.0]}', _NOT_REAL),
            ('{"basis_id": "b", "xs": [1.0, 2.0], "ys": [1.0]}',
             "^line 3: xs and ys must be 1-D arrays of equal length$"),
            ('{"basis_id": "b", "xs": [1.0], "ys": [2.0], "x0": "abc", "y0": 0.0, "length": 1.0}',
             "^line 3: x0 is not a finite number: 'abc'$"),
            ('{"basis_id": "b", "xs": [1.0], "ys": [2.0], "x0": 0.0, "y0": Infinity, "length": 1.0}',
             "^line 3: y0 is not a finite number: inf$"),
            ('{"basis_id": "b", "xs": [1.0], "ys": [2.0], "x0": 0.0, "y0": 0.0, "length": NaN}',
             "^line 3: length is not a finite number: nan$"),
            ('{"basis_id": "b", "xs": [1.0], "ys": [2.0], "x0": true, "y0": 0.0, "length": 1.0}',
             "^line 3: x0 is not a finite number: True$"),
            ('{"basis_id": "b", "xs": [1.0], "ys": [2.0], "label": [1]}',
             "^line 3: label must be a string, got \\[1\\]$"),
            ('{"basis_id": "b", "xs": [NaN, 0.0], "ys": [2.0, 0.0]}',
             "^line 3: xs and ys must be finite$"),
            ('{"basis_id": "b", "xs": [1.0], "ys": [-Infinity]}',
             "^line 3: xs and ys must be finite$"),
            ('{"basis_id": "b", "xs": [' + "1" * 400 + '], "ys": [2.0]}', _NOT_REAL),
            pytest.param('{"basis_id": "b", "xs": [' + "1" * 5001 + '], "ys": [2.0]}',
                         "^line 3: malformed JSON: Exceeds the limit",
                         marks=pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                                  reason="no int digit limit")),
            ('{"basis_id": "b", "xs": ["1.5"], "ys": [2.0]}', _NOT_REAL),
            ('{"basis_id": "b", "xs": [1.5], "ys": [true]}', _NOT_REAL),
        ],
        ids=["no-basis-id", "bad-json", "not-an-object", "non-numeric", "unequal-lengths",
             "string-x0", "infinite-y0", "nan-length", "boolean-x0", "list-label", "nan-xs",
             "infinite-ys", "integer-past-float-range", "integer-past-digit-limit",
             "numeric-string-xs", "boolean-ys"],
    )
    def test_malformed_line_raises_parse_error(self, rng, tmp_path, line, message):
        good = symbol_coeffs(make_random_trace(rng), build_named_basis("chebyshev", 1))
        path = tmp_path / "coeffs.jsonl"
        write_coeffs_jsonl([good], path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("\n" + line + "\n")
        with pytest.raises(ParseError, match=message) as exc:
            read_coeffs_jsonl(path)
        assert exc.value.line == 3

    @pytest.mark.parametrize(
        "lines, message",
        [(['{"basis_id": "a", "xs": [1.0], "ys": [2.0]}',
           '{"basis_id": 5, "xs": [1.0], "ys": [2.0]}'],
          "^line 2: basis_id must be a string, got 5$"),
         (['{"basis_id": 5, "xs": [1.0], "ys": [2.0]}'], "^line 1: basis_id must be a string, got 5$"),
         (['{"basis_id": "b", "xs": [1.0], "ys": [2.0], "x0": 0.5}'],
          "^line 1: y0 is not a finite number: None$"),
         (['{"basis_id": "b", "xs": [1.5, true], "ys": [1.0, 2.0]}'],
          "^line 1: xs and ys must be arrays of real numbers$")],
        ids=["mixed-basis-id-types", "numeric-basis-id", "x0-alone", "a-boolean-among-numbers"],
    )
    def test_a_record_refuses_its_own_fields(self, tmp_path, lines, message):
        path = tmp_path / "coeffs.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match=message):
            read_coeffs_jsonl(path)

    def test_not_utf8_raises_parse_error(self, rng, tmp_path):
        good = symbol_coeffs(make_random_trace(rng), build_named_basis("chebyshev", 1))
        path = tmp_path / "coeffs.jsonl"
        write_coeffs_jsonl([good, good], path)
        with open(path, "ab") as fh:
            fh.write(b'{"basis_id": "b\xff", "xs": [1.0], "ys": [2.0]}\n')
        with pytest.raises(ParseError, match="not UTF-8 text: invalid start byte") as exc:
            read_coeffs_jsonl(path)
        assert exc.value.line == 3

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        back = read_coeffs_jsonl(path)
        assert isinstance(back, CoeffTable) and not back


_CHEB3 = build_named_basis("chebyshev", 3)
_TRACE3 = InkTrace([(0, 0), (1, 2)])
_NORM3 = arc_length_normalize(_TRACE3)
_LINE3 = symbol_coeffs(_TRACE3, _CHEB3)
_LEG1 = DensePoly("legendre", [1.0, 2.0])
_LABELED = LabeledDataset(tuple(
    symbol_coeffs(InkTrace([(0, 0), (1, i + 1)], label=str(i % 2)), _CHEB3) for i in range(6)))


@pytest.mark.parametrize("call, error, message", [
    (lambda fd: parse_inkml(fd), InvalidDataError,
     "^document must be str, bytes or a file object, got int$"),
    (lambda fd: parse_inkml(123), InvalidDataError,
     "^document must be str, bytes or a file object, got int$"),
    (lambda fd: parse_pendigits(123), InvalidDataError,
     "^source must be text or lines of text, got int$"),
    (lambda fd: parse_pendigits(PENDIGITS_LINE.encode()), InvalidDataError,
     "^source must be text or lines of text, got bytes$"),
    (lambda fd: parse_pendigits([PENDIGITS_LINE, 7]), ParseError,
     "^line 2: a line must be a string, got int$"),
    (lambda fd: merge_strokes([1]), InvalidDataError, "^strokes must be InkTraces, got int$"),
    (lambda fd: arc_length_normalize("x"), InvalidDataError,
     "^trace must be an InkTrace, got str$"),
    (lambda fd: to_coeffs("x", _CHEB3), InvalidDataError,
     "^normalized must be a NormalizedTrace, got str$"),
    (lambda fd: reconstruct("x", _CHEB3, 0.0), InvalidDataError,
     "^coeffs must be a SymbolCoeffs, got str$"),
    (lambda fd: reconstruct(_LINE3, "x", 0.0),
     InvalidParameterError, "^basis must be an OrthoBasis, got str$"),
    (lambda fd: merge_strokes(123), InvalidDataError,
     "^strokes must be an iterable of InkTraces, got int$"),
    (lambda fd: to_coeffs(_NORM3, "x"), InvalidParameterError,
     "^basis must be an OrthoBasis, got str$"),
    (lambda fd: symbol_coeffs(_TRACE3, "x"), InvalidParameterError,
     "^basis must be an OrthoBasis, got str$"),
    (lambda fd: project(_NORM3.curve, "x"), InvalidParameterError,
     "^basis must be an OrthoBasis, got str$"),
    (lambda fd: project("x", _CHEB3), InvalidDataError, "^f must be a PiecewisePoly, got str$"),
    (lambda fd: _TRACE3.translated("a", 1), InvalidParameterError,
     "^dx must be a real number, got str$"),
    (lambda fd: _TRACE3.translated(1, True), InvalidParameterError,
     "^dy must be a real number, got bool$"),
    (lambda fd: _TRACE3.scaled("x"), InvalidParameterError,
     "^factor must be a real number, got str$"),
    (lambda fd: _TRACE3.scaled(10**400), InvalidParameterError,
     "^factor must be a real number, got int$"),
    (lambda fd: match_symbol(_LINE3, 5, _CHEB3), InvalidDataError,
     "^models must be a CoeffTable or a list of SymbolCoeffs, got int$"),
    (lambda fd: representation_error("t", _NORM3, _LINE3, _CHEB3), InvalidDataError,
     "^trace must be an InkTrace, got str$"),
    (lambda fd: representation_error(_TRACE3, "n", _LINE3, _CHEB3), InvalidDataError,
     "^normalized must be a NormalizedTrace, got str$"),
    (lambda fd: accuracy_sweep([_TRACE3], ["legendre"], 5), InvalidParameterError,
     "^k_range must be a range or a list of integers, got int$"),
    (lambda fd: accuracy_sweep(_TRACE3, ["legendre"], [1]), InvalidDataError,
     "^traces must be a list of InkTraces, got InkTrace$"),
    (lambda fd: accuracy_sweep([_TRACE3, "t"], ["legendre"], [1]), InvalidDataError,
     "^traces must be InkTraces, got str$"),
    (lambda fd: save_basis("x", fd), InvalidParameterError,
     "^basis must be an OrthoBasis, got str$"),
    (lambda fd: inner_closed_form(1, 2, _CHEB3.spec), InvalidDataError,
     "^f must be a DensePoly, got int$"),
    (lambda fd: inner_closed_form(_LEG1, _LEG1, "s"), InvalidParameterError,
     "^spec must be an InnerProductSpec, got str$"),
    (lambda fd: build_basis(None, 3), InvalidParameterError,
     "^spec must be an InnerProductSpec, got NoneType$"),
    (lambda fd: OrthoBasis(None, 3), InvalidParameterError,
     "^spec must be an InnerProductSpec, got NoneType$"),
    (lambda fd: save_basis(None, fd), InvalidParameterError,
     "^basis must be an OrthoBasis, got NoneType$"),
    (lambda fd: _CHEB3.member(99), InvalidParameterError,
     r"^member index must be in \[0, 3\], got 99$"),
    (lambda fd: _CHEB3.member(-1), InvalidParameterError,
     r"^member index must be in \[0, 3\], got -1$"),
    (lambda fd: _CHEB3.member("a"), InvalidParameterError,
     "^member index must be an integer, got 'a'$"),
    (lambda fd: CoeffTable(None), InvalidDataError, "^items must be SymbolCoeffs, got NoneType$"),
    (lambda fd: LabeledDataset(None), InvalidDataError,
     "^items must be SymbolCoeffs, got NoneType$"),
    (lambda fd: knn_accuracy(_LABELED, _CHEB3, None), InvalidParameterError,
     "^ks must be a range or a list of integers, got NoneType$"),
    (lambda fd: knn_accuracy(_LABELED, _CHEB3, 5), InvalidParameterError,
     "^ks must be a range or a list of integers, got int$"),
    (lambda fd: accuracy_sweep([_TRACE3], None, [1]), InvalidParameterError,
     "^basis_kinds must be a list of basis kind names, got NoneType$"),
    (lambda fd: accuracy_sweep([_TRACE3], 5, [1]), InvalidParameterError,
     "^basis_kinds must be a list of basis kind names, got int$"),
    (lambda fd: accuracy_sweep([_TRACE3], "legendre", [1]), InvalidParameterError,
     "^basis_kinds must be a list of basis kind names, got str$"),
    (lambda fd: write_coeffs_jsonl([None], os.devnull), InvalidDataError,
     "^a table holds SymbolCoeffs, got NoneType$"),
    (lambda fd: write_coeffs_jsonl(None, os.devnull), InvalidDataError,
     "^items must be SymbolCoeffs, got NoneType$"),
    (lambda fd: synthesize([1.0], None), InvalidParameterError,
     "^basis must be an OrthoBasis, got NoneType$"),
], ids=["inkml-descriptor", "inkml-int", "pendigits-int", "pendigits-bytes", "pendigits-line",
        "merge-strokes", "normalize", "to-coeffs", "reconstruct-coeffs", "reconstruct-basis",
        "merge-strokes-int", "to-coeffs-basis", "symbol-coeffs-basis", "project-basis",
        "project-curve", "translated-dx", "translated-dy", "scaled", "scaled-overflow",
        "match-models", "error-trace", "error-normalized", "sweep-k-range", "sweep-traces",
        "sweep-trace", "save-basis", "inner-operand", "inner-spec", "build-basis", "ortho-basis",
        "basis-json", "member-high", "member-negative", "member-str", "coeff-table",
        "labeled-dataset", "knn-ks-none", "knn-ks-int", "sweep-kinds-none", "sweep-kinds-int",
        "sweep-kinds-str", "coeffs-json", "write-jsonl", "synthesize"])
def test_wrong_kinds_of_argument_are_typed_errors(tmp_path, call, error, message):
    doc = tmp_path / "sym.inkml"
    doc.write_text('<ink><trace>0 0, 1 1</trace></ink>', encoding="utf-8")
    fd = os.open(doc, os.O_RDONLY)
    try:
        with pytest.raises(error, match=message):
            call(fd)
        os.fstat(fd)  # the caller's descriptor is still open
    finally:
        os.close(fd)

