"""Ingestion, arc-length normalization, and the coefficient pipeline."""

import itertools
import sys
from collections import Counter

import numpy as np
import pytest

from conftest import make_random_trace, near_duplicate_knots, skewed_knots
from inkbasis import BASIS_KINDS, InvalidParameterError, poly
from inkbasis import (
    BasisMismatchError,
    CoeffTable,
    InkTrace,
    InvalidDataError,
    ParseError,
    SplineKind,
    SymbolCoeffs,
    accuracy_sweep,
    arc_length_normalize,
    build_named_basis,
    merge_strokes,
    parse_inkml,
    parse_pendigits,
    project,
    read_coeffs_jsonl,
    reconstruct,
    symbol_coeffs,
    to_coeffs,
    write_coeffs_jsonl,
)
from inkbasis.ink import _MAX_RESCALED, _normalize, _normalized_buckets, _project_buckets
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
        [[("0", "1"), ("2", "3")], [(True, False), (False, True)], [(1j, 0), (1, 2)]],
        ids=["numeric-strings", "booleans", "complex"],
    )
    def test_numbers_in_other_types_are_refused(self, points):
        with pytest.raises(InvalidDataError, match=r"^trace points must be \(x, y\) pairs"):
            InkTrace(points)

    def test_callers_array_stays_writable(self):
        pts = np.array([(0.0, 0.0), (1.0, 0.0)])
        trace = InkTrace(pts)
        pts[0, 0] = 5.0
        assert trace.points[0, 0] == 0.0


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
        [(idx, knots, local)] = _normalized_buckets(traces, spline)  # one shape, one bucket
        np.testing.assert_array_equal(idx, np.arange(block + 1))
        bases = [build_named_basis(kind, degree) for kind in BASIS_KINDS]
        want = []
        for basis in bases:
            alone = [to_coeffs(arc_length_normalize(t, spline), basis) for t in traces]
            want.append(np.array([[[c.x0, *c.xs], [c.y0, *c.ys]] for c in alone]))
        for size in sorted({1, 2, block - 1, block, block + 1}):
            # the four kinds together, in one _project call
            got = _project_buckets([(idx[:size], knots[:size], local[:size])], bases, size)
            for kind, rows, rows_alone in zip(BASIS_KINDS, got, want):
                assert np.array_equal(rows, rows_alone[:size]), f"{kind}, {size} traces"

    def test_a_far_trace_fails_the_corpus_where_it_stands(self):
        far = InkTrace([(1e308, 0.0), (1e308, 1.0), (1e308, 2.0)], label="1")
        ok = [InkTrace([(0.0, 0.0), (1.0, i), (2.0, 0.0)], label=str(i % 2)) for i in range(1, 7)]
        for spline in SplineKind:
            with pytest.raises(InvalidDataError, match="^rescaled coordinates too large: "):
                _normalized_buckets([*ok[:3], far, *ok[3:]], spline)
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
        calls = []
        real = poly.PiecewisePoly.__post_init__
        monkeypatch.setattr(poly.PiecewisePoly, "__post_init__",
                            lambda self: calls.append(np.shape(self.breakpoints)) or real(self))
        buckets = _normalized_buckets(traces, spline)
        calls.clear()
        [rows] = _project_buckets(buckets, [basis], len(traces))
        counts = Counter(len(t.points) for t in traces)
        assert sorted(len(idx) for idx, _, _ in buckets) == sorted(counts.values())
        width = 2 if spline is SplineKind.LINEAR else 4
        assert counts[9] > _BLOCK_BYTES // (8 * 2 * (10 + width) * 8)
        assert len(calls) == len(buckets) and all(len(shape) == 2 for shape in calls)
        for t, row in zip(traces, rows):
            assert np.array_equal(row, project(arc_length_normalize(t, spline).curve, basis))

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
                _normalized_buckets(traces, spline)


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

    def test_missing_sidecar(self):
        basis = build_named_basis("chebyshev", 3)
        c = symbol_coeffs(InkTrace([(0, 0), (2, 1), (3, 3)]), basis)
        bare = type(c)(c.basis_id, c.xs, c.ys)
        with pytest.raises(InvalidDataError):
            reconstruct(bare, basis, 0.0)


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
         ([10**400], [1.0], "arrays of real numbers")],
        ids=["string", "none", "nan", "infinity", "ragged", "unequal-lengths", "numeric-string",
             "boolean", "boolean-array", "bytes", "complex", "integer-past-float-range"],
    )
    def test_symbol_coeffs_are_finite_numbers(self, xs, ys, message):
        with pytest.raises(InvalidDataError, match=f"^xs and ys must be {message}$"):
            SymbolCoeffs("b", xs, ys)


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
        items = [
            symbol_coeffs(make_random_trace(rng), build_named_basis(kind, 5))
            for kind in ("chebyshev", "chebyshev-sobolev")
        ]
        path = tmp_path / "mixed.jsonl"
        write_coeffs_jsonl(items, path)
        with pytest.raises(BasisMismatchError):
            read_coeffs_jsonl(path)

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
