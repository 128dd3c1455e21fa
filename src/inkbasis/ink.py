"""Digital ink ingestion and arc-length normalization.

Raw traces are ordered (x, y) point sequences.  Normalization interpolates
them with a piecewise-linear or natural-cubic spline, reparameterizes by
arc length mapped onto [-1, 1], and rescales coordinates by 2/L, giving a
unit-speed plane curve of length 2: x and y as one piecewise polynomial on
one knot vector.  One projection onto an orthogonal family gives a (2, d + 1)
array; dropping its constant terms yields a translation- and scale-invariant
fixed-size description of the symbol.

One normalizer takes a bucket of equal point counts for either spline; a
trace is a bucket of one.  Every command turns its traces into coefficients
through one corpus path, _corpus: it normalizes all buckets, then projects
each bucket's arrays onto every basis by one bases._project call, and its
rows go back into input order.  The way back to points in the
input frame is ink's too: _input_frame sums a corpus's series by
bases._evaluate, one pass per bucket, and undoes the 2/L rescale, as
reconstruct does for one record with the same bits, and _point_errors sums
a reconstruction's distances to its source points.

The natural cubic is solved here, with numpy and a tridiagonal elimination
on Python floats, and equals scipy's CubicSpline(bc_type="natural") bit for
bit; a cubic segment's arc length is 8-point Gauss-Legendre in a fixed order.
"""

from __future__ import annotations

import enum
import json
import math
import numbers
import xml.etree.ElementTree as ET
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from itertools import chain
from typing import IO, Iterable

import numpy as np

from .bases import OrthoBasis, _check_basis, _evaluate, _project, project
from .errors import (
    BasisMismatchError, InvalidDataError, InvalidParameterError, ParseError, _enum_member,
    _json_value, open_utf8,
)
from .poly import PiecewisePoly, _frozen, _points, _real_array


class SplineKind(str, enum.Enum):
    LINEAR = "linear"
    CUBIC = "cubic"


def _check_label(label) -> None:
    """Refuse a label that is neither None nor a string: votes sort the labels."""
    if label is not None and not isinstance(label, str):
        raise InvalidDataError(f"label must be a string, got {label!r}")


@dataclass(frozen=True)
class InkTrace:
    """At least two finite pen positions and a None or str label; consecutive repeats dropped."""

    points: np.ndarray
    label: str | None = None

    def __post_init__(self):
        _check_label(self.label)
        pts = _real_array(self.points, "trace points must be (x, y) pairs of real numbers")
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise InvalidDataError("a trace needs at least two (x, y) points")
        if not np.isfinite(pts).all():
            raise InvalidDataError("trace coordinates must be finite")
        moved = (pts[1:] != pts[:-1]).any(axis=1)
        if not moved.all():
            pts = pts[np.concatenate(([True], moved))]
        if len(pts) < 2:
            raise InvalidDataError("trace has fewer than two distinct points")
        # _real_array made a new array, so the caller's array stays writable
        object.__setattr__(self, "points", _frozen(pts))

    def translated(self, dx: float, dy: float) -> "InkTrace":
        return replace(self, points=self.points + np.array([_real(dx, "dx"), _real(dy, "dy")]))

    def scaled(self, factor: float) -> "InkTrace":
        return replace(self, points=self.points * _real(factor, "factor"))


def _real(value, name: str) -> float:
    """value as a float; anything but a real number, a bool included, is refused."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:  # an integer past float's range
            pass
    raise InvalidParameterError(f"{name} must be a real number, got {type(value).__name__}")


@dataclass(frozen=True)
class NormalizedTrace:
    """An arc-length parameterized plane curve on [-1, 1].

    curve holds x and y, local coefficients (nseg, 2, width), on the knots:
    the arc-length parameters of the trace's points.
    total_length is the curve length before rescaling, in input units.
    """

    curve: PiecewisePoly
    total_length: float

    @property
    def knots(self) -> np.ndarray:
        return self.curve.breakpoints


def _finite_float(value, key: str) -> float:
    """value as a finite float, converted by _real_array; anything else raises InvalidDataError."""
    message = f"{key} is not a finite number: {value!r}"
    number = _real_array(value, message)
    if number.ndim != 0 or not np.isfinite(number):
        raise InvalidDataError(message)
    return float(number)


@dataclass(frozen=True)
class SymbolCoeffs:
    """Fixed-size coefficient description of one symbol; it checks every field once, here.

    basis_id is a string.  xs and ys hold the degree 1..d expansion
    coefficients of the curve's x and y, finite reals; the constant terms
    are dropped (they carry only position) but retained as x0/y0, along
    with the original length, so reconstructions can be mapped back to the
    input frame.  That sidecar is all None or all finite floats.
    """

    basis_id: str
    xs: np.ndarray
    ys: np.ndarray
    label: str | None = None
    x0: float | None = None
    y0: float | None = None
    length: float | None = None

    def __post_init__(self):
        if not isinstance(self.basis_id, str):
            raise InvalidDataError(f"basis_id must be a string, got {self.basis_id!r}")
        message = "xs and ys must be arrays of real numbers"
        try:  # one conversion of both, (2, d)
            xy = _real_array((self.xs, self.ys), message)
        except InvalidDataError:  # either is not real numbers (raised here), or their shapes differ
            _real_array(self.xs, message)
            _real_array(self.ys, message)
            xy = None
        if xy is None or xy.ndim != 2:
            raise InvalidDataError("xs and ys must be 1-D arrays of equal length")
        # json reads NaN and Infinity, and None becomes NaN; a distance to them would be NaN
        if not np.isfinite(xy).all():
            raise InvalidDataError("xs and ys must be finite")
        _check_label(self.label)
        _frozen(xy)
        object.__setattr__(self, "xs", xy[0])
        object.__setattr__(self, "ys", xy[1])
        if not (self.x0 is self.y0 is self.length is None):  # all or none: a missing one is refused
            for key in ("x0", "y0", "length"):
                value = getattr(self, key)
                if type(value) is not float or not math.isfinite(value):  # as _symbol and json give
                    object.__setattr__(self, key, _finite_float(value, key))


@dataclass(frozen=True, eq=False)
class CoeffTable(Sequence):
    """A columnar table of coefficient sets of one basis.

    A read-only sequence of SymbolCoeffs that also holds their degree 1..d
    coefficients stacked once: xy is the (N, 2d) matrix of rows [xs | ys],
    and xs, ys are its two read-only (N, d) halves, so a distance to every
    row is a few array operations.  All items share one basis_id and one
    coefficient length; an empty table has basis_id None.  _norms holds the
    weights of that basis and the screen's table under them (the rows'
    norms and a column-major copy of xy), which classify computes on the
    table's first use.
    """

    items: tuple[SymbolCoeffs, ...]
    basis_id: str | None = field(init=False)
    xy: np.ndarray = field(init=False, repr=False)
    xs: np.ndarray = field(init=False, repr=False)
    ys: np.ndarray = field(init=False, repr=False)
    _norms: tuple | None = field(init=False, repr=False, default=None)

    def __post_init__(self):
        if not isinstance(self.items, Iterable):
            raise InvalidDataError(f"items must be SymbolCoeffs, got {type(self.items).__name__}")
        items = tuple(self.items)
        odd = [c for c in items if not isinstance(c, SymbolCoeffs)]
        if odd:
            raise InvalidDataError(f"a table holds SymbolCoeffs, got {type(odd[0]).__name__}")
        shapes = {(c.basis_id, len(c.xs)) for c in items}
        if len(shapes) > 1:
            raise BasisMismatchError(
                f"coefficient sets differ in basis or length: {sorted(shapes)}"
            )
        basis_id, d = shapes.pop() if shapes else (None, 0)
        xy = np.empty((len(items), 2 * d))
        xy[:, :d] = [c.xs for c in items]
        xy[:, d:] = [c.ys for c in items]
        object.__setattr__(self, "items", items)
        object.__setattr__(self, "basis_id", basis_id)
        object.__setattr__(self, "xy", _frozen(xy))
        object.__setattr__(self, "xs", xy[:, :d])
        object.__setattr__(self, "ys", xy[:, d:])

    def __len__(self) -> int:
        return len(self.items)

    def __getitem__(self, index):
        return self.items[index]

    def __iter__(self):
        return iter(self.items)


def parse_pendigits(source: str | Iterable[str]) -> list[InkTrace]:
    """Parse pen-digit samples: 17 comma-separated integers per line.

    The first 16 fields are eight (x, y) pairs, the last is the class digit.
    Blank lines are skipped; anything else malformed, a sample with fewer
    than two distinct points or a line that is not a string included, raises
    ParseError with its line number.  A source that is neither a string nor
    an iterable of lines raises InvalidDataError.

    Each line becomes its InkTrace before the next line is read, so the first
    bad line raises.  Its fields are read with int(), which skips padding and
    reads signs, "1_000" and non-ASCII digits.
    """
    if isinstance(source, (bytes, bytearray)) or not isinstance(source, (str, Iterable)):
        raise InvalidDataError(f"source must be text or lines of text, got {type(source).__name__}")
    traces = []
    for lineno, raw in enumerate(source.splitlines() if isinstance(source, str) else source, 1):
        if not isinstance(raw, str):
            raise ParseError(f"a line must be a string, got {type(raw).__name__}", lineno)
        if len(fields := raw.split(",")) != 17:
            if not raw.strip():
                continue
            raise ParseError(f"expected 17 fields, got {len(fields)}", lineno)
        try:
            values = list(map(int, fields))
        except ValueError as exc:
            try:  # the message quotes the bad field stripped
                list(map(int, map(str.strip, fields)))
            except ValueError as stripped:
                exc = stripped
            raise ParseError(f"non-integer field: {exc}", lineno) from None
        try:
            points = np.array(values[:16], dtype=float).reshape(8, 2)
            traces.append(InkTrace(points, str(values[16])))
        except OverflowError:
            raise ParseError("coordinate too large for a float", lineno) from None
        except InvalidDataError as exc:
            raise ParseError(str(exc), lineno) from None
    return traces


def load_pendigits(path) -> list[InkTrace]:
    return parse_pendigits(open_utf8(path))


def _local_tag(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def parse_inkml(document: str | bytes | IO) -> list[InkTrace]:
    """Parse the trace elements of an InkML document.

    Each trace element holds comma-separated points whose coordinates are
    space-separated; only the first two channels are read, converted for the
    whole element in one numpy call, which reads each as float() does.  A
    document-level annotation, when present, becomes the label of every trace.  The document
    is its text or an open file; a path goes to load_inkml.
    """
    if not isinstance(document, (str, bytes)) and not hasattr(document, "read"):
        raise InvalidDataError(f"document must be str, bytes or a file object, got "
                               f"{type(document).__name__}")
    try:
        if isinstance(document, (str, bytes)):
            root = ET.fromstring(document)
        else:
            root = ET.parse(document).getroot()
    except ET.ParseError as exc:
        line = exc.position[0] if getattr(exc, "position", None) else None
        raise ParseError(f"malformed XML: {exc}", line) from None

    label = None
    for el in root.iter():
        if _local_tag(el.tag) == "annotation" and el.text and el.text.strip():
            label = el.text.strip()
            break

    traces = []
    for el in root.iter():
        if _local_tag(el.tag) != "trace":
            continue
        text = el.text or ""
        pairs = [channels[:2] for channels in map(str.split, text.split(",")) if channels]
        coords = list(chain.from_iterable(pairs))
        try:  # numpy parses each str as float() does
            pts = np.array(coords, dtype=float)
        except ValueError:
            pts = None
        if pts is None or len(coords) != 2 * len(pairs):
            _refuse_points(text)
        traces.append(InkTrace(pts.reshape(-1, 2), label=label))
    return traces


def _refuse_points(text: str) -> None:
    """Raise the ParseError of the first point of a trace element's text that is not an x and a y."""
    for chunk in map(str.strip, text.split(",")):
        channels = chunk.split()
        if len(channels) == 1:
            raise ParseError(f"trace point needs x and y: {chunk!r}")
        try:
            list(map(float, channels[:2]))
        except ValueError:
            raise ParseError(f"non-numeric coordinate in {chunk!r}") from None
    raise ParseError(f"malformed trace points: {text!r}")  # not reached: a point fails above


def load_inkml(path) -> list[InkTrace]:
    with open(path, "rb") as fh:
        return parse_inkml(fh)


def merge_strokes(traces: Iterable[InkTrace], label: str | None = None) -> InkTrace:
    """Concatenate strokes end-to-end in time order into one trace.

    Pen-up gaps become straight connecting segments.  The label defaults to
    the first stroke's label; one stroke with its own label is returned as is.
    """
    if not isinstance(traces, Iterable):
        raise InvalidDataError(f"strokes must be an iterable of InkTraces, got "
                               f"{type(traces).__name__}")
    traces = list(traces)
    if not traces:
        raise InvalidDataError("no strokes to merge")
    odd = [t for t in traces if not isinstance(t, InkTrace)]
    if odd:
        raise InvalidDataError(f"strokes must be InkTraces, got {type(odd[0]).__name__}")
    if label is None:
        label = traces[0].label
    if len(traces) == 1 and label is traces[0].label:
        return traces[0]  # a frozen record: merging one stroke is that stroke
    return InkTrace(np.concatenate([t.points for t in traces]), label=label)


def _natural_cubic(t: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Local coefficients (T, nseg, ncol, 4) and failure codes (T,) of natural cubics.

    Curve k runs through the rows of values[k] (n, ncol) on the knots t[k],
    with the slopes of _solve_slopes and CubicHermiteSpline's segments: it
    equals CubicSpline(t[k], values[k], bc_type="natural").c bit for bit.
    """
    dx = (t[:, 1:] - t[:, :-1])[..., None]
    slope = (values[:, 1:] - values[:, :-1]) / dx
    # rows i = 1..n-2: dx[i] s[i-1] + 2 (dx[i-1] + dx[i]) s[i] + dx[i-1] s[i+1] = rhs[i].
    # The end rows (s'' = 0) keep scipy's -0.5 * 0 * dx**2 term: it is NaN when
    # dx**2 overflows, and the fit is then rejected where scipy rejects it.
    rhs = np.empty(values.shape)
    inner = np.multiply(dx[:, 1:], slope[:, :-1], out=rhs[:, 1:-1])
    inner += dx[:, :-1] * slope[:, 1:]
    inner *= 3
    rhs[:, 0] = -0.0 * (dx[:, 0] * dx[:, 0]) + 3 * (values[:, 1] - values[:, 0])
    rhs[:, -1] = 0.0 * (dx[:, -1] * dx[:, -1]) + 3 * (values[:, -1] - values[:, -2])
    solved = rhs.transpose(0, 2, 1).tolist()
    failure = np.array([_solve_slopes(h, mid, cols) for h, mid, cols in zip(
        dx[..., 0].tolist(), (2 * (dx[:, :-1, 0] + dx[:, 1:, 0])).tolist(), solved)])
    s = np.array(solved).transpose(0, 2, 1)
    local = np.empty(slope.shape + (4,))
    local[..., 0], local[..., 1] = values[:, :-1], s[:, :-1]
    cubic = (s[:, :-1] + s[:, 1:] - 2 * slope) / dx
    np.subtract((slope - s[:, :-1]) / dx, cubic, out=local[..., 2])
    np.divide(cubic, dx, out=local[..., 3])
    return local, failure


def _solve_slopes(h: list, mid: list, cols: list) -> int:
    """Solve one curve's slope system in place on its columns; return its failure code.

    h holds the knot gaps and mid the inner diagonal.  The elimination is
    LAPACK dgtsv's, with its row interchanges, on Python floats.
    """
    if not all(gap > 0.0 for gap in h):
        return 5
    diag = [2.0 * h[0], *mid, 2.0 * h[-1]]
    lower, upper = h[1:] + h[-1:], h[:1] + h[:-1]  # row i + 1's s[i], row i's s[i + 1]
    n = len(diag)
    try:
        for i in range(n - 1):
            inner = i < n - 2
            if abs(diag[i]) >= abs(lower[i]):
                fact = lower[i] / diag[i]
                diag[i + 1] = diag[i + 1] - fact * upper[i]
                for b in cols:
                    b[i + 1] = b[i + 1] - fact * b[i]
                if inner:
                    lower[i] = 0.0
            else:  # interchange rows i and i + 1
                fact = diag[i] / lower[i]
                diag[i], temp = lower[i], diag[i + 1]
                diag[i + 1] = upper[i] - fact * temp
                if inner:
                    lower[i] = upper[i + 1]  # now the second superdiagonal
                    upper[i + 1] = -fact * lower[i]
                upper[i] = temp
                for b in cols:
                    b[i], b[i + 1] = b[i + 1], b[i] - fact * b[i + 1]
        for b in cols:
            b[-1] = b[-1] / diag[-1]
            b[-2] = (b[-2] - upper[-1] * b[-1]) / diag[-2]
            for i in range(n - 3, -1, -1):
                b[i] = (b[i] - upper[i] * b[i + 1] - lower[i] * b[i + 2]) / diag[i]
    except ZeroDivisionError:  # dgtsv's zero pivot
        return 6
    return 0 if all(all(map(math.isfinite, b)) for b in cols) else 7


# 8-point Gauss-Legendre on [-1, 1], the values numpy's leggauss(8) gives, written out so
# that loading the module calls no LAPACK; each node is within 1 ulp and each weight
# within 8e-16 of the exact value (tests/test_ink.py checks both and the weights' sum)
_GL8_NODES = _frozen(np.array([
    -0.9602898564975362, -0.7966664774136267, -0.525532409916329, -0.18343464249564978,
    0.18343464249564978, 0.525532409916329, 0.7966664774136267, 0.9602898564975362,
]))
_GL8_WEIGHTS = _frozen(np.array([
    0.10122853629037706, 0.22238103445337443, 0.3137066458778869, 0.36268378337836166,
    0.36268378337836166, 0.3137066458778869, 0.22238103445337443, 0.10122853629037706,
]))


_DERIVATIVE = _frozen(np.array([1.0, 2.0, 3.0]))


def _node_velocities(t: np.ndarray, local: np.ndarray) -> np.ndarray:
    """(T, nseg, 8, ncol) derivative of cubic splines at each segment's Gauss-Legendre nodes.

    Each node is evaluated on the segment that holds it, its own or a
    neighbour, summing the derivative's terms in the order scipy's PPoly uses.
    """
    start, end = t[:, :-1, None], t[:, 1:, None]
    nodes = (start + end) / 2.0 + (end - start) / 2.0 * _GL8_NODES  # (T, nseg, 8)
    nseg = nodes.shape[1]
    seg = np.arange(nseg)[:, None] + (nodes >= end) - (nodes < start)
    np.minimum(np.maximum(seg, 0, out=seg), nseg - 1, out=seg)
    seg += nseg * np.arange(len(t))[:, None, None]  # into the bucket's segments
    u = (nodes - start.reshape(-1)[seg])[..., None]
    # the derivative's coefficients c1, 2 c2 and 3 c3 per segment, then at each node
    c = (local[..., 1:] * _DERIVATIVE).reshape(-1, *local.shape[2:-1], 3)[seg]  # (T, nseg, 8, ncol, 3)
    return c[..., 0] + c[..., 1] * u + c[..., 2] * (u * u)


def _cubic_arc_lengths(t: np.ndarray, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Segment arc lengths (T, nseg) of natural cubics through points, and the fits' codes."""
    local, failure = _natural_cubic(t, points)
    v = _node_velocities(t, local)
    a = np.hypot(v[..., 0], v[..., 1]) * _GL8_WEIGHTS
    # 8-point Gauss-Legendre as ((a0 + a7) + (a1 + a6)) + ((a2 + a5) + (a3 + a4)), an order
    # whose weights add to exactly 2, so a straight segment's length is its chord
    pairs = a[..., :4] + a[..., :3:-1]
    gauss = (pairs[..., 0] + pairs[..., 1]) + (pairs[..., 2] + pairs[..., 3])
    return (t[:, 1:] - t[:, :-1]) / 2.0 * gauss, failure


# why a curve's normalization fails, by its failure code (0: it does not)
_KNOT_FAILURES = (
    None,
    "arc length is not finite: coordinates too large",
    "zero total arc length",
    "arc-length parameters collapse in float precision",
    "rescaled coordinates too large: the trace lies too far from the origin for its length",
    "cubic fit is not finite: knots are not strictly increasing",
    "cubic fit is not finite: singular slope system",
    "cubic fit is not finite: knot slopes are not finite",
)

# largest magnitude of a rescaled coordinate: the weights' total mass on [-1, 1]
# is at most pi, so every weighted integral of the curve stays finite
_MAX_RESCALED = np.finfo(float).max / 4.0


def _knots(seg_lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Knots on [-1, 1], total lengths and failure codes of (T, nseg) segment lengths.

    Each row's cumulative arc length maps affinely onto [-1, 1]; the code
    indexes _KNOT_FAILURES.
    """
    total = seg_lengths.sum(axis=-1)
    cumulative = np.zeros(seg_lengths.shape[:-1] + (seg_lengths.shape[-1] + 1,))
    seg_lengths.cumsum(axis=-1, out=cumulative[..., 1:])
    knots = 2.0 * (cumulative / total[..., None]) - 1.0
    knots[..., 0], knots[..., -1] = -1.0, 1.0
    rising = (knots[..., 1:] > knots[..., :-1]).all(axis=-1)
    failure = np.where(np.isfinite(total), np.where(total > 0.0, 3 * ~rising, 2), 1)
    return knots, total, failure


def _raise_first_failure(failure: np.ndarray) -> None:
    """Raise the error of the first failing curve, if any."""
    if failure.any():
        raise InvalidDataError(_KNOT_FAILURES[failure[failure.nonzero()[0][0]]])


def _normalize(points: np.ndarray, spline: SplineKind) -> tuple[np.ndarray, ...]:
    """Arc-length normalization of a bucket of traces, (T, n, 2) points.

    Returns knots (T, n), local coefficients (T, n - 1, 2, width), total
    lengths (T,) and failure codes (T,) indexing _KNOT_FAILURES; the curves
    of failing traces hold meaningless numbers.
    """
    cubic = spline is SplineKind.CUBIC and points.shape[1] > 2  # through two points: the chord
    codes = []  # each check's failure codes, in the order a curve runs them
    # overflow shows as a non-finite total, values or fit and is reported by its failure code
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        step = points[:, 1:] - points[:, :-1]
        lengths = np.hypot(step[..., 0], step[..., 1])
        if cubic:  # the arc lengths of the natural cubic on chord-length knots
            chord = np.zeros(points.shape[:2])
            lengths.cumsum(axis=-1, out=chord[:, 1:])
            lengths, fit = _cubic_arc_lengths(chord, points)
            codes.append(fit)
        knots, total, failure = _knots(lengths)
        values = points * (2.0 / total)[:, None, None]
        codes += [failure, 4 * (np.abs(values).max(axis=(-2, -1)) > _MAX_RESCALED)]
        if cubic:
            local, fit = _natural_cubic(knots, values)
            codes.append(fit)
        else:
            slope = (values[:, 1:] - values[:, :-1]) / (knots[:, 1:] - knots[:, :-1])[..., None]
            local = np.stack([values[:, :-1], slope], -1)
    failure = codes.pop()
    for code in reversed(codes):  # a curve reports the first check it fails (code not 0)
        failure = np.where(code, code, failure)
    return knots, local, total, failure


def arc_length_normalize(
    trace: InkTrace, spline: SplineKind = SplineKind.LINEAR
) -> NormalizedTrace:
    """Reparameterize a trace by arc length on [-1, 1] at standard size.

    The knots are the trace's points, which are distinct.  Cumulative
    arc length along the interpolating spline maps affinely onto [-1, 1],
    and coordinates are rescaled by 2/L, so the result is a (piecewise)
    unit-speed curve of total length 2 regardless of the input's position,
    size, or sampling density.  The trace is a bucket of one for the corpus
    path's normalizer.
    """
    if not isinstance(trace, InkTrace):
        raise InvalidDataError(f"trace must be an InkTrace, got {type(trace).__name__}")
    spline = _enum_member(SplineKind, spline, "spline")
    knots, local, total, failure = _normalize(trace.points[None], spline)
    _raise_first_failure(failure)
    return NormalizedTrace(PiecewisePoly(knots[0], local[0]), float(total[0]))


def _corpus(
    traces: Sequence[InkTrace], spline: SplineKind, bases: list[OrthoBasis]
) -> tuple[list[tuple[np.ndarray, ...]], list[np.ndarray]]:
    """The traces normalized in buckets of equal point counts, and projected onto every basis.

    Each bucket is (indices into traces, knots (T, n), local (T, n - 1, 2,
    width), total lengths (T,)), normalized together by _normalize.  Every
    bucket is normalized before any is projected, and the first failing
    trace in input order raises the error it raises alone.  Then each
    accepted bucket's arrays go to one _project call over all bases, and
    each basis's rows, (len(traces), 2, degree + 1) in input order, equal
    project's on the same curves.
    """
    spline = _enum_member(SplineKind, spline, "spline")
    groups = {}
    for i, trace in enumerate(traces):
        groups.setdefault(len(trace.points), []).append(i)
    failure = np.zeros(len(traces), dtype=int)
    buckets = []
    for idx in map(np.array, groups.values()):
        *curves, failure[idx] = _normalize(np.stack([traces[i].points for i in idx]), spline)
        buckets.append((idx, *curves))
    _raise_first_failure(failure)
    rows = [np.empty((len(traces), 2, b.degree + 1)) for b in bases]
    for idx, knots, local, _ in buckets:
        for out, projected in zip(rows, _project(knots, local, bases)):
            out[idx] = projected
    return buckets, rows


def _input_frame(
    traces: Sequence[InkTrace], spline: SplineKind, basis: OrthoBasis, at=None, degrees=None
):
    """Yield (indices, knots, d, values) per block of each bucket: series in the input frame.

    The traces go through _corpus, so a failing trace raises before
    anything is yielded.  Then one pass of bases._evaluate per bucket sums
    the series at the bucket's knots, or at points at (n,) shared by every
    trace, for every d in degrees (default: basis.degree, ascending), and
    undoes normalization's 2/L rescale: values (T, 2, n) are x and y of the
    traces at indices, whose knots are (T, n).  The sum at d has the bits of
    the basis of degree d, and a trace's values have the same bits as alone.
    """
    buckets, [rows] = _corpus(traces, spline, [basis])
    for idx, knots, _, total in buckets:
        s = knots[:, None] if at is None else at
        for part, d, values in _evaluate(rows[idx], basis, s, degrees):
            yield idx[part], knots[part], d, values * (total[part] / 2.0)[:, None, None]


def _point_errors(points: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Summed distance from points (..., n, 2) to values (..., 2, n): np.hypot, then np.sum."""
    x, y = np.moveaxis(points, -1, 0)
    return np.sum(np.hypot(x - values[..., 0, :], y - values[..., 1, :]), axis=-1)


def to_coeffs(
    normalized: NormalizedTrace, basis: OrthoBasis, label: str | None = None
) -> SymbolCoeffs:
    """Project the curve's x and y in one call and drop the constant terms.

    The returned 2d numbers are invariant to translation and uniform
    scaling of the source trace, and do not depend on how densely the
    curve was sampled.
    """
    if not isinstance(normalized, NormalizedTrace):
        raise InvalidDataError(
            f"normalized must be a NormalizedTrace, got {type(normalized).__name__}")
    return _symbol(project(normalized.curve, basis), basis.basis_id, label,
                   normalized.total_length)


def _check_degree(degree: int) -> None:
    """Refuse a degree below 1: dropping the constant terms leaves no coefficient."""
    if degree < 1:
        raise InvalidParameterError("basis degree must be at least 1")


def _without_constants(rows: np.ndarray) -> np.ndarray:
    """The degree 1..d coefficients of projected (..., 2, d + 1) rows; d must be at least 1."""
    _check_degree(rows.shape[-1] - 1)
    return rows[..., 1:]


def _symbol(row: np.ndarray, basis_id: str, label: str | None, length: float) -> SymbolCoeffs:
    """The SymbolCoeffs of a projected curve's (2, d + 1) row; the constant terms become x0, y0."""
    xs, ys = _without_constants(row)
    return SymbolCoeffs(basis_id, xs, ys, label, float(row[0, 0]), float(row[1, 0]), length)


def symbol_coeffs(
    trace: InkTrace, basis: OrthoBasis, spline: SplineKind = SplineKind.LINEAR
) -> SymbolCoeffs:
    """Full pipeline: normalize a raw trace and project it."""
    _check_basis(basis)
    return to_coeffs(arc_length_normalize(trace, spline), basis, label=trace.label)


def reconstruct(
    coeffs: SymbolCoeffs, basis: OrthoBasis, s
) -> tuple[np.ndarray, np.ndarray]:
    """x and y of the truncated series at parameters s, in the input frame.

    Restores the constant terms x0, y0 and undoes normalization's 2/L
    rescale, from the sidecar that SymbolCoeffs holds all or none of.  The
    record must be of this basis, as for match_symbol: its basis_id that of
    basis, with at most basis.degree coefficients per coordinate, or
    BasisMismatchError is raised.  So a record of another family, lambda or
    degree is refused, a lower degree of the same family included, and a
    prefix of a projection, which keeps its basis's id, is accepted.  The
    series is summed by bases._evaluate at the record's own degree, so a
    prefix reconstructs, bit for bit, as on the basis of its degree.  A
    parameter that is not a finite real number raises InvalidDataError.
    """
    if not isinstance(coeffs, SymbolCoeffs):
        raise InvalidDataError(f"coeffs must be a SymbolCoeffs, got {type(coeffs).__name__}")
    _check_basis(basis)
    if coeffs.basis_id != basis.basis_id or len(coeffs.xs) > basis.degree:
        raise BasisMismatchError(f"coefficient bases differ: {coeffs.basis_id} with "
                                 f"{len(coeffs.xs)} per coordinate vs {basis.basis_id}")
    if coeffs.x0 is None:
        raise InvalidDataError("coefficients lack the constant-term sidecar")
    xs = _points(s)
    rows = np.array([[coeffs.x0, *coeffs.xs], [coeffs.y0, *coeffs.ys]])
    (_, _, values), = _evaluate(rows, basis, xs.reshape(-1))
    x, y = values.reshape((2, *xs.shape)) * (coeffs.length / 2.0)
    return (float(x), float(y)) if xs.ndim == 0 else (x, y)


def write_coeffs_jsonl(items: Iterable[SymbolCoeffs], path) -> None:
    """One JSON object per line; floats round-trip bit-exactly.

    CoeffTable(items) is the one check, read_coeffs_jsonl's of one basis and
    length included, and it runs before the file is opened, and so emptied.
    """
    lines = []
    for c in CoeffTable(items):
        doc = {"label": c.label, "basis_id": c.basis_id, "xs": c.xs.tolist(), "ys": c.ys.tolist()}
        if c.x0 is not None:
            doc.update(x0=c.x0, y0=c.y0, length=c.length)
        lines.append(json.dumps(doc) + "\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def read_coeffs_jsonl(path) -> CoeffTable:
    """The coefficient sets of a JSONL file, as a table of one basis.

    A line that is not a coefficient record raises ParseError with its
    line number.
    """
    out = []
    for lineno, line in enumerate(open_utf8(path), start=1):
        if not (line := line.strip()):
            continue
        doc = _json_value(line, lineno)
        if not isinstance(doc, dict):
            raise ParseError(f"a coefficient record is a JSON object, got {type(doc).__name__}",
                             lineno)
        try:
            out.append(SymbolCoeffs(doc["basis_id"], doc["xs"], doc["ys"],
                                    *map(doc.get, ("label", "x0", "y0", "length"))))
        except KeyError as exc:
            raise ParseError(f"coefficient record lacks {exc}", lineno) from None
        except InvalidDataError as exc:
            raise ParseError(str(exc), lineno) from None
    return CoeffTable(out)
