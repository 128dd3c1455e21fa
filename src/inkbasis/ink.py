"""Digital ink ingestion and arc-length normalization.

Raw traces are ordered (x, y) point sequences.  Normalization interpolates
them with a piecewise-linear or natural-cubic spline, reparameterizes by
arc length mapped onto [-1, 1], and rescales coordinates by 2/L, giving a
unit-speed plane curve of length 2: x and y as one piecewise polynomial on
one knot vector.  One projection onto an orthogonal family gives a (2, d + 1)
array; dropping its constant terms yields a translation- and scale-invariant
fixed-size description of the symbol.

One normalizer takes a bucket of equal point counts for either spline; a
trace is a bucket of one.  Each bucket is one PiecewisePoly, projected onto
every basis by one bases._project call, and its rows go back into input order.

The natural cubic is solved here, with numpy and a tridiagonal elimination
on Python floats, and equals scipy's CubicSpline(bc_type="natural") bit for
bit; a cubic segment's arc length is 8-point Gauss-Legendre in a fixed order.
"""

from __future__ import annotations

import enum
import json
import math
import xml.etree.ElementTree as ET
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from typing import IO, Iterable

import numpy as np

from .bases import OrthoBasis, _project, project, synthesize
from .errors import (
    BasisMismatchError, InvalidDataError, InvalidParameterError, ParseError, _enum_member,
    open_utf8,
)
from .poly import PiecewisePoly, _frozen


class SplineKind(str, enum.Enum):
    LINEAR = "linear"
    CUBIC = "cubic"


def _real_array(values, message: str) -> np.ndarray:
    """values as a new float array; anything but real numbers raises InvalidDataError(message).

    Strings, bools and complex numbers are refused before numpy would convert
    them; None in an object array becomes NaN, for the caller's finite check.
    """
    try:
        array = np.array(values)
        if array.dtype.kind in "iufO":  # ragged lists and ints past float's range raise here
            return array.astype(float, copy=False)
    except (OverflowError, TypeError, ValueError):
        pass
    raise InvalidDataError(message)


@dataclass(frozen=True)
class InkTrace:
    """At least two finite pen positions, optionally labeled; consecutive repeats are dropped."""

    points: np.ndarray
    label: str | None = None

    def __post_init__(self):
        pts = _real_array(self.points, "trace points must be (x, y) pairs of real numbers")
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise InvalidDataError("a trace needs at least two (x, y) points")
        if not np.all(np.isfinite(pts)):
            raise InvalidDataError("trace coordinates must be finite")
        keep = np.ones(len(pts), dtype=bool)
        keep[1:] = np.any(pts[1:] != pts[:-1], axis=1)
        pts = pts[keep]  # a copy, so the caller's array stays writable
        if len(pts) < 2:
            raise InvalidDataError("trace has fewer than two distinct points")
        object.__setattr__(self, "points", _frozen(pts))

    def translated(self, dx: float, dy: float) -> "InkTrace":
        return replace(self, points=self.points + np.array([dx, dy]))

    def scaled(self, factor: float) -> "InkTrace":
        return replace(self, points=self.points * float(factor))


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


@dataclass(frozen=True)
class SymbolCoeffs:
    """Fixed-size coefficient description of one symbol.

    xs and ys hold the degree 1..d expansion coefficients of the curve's x
    and y; the constant terms are dropped (they carry only
    position) but retained as x0/y0, along with the original length, so
    reconstructions can be mapped back to the input frame.
    """

    basis_id: str
    xs: np.ndarray
    ys: np.ndarray
    label: str | None = None
    x0: float | None = None
    y0: float | None = None
    length: float | None = None

    def __post_init__(self):
        message = "xs and ys must be arrays of real numbers"
        xs, ys = _real_array(self.xs, message), _real_array(self.ys, message)
        if xs.shape != ys.shape or xs.ndim != 1:
            raise InvalidDataError("xs and ys must be 1-D arrays of equal length")
        # json reads NaN and Infinity, and None becomes NaN; a distance to them would be NaN
        if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
            raise InvalidDataError("xs and ys must be finite")
        if self.label is not None and not isinstance(self.label, str):  # votes sort labels
            raise InvalidDataError(f"label must be a string, got {self.label!r}")
        object.__setattr__(self, "xs", _frozen(xs))
        object.__setattr__(self, "ys", _frozen(ys))


@dataclass(frozen=True, eq=False)
class CoeffTable(Sequence):
    """A columnar table of coefficient sets of one basis.

    A read-only sequence of SymbolCoeffs that also holds their degree 1..d
    coefficients stacked once: xy is the (N, 2d) matrix of rows [xs | ys],
    and xs, ys are its two read-only (N, d) halves, so a distance to every
    row is a few array operations.  All items share one basis_id and one
    coefficient length; an empty table has basis_id None.  _norms holds the
    weights of that basis and the rows' norms under them, which classify
    computes on the table's first use.
    """

    items: tuple[SymbolCoeffs, ...]
    basis_id: str | None = field(init=False)
    xy: np.ndarray = field(init=False, repr=False)
    xs: np.ndarray = field(init=False, repr=False)
    ys: np.ndarray = field(init=False, repr=False)
    _norms: tuple | None = field(init=False, repr=False, default=None)

    def __post_init__(self):
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
    than two distinct points included, raises ParseError with its line number.
    """
    lines = source.splitlines() if isinstance(source, str) else source
    traces = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != 17:
            raise ParseError(f"expected 17 fields, got {len(fields)}", lineno)
        try:
            values = [int(f) for f in fields]
            pts = np.array(values[:16], dtype=float).reshape(8, 2)
        except ValueError as exc:
            raise ParseError(f"non-integer field: {exc}", lineno) from None
        except OverflowError:
            raise ParseError("coordinate too large for a float", lineno) from None
        try:
            traces.append(InkTrace(pts, label=str(values[16])))
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
    space-separated; only the first two channels are read.  A document-level
    annotation, when present, becomes the label of every trace.
    """
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
        pts = []
        for chunk in text.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            channels = chunk.split()
            if len(channels) < 2:
                raise ParseError(f"trace point needs x and y: {chunk!r}")
            try:
                pts.append((float(channels[0]), float(channels[1])))
            except ValueError:
                raise ParseError(f"non-numeric coordinate in {chunk!r}") from None
        traces.append(InkTrace(np.array(pts, dtype=float).reshape(-1, 2), label=label))
    return traces


def load_inkml(path) -> list[InkTrace]:
    with open(path, "rb") as fh:
        return parse_inkml(fh)


def merge_strokes(traces: Iterable[InkTrace], label: str | None = None) -> InkTrace:
    """Concatenate strokes end-to-end in time order into one trace.

    Pen-up gaps become straight connecting segments.  The label defaults to
    the first stroke's label.
    """
    traces = list(traces)
    if not traces:
        raise InvalidDataError("no strokes to merge")
    if label is None:
        label = traces[0].label
    return InkTrace(np.vstack([t.points for t in traces]), label=label)


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
    rhs[:, 1:-1] = 3 * (dx[:, 1:] * slope[:, :-1] + dx[:, :-1] * slope[:, 1:])
    rhs[:, 0] = -0.0 * (dx[:, 0] * dx[:, 0]) + 3 * (values[:, 1] - values[:, 0])
    rhs[:, -1] = 0.0 * (dx[:, -1] * dx[:, -1]) + 3 * (values[:, -1] - values[:, -2])
    solved = rhs.transpose(0, 2, 1).tolist()
    failure = np.array([_solve_slopes(h, mid, cols) for h, mid, cols in zip(
        dx[..., 0].tolist(), (2 * (dx[:, :-1, 0] + dx[:, 1:, 0])).tolist(), solved)])
    s = np.array(solved).transpose(0, 2, 1)
    cubic = (s[:, :-1] + s[:, 1:] - 2 * slope) / dx
    local = np.stack([values[:, :-1], s[:, :-1], (slope - s[:, :-1]) / dx - cubic, cubic / dx], -1)
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


_GL8_NODES, _GL8_WEIGHTS = np.polynomial.legendre.leggauss(8)


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
    c = local.reshape(-1, *local.shape[2:])[seg]  # (T, nseg, 8, ncol, 4)
    return c[..., 1] + (2.0 * c[..., 2]) * u + (3.0 * c[..., 3]) * (u * u)


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
    for code in reversed(codes):  # a curve reports the first check it fails
        failure = np.where(code > 0, code, failure)
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
    spline = _enum_member(SplineKind, spline, "spline")
    knots, local, total, failure = _normalize(trace.points[None], spline)
    _raise_first_failure(failure)
    return NormalizedTrace(PiecewisePoly(knots[0], local[0]), float(total[0]))


def _normalized_buckets(
    traces: Sequence[InkTrace], spline: SplineKind
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The traces' normalized curves in buckets of equal point counts.

    Each bucket is (indices into traces, knots (T, n), local (T, n - 1, 2,
    width)), normalized together by _normalize.  The first failing trace in
    input order raises the error it raises alone.
    """
    spline = _enum_member(SplineKind, spline, "spline")
    groups = {}
    for i, trace in enumerate(traces):
        groups.setdefault(len(trace.points), []).append(i)
    failure = np.zeros(len(traces), dtype=int)
    buckets = []
    for idx in map(np.array, groups.values()):
        knots, local, _, failure[idx] = _normalize(np.stack([traces[i].points for i in idx]), spline)
        buckets.append((idx, knots, local))
    _raise_first_failure(failure)
    return buckets


def _project_buckets(
    buckets: list[tuple[np.ndarray, np.ndarray, np.ndarray]], bases: list[OrthoBasis], count: int
) -> list[np.ndarray]:
    """(count, 2, degree + 1) per basis: the buckets' curves projected, in input order.

    Each bucket is one PiecewisePoly and one _project call over all bases;
    each basis's rows equal project's on the same curves.
    """
    out = [np.empty((count, 2, b.degree + 1)) for b in bases]
    for idx, knots, local in buckets:
        for coeffs, rows in zip(out, _project(PiecewisePoly(knots, local), bases)):
            coeffs[idx] = rows
    return out


def to_coeffs(
    normalized: NormalizedTrace, basis: OrthoBasis, label: str | None = None
) -> SymbolCoeffs:
    """Project the curve's x and y in one call and drop the constant terms.

    The returned 2d numbers are invariant to translation and uniform
    scaling of the source trace, and do not depend on how densely the
    curve was sampled.
    """
    return _symbol(project(normalized.curve, basis), basis.basis_id, label,
                   normalized.total_length)


def _family_coeffs(
    normalized: NormalizedTrace, bases: list[OrthoBasis], label: str | None = None
) -> list[SymbolCoeffs]:
    """to_coeffs(normalized, basis, label) for bases of one spec: prefixes of one projection."""
    rows = project(normalized.curve, max(bases, key=lambda b: b.degree))
    return [_symbol(rows[:, : b.degree + 1], b.basis_id, label, normalized.total_length)
            for b in bases]


def _without_constants(rows: np.ndarray) -> np.ndarray:
    """The degree 1..d coefficients of projected (..., 2, d + 1) rows; d must be at least 1."""
    if rows.shape[-1] < 2:
        raise InvalidParameterError("basis degree must be at least 1")
    return rows[..., 1:]


def _symbol(row: np.ndarray, basis_id: str, label: str | None, length: float) -> SymbolCoeffs:
    """The SymbolCoeffs of a projected curve's (2, d + 1) row; the constant terms become x0, y0."""
    xs, ys = _without_constants(row)
    return SymbolCoeffs(basis_id, xs, ys, label, float(row[0, 0]), float(row[1, 0]), length)


def symbol_coeffs(
    trace: InkTrace, basis: OrthoBasis, spline: SplineKind = SplineKind.LINEAR
) -> SymbolCoeffs:
    """Full pipeline: normalize a raw trace and project it."""
    return to_coeffs(arc_length_normalize(trace, spline), basis, label=trace.label)


def reconstruct(
    coeffs: SymbolCoeffs, basis: OrthoBasis, s
) -> tuple[np.ndarray, np.ndarray]:
    """x and y of the truncated series at parameters s, in the input frame.

    Restores the constant terms x0, y0 and undoes normalization's 2/L
    rescale.
    """
    if coeffs.x0 is None or coeffs.y0 is None or coeffs.length is None:
        raise InvalidDataError("coefficients lack the constant-term sidecar")
    px = synthesize(np.concatenate([[coeffs.x0], coeffs.xs]), basis)
    py = synthesize(np.concatenate([[coeffs.y0], coeffs.ys]), basis)
    scale = coeffs.length / 2.0
    return px(s) * scale, py(s) * scale


def coeffs_to_json_dict(c: SymbolCoeffs) -> dict:
    doc = {
        "label": c.label,
        "basis_id": c.basis_id,
        "xs": [float(v) for v in c.xs],
        "ys": [float(v) for v in c.ys],
    }
    if c.x0 is not None:
        doc["x0"] = c.x0
        doc["y0"] = c.y0
        doc["length"] = c.length
    return doc


def _finite_or_none(value, key: str) -> float | None:
    if value is None:
        return None
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if math.isfinite(number):
            return number
    raise InvalidDataError(f"{key} is not a finite number: {value!r}")


def coeffs_from_json_dict(doc: dict) -> SymbolCoeffs:
    if not isinstance(doc, dict):
        raise InvalidDataError(f"a coefficient record is a JSON object, got {type(doc).__name__}")
    try:
        basis_id, xs, ys = doc["basis_id"], doc["xs"], doc["ys"]
    except KeyError as exc:
        raise InvalidDataError(f"coefficient record lacks {exc}") from None
    return SymbolCoeffs(
        basis_id=basis_id,
        xs=xs,
        ys=ys,
        label=doc.get("label"),
        x0=_finite_or_none(doc.get("x0"), "x0"),
        y0=_finite_or_none(doc.get("y0"), "y0"),
        length=_finite_or_none(doc.get("length"), "length"),
    )


def write_coeffs_jsonl(items: Iterable[SymbolCoeffs], path) -> None:
    """One JSON object per line; floats round-trip bit-exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        for c in items:
            fh.write(json.dumps(coeffs_to_json_dict(c)))
            fh.write("\n")


def read_coeffs_jsonl(path) -> CoeffTable:
    """The coefficient sets of a JSONL file, as a table of one basis.

    A line that is not a coefficient record raises ParseError with its
    line number.
    """
    out = []
    for lineno, line in enumerate(open_utf8(path), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"malformed JSON: {exc.msg}", lineno) from None
        except ValueError as exc:  # an integer past int's digit limit
            raise ParseError(f"malformed JSON: {exc}", lineno) from None
        try:
            out.append(coeffs_from_json_dict(doc))
        except InvalidDataError as exc:
            raise ParseError(str(exc), lineno) from None
    return CoeffTable(tuple(out))
