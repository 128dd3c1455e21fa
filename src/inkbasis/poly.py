"""Polynomial arithmetic in classical bases on [-1, 1].

Dense polynomials carry their coefficients in one of two classical bases,
Legendre or Chebyshev of the first kind, whose three-term recurrence one
walk, _classical, runs for every evaluator.  A piecewise polynomial is one
curve, as arrays: strictly increasing breakpoints s_j and, per interval, the
coefficients of a cubic (or lower) in the local offset s - s_j, for one or
more functions.  A bucket of curves adds a leading axis to both arrays.

Weighted integrals of a piecewise polynomial against the classical elements
are basis-native closed forms, summed segment by segment: the family's
multiply-by-s recurrence and one antiderivative recurrence for both
weights, in +, -, *, / and sqrt alone, with no quadrature and no
transcendental function.  One kernel, _moments, serves one curve and a
bucket: it broadcasts over the bucket axis, runs every recurrence
elementwise and sums each curve's segments on their own, so a curve's
integrals have the same bits in a bucket as alone, and the moments at a
degree are an exact prefix of those at any higher degree.  It owns the
memory of that work, and of every table a bucket is built in: _blocks cuts
a bucket into blocks of one budget.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidDataError, _enum_member


class BasisKind(str, enum.Enum):
    LEGENDRE = "legendre"
    CHEBYSHEV = "chebyshev"


class Weight(str, enum.Enum):
    """Integration weight on [-1, 1]."""

    UNIT = "unit"                  # dx
    INVERSE_SQRT = "inverse_sqrt"  # dx / sqrt(1 - x^2)


_BOOLS = (bool, np.bool_)
_PLAIN_NUMBERS = frozenset((float, int))


def _holds_bool(values) -> bool:
    """Whether a bool sits anywhere in values: a scalar, or nested lists, tuples and arrays."""
    if isinstance(values, (list, tuple)):  # a list of Python floats and ints is one pass in C
        return not _PLAIN_NUMBERS.issuperset(map(type, values)) and any(map(_holds_bool, values))
    if isinstance(values, np.ndarray):
        kind = values.dtype.kind
        return kind == "b" or kind == "O" and any(map(_holds_bool, values.flat))
    return isinstance(values, _BOOLS)


def _real_array(values, message: str) -> np.ndarray:
    """values as a new float array; anything but real numbers raises InvalidDataError(message).

    Strings, bytes, bools and complex numbers are refused before numpy would
    convert them, and so is a bool among numbers, which numpy would promote:
    a numeric array is taken as it is, and anything else is scanned.  None
    in an object array becomes NaN, for the caller's finite check.
    """
    try:
        array = np.array(values)
        kind = array.dtype.kind
        numeric = kind in "iuf" and isinstance(values, np.ndarray)
        if numeric or kind in "iufO" and not _holds_bool(values):
            return array.astype(float, copy=False)  # ragged lists and ints past float's range raise
    except (OverflowError, TypeError, ValueError):
        pass
    raise InvalidDataError(message)


def _points(s) -> np.ndarray:
    """Evaluation points as a float array, the one conversion of every evaluator.

    A point that is not a real number, or not finite (None, NaN, +-inf),
    raises InvalidDataError.
    """
    xs = _real_array(s, "evaluation points must be numbers (real, not bool)")
    if not np.isfinite(xs).all():
        raise InvalidDataError("evaluation points must be finite")
    return xs


@dataclass(frozen=True)
class DensePoly:
    """Coefficients of a polynomial in a named classical basis.

    coeffs[i] multiplies the basis element of degree i; trailing zeros are
    allowed, so the stored degree is simply len(coeffs) - 1.
    """

    basis: BasisKind
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(_real_array(self.coeffs, "coeffs must be numbers (real, not bool)"))
        if c.ndim != 1 or c.size == 0:
            raise InvalidDataError("coeffs must be a non-empty 1-D array")
        if not np.isfinite(c).all():
            raise InvalidDataError("coeffs must be finite")
        object.__setattr__(self, "coeffs", _frozen(c))
        object.__setattr__(self, "basis", _enum_member(BasisKind, self.basis, "basis"))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        """Value at scalar or array x, summed over _classical as bases._evaluate sums a series."""
        xs = _points(x)
        c = self.coeffs
        for k, b_k in enumerate(_classical(self.basis, np.atleast_1d(xs), self.degree)):
            total = c[k] * b_k if k == 0 else total + c[k] * b_k
        return float(total[0]) if xs.ndim == 0 else total

    def derivative(self) -> "DensePoly":
        """Exact derivative, expressed in the same basis."""
        if self.degree == 0:
            return DensePoly(self.basis, np.zeros(1))
        from numpy.polynomial import chebyshev, legendre  # imported where used: no command needs it

        der = chebyshev.chebder if self.basis is BasisKind.CHEBYSHEV else legendre.legder
        return DensePoly(self.basis, der(self.coeffs))


@dataclass(frozen=True)
class PiecewisePoly:
    """One curve: a piecewise polynomial of degree at most 3 on strictly increasing breakpoints.

    Segments are stored in local coordinates: local[j, ..., u] multiplies
    (s - breakpoints[j])**u on [breakpoints[j], breakpoints[j+1]], in an
    (nseg, width) array, or (nseg, m, width) for m functions (x and y), width
    1..4.  Local coefficients stay well scaled however short a segment is, so
    continuity and projection keep their accuracy on densely sampled traces.
    Breakpoints are 1-D: a bucket of curves is the arrays of bases._project.
    """

    breakpoints: np.ndarray
    local: np.ndarray

    def __post_init__(self):
        bp = _real_array(self.breakpoints, "breakpoints must be numbers (real, not bool)")
        if bp.ndim > 1:
            raise InvalidDataError("breakpoints must be a 1-D array: a PiecewisePoly is one curve")
        if bp.size < 2:
            raise InvalidDataError("need at least two breakpoints")
        c = _real_array(self.local, "local coefficients must be numbers (real, not bool)")
        if c.ndim not in (2, 3) or not 1 <= c.shape[-1] <= 4:
            raise InvalidDataError("local coefficients must be an (nseg, [m,] 1..4) array")
        if len(c) != len(bp) - 1:
            raise InvalidDataError("segment count must be breakpoint count - 1")
        if not np.isfinite(c).all():
            raise InvalidDataError("local coefficients must be finite")
        if not (bp[1:] > bp[:-1]).all():
            raise InvalidDataError("breakpoints must be strictly increasing")
        # continuity at interior breakpoints, 1e-12 relative: each segment's
        # end value, by Horner in its width h, against the next one's start
        h = (bp[1:-1] - bp[:-2]).reshape((-1,) + (1,) * (c.ndim - 2))
        left, right = c[:-1, ..., -1], c[1:, ..., 0]
        for u in range(c.shape[-1] - 2, -1, -1):
            left = left * h + c[:-1, ..., u]
        scale = np.maximum(np.maximum(np.abs(left), np.abs(right)), 1.0)
        bad = np.abs(left - right) > 1e-12 * scale
        if bad.any():
            raise InvalidDataError(f"discontinuity at breakpoint {bp[1 + np.argwhere(bad)[0][0]]}")
        object.__setattr__(self, "breakpoints", _frozen(bp))
        object.__setattr__(self, "local", _frozen(c))

    @property
    def segments(self) -> np.ndarray:
        """The local coefficients, one row per segment: local itself."""
        return self.local

    def __call__(self, s):
        bp = self.breakpoints
        xs = _points(s)
        j = np.clip(np.searchsorted(bp, xs, side="right") - 1, 0, len(self.local) - 1)
        t = (xs - bp[j]).reshape(xs.shape + (1,) * (self.local.ndim - 2))
        c = self.local[j]
        out = c[..., -1]
        for u in range(c.shape[-1] - 2, -1, -1):
            out = out * t + c[..., u]
        return float(out) if out.ndim == 0 else out


def _frozen(table: np.ndarray) -> np.ndarray:
    """The array, marked read-only: a frozen object's arrays and every cached table are shared."""
    table.setflags(write=False)
    return table


@lru_cache(maxsize=128)
def _three_term(basis: BasisKind, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(up, lo) with s B_k = up[k] B_{k+1} + lo[k] B_{k-1}, for k < n."""
    k = np.arange(n, dtype=float)
    if basis == BasisKind.LEGENDRE:
        up, lo = (k + 1) / (2 * k + 1), k / (2 * k + 1)
    else:
        up, lo = np.full(n, 0.5), np.full(n, 0.5)
        up[0], lo[0] = 1.0, 0.0
    return _frozen(up), _frozen(lo)


def _classical(kind: BasisKind, x: np.ndarray, top: int):
    """Yield B_0(x), ..., B_top(x) of kind, by Bonnet's step or by 2 x T_{k-1} - T_{k-2}.

    Only +, -, * and / run, elementwise, in a fixed order: B_k's bits depend on no top.
    """
    two_x, b_prev = 2.0 * x, None  # 2 x is exact
    for k in range(top + 1):
        if k < 2:
            b_k = np.ones(x.shape) if k == 0 else x
        elif kind is BasisKind.LEGENDRE:
            b_k = ((2 * k - 1) * x * b_prev - (k - 1) * b_prev2) / k
        else:
            b_k = two_x * b_prev - b_prev2
        yield b_k
        b_prev2, b_prev = b_prev, b_k


_TINY = np.finfo(float).tiny


def _atan(t: np.ndarray) -> np.ndarray:
    """arctan t for 0 <= t <= 1, from +, -, *, / and sqrt alone."""
    for _ in range(2):  # tan(x / 2) = tan x / (1 + sec x), down to t <= tan(pi / 16)
        t = t / (1.0 + np.sqrt(1.0 + t * t))
    u, series = t * t, 0.0
    for k in range(11, -1, -1):  # 12 terms of the odd series: truncated below 6e-19 t
        series = series * u + (-1) ** k / (2 * k + 1)
    return 4.0 * t * series


def _antiderivative_steps(basis: BasisKind, rows: int, s: np.ndarray) -> np.ndarray:
    """[A_m] from s[..., j] to s[..., j+1] for m < rows: the integrals of B_m w per segment.

    s holds the breakpoints of one curve (n,) or of a bucket (T, n); the
    result is (rows, nseg) or (T, rows, nseg).  From m = 1 both weights obey
    A_{m+1} = alpha s A_m - beta A_{m-1}, alpha = (2m + e) / (m + 1 + e) and
    beta = (m - 1) / (m + 1 + e): Legendre (e = 1) has A_m = l_{m+1}, the
    integrated Legendre polynomial, and Chebyshev (e = 0) A_m = -r U_{m-1}(s) / m
    with r = sqrt((1 - s)(1 + s)).  The loop runs on v = A_m(a) and on
    d_m = A_m(b) - A_m(a), with b A_m(b) - a A_m(a) written as b d_m + (b - a) v,
    so no difference of nearby values is taken and each step keeps its
    relative accuracy on short segments, where cubic pieces have large
    coefficients.  Only +, -, *, / and sqrt run, elementwise, a row at a time:
    the bits do not depend on numpy's SIMD loops, a table is an exact prefix
    of a longer one and a bucket's rows are those of each curve alone.
    """
    a, b = s[..., :-1], s[..., 1:]
    h = b - a
    out = np.empty(s.shape[:-1] + (rows, a.shape[-1]))
    e = 1 if basis == BasisKind.LEGENDRE else 0
    if e:
        out[..., 0, :], row_1, v = h, 0.5 * h * (a + b), 0.5 * (a - 1.0) * (a + 1.0)
    else:
        # A_0(b) - A_0(a) is the angle between the unit vectors (a, r_a) and (b, r_b):
        # a quarter of it is atan(chord / (|sum| + 2)), as chord^2 + |sum|^2 = 4.  slope
        # is (r_a - r_b) / h without cancellation, 0 on the lone segment [-1, 1]
        r = np.sqrt((1.0 - s) * (1.0 + s))
        sum_s, sum_r = a + b, r[..., :-1] + r[..., 1:]
        slope = sum_s / np.maximum(sum_r, _TINY)
        chord = h * np.sqrt(1.0 + slope * slope)
        out[..., 0, :] = 4.0 * _atan(chord / (np.sqrt(sum_s * sum_s + sum_r * sum_r) + 2.0))
        row_1, v = h * slope, -r[..., :-1]
    out[..., 1:2, :] = row_1[..., None, :]
    o = out.swapaxes(0, -2)  # row views: as fast to index for a bucket as for one curve
    v_prev = 0.0  # A_0 drops out: beta = 0 at m = 1
    for m in range(1, rows - 1):
        alpha, beta = (2 * m + e) / (m + 1 + e), (m - 1) / (m + 1 + e)
        o[m + 1] = alpha * b * o[m] + alpha * h * v - beta * o[m - 1]
        v_prev, v = v, alpha * a * v - beta * v_prev
    return out


def _horner(c: np.ndarray, a: np.ndarray, steps: np.ndarray, up, lo) -> np.ndarray:
    """Rows of c(X - a) applied to steps, per segment; drops width - 1 rows.

    c is ([T,] nseg, [m,] width), a the segments' left ends ([T,] nseg) and
    steps ([T,] rows, nseg); the result is ([T,] [m,] rows - width + 1, nseg).
    """
    # ([T,] [m,] width, nseg): segments on a contiguous last axis, which .sum adds pairwise
    c = np.ascontiguousarray(np.moveaxis(c, a.ndim - 1, -1))
    per_function = a.shape[:-1] + (1,) * (c.ndim - a.ndim - 1)
    a = a.reshape(per_function + (1, a.shape[-1]))
    steps = steps.reshape(per_function + steps.shape[-2:])
    r = c[..., -1, None, :] * steps
    for u in range(c.shape[-2] - 2, -1, -1):
        n = r.shape[-2] - 1
        x = up[:n, None] * r[..., 1:, :] - a * r[..., :-1, :]
        x[..., 1:, :] += lo[1:n, None] * r[..., :-2, :]
        r = x + c[..., u, None, :] * steps[..., :n, :]
    return r


# byte budget of a block of a bucket's table, in _moments, bases._evaluate and classify._accuracy
_BLOCK_BYTES = 1 << 17


def _blocks(n: int, floats_each: int) -> list[slice]:
    """Slices of range(n) of as many items of floats_each floats as fit _BLOCK_BYTES, or one."""
    block = max(1, _BLOCK_BYTES // (8 * floats_each))
    return [slice(i, i + block) for i in range(0, n, block)]


def _moments(
    bp: np.ndarray, c: np.ndarray, basis: BasisKind, degree: int, derivative: bool = True
) -> tuple[np.ndarray, np.ndarray | None]:
    """Plain inners p and derivative inners q of f with the classical elements.

    f is one curve's arrays, breakpoints bp (n,) and local coefficients c
    (n - 1, [m,] width), or a bucket's, with a leading axis (T,) on both,
    checked by their maker, PiecewisePoly or ink._normalize.  p[..., k] is
    the integral over the breakpoint span of f B_k w for k <= degree, and
    q[..., k] that of f' B_k w for k < degree, where w is the weight under
    which the classical family (LEGENDRE or CHEBYSHEV) is orthogonal: 1 or
    1/sqrt(1 - s^2).  p is ([T,] [m,] degree + 1) and q ([T,] [m,] degree);
    q is None for piecewise constants, and when derivative is false.

    On a segment [a, b], s B_k = up[k] B_{k+1} + lo[k] B_{k-1} (the
    multiply-by-s matrix X), and B_m w has the closed-form antiderivative
    A_m: (P_{m+1} - P_{m-1}) / (2m + 1) for Legendre and -r U_{m-1}(s) / m,
    r = sqrt(1 - s^2), for Chebyshev.  So the integral of the local cubic
    c(s - a) against B_k is row k of c(X - a) applied to the vector [A_m]_a^b,
    evaluated by Horner; f' is contracted the same way, and both share one
    table of [A_m].  Every row depends only on lower rows and is summed over
    its own curve's segments, so the moments at a degree are an exact prefix
    of those at a higher one, and a curve's rows have the same bits in a
    bucket as alone.  A bucket passes in the _blocks of curves whose table
    fits _BLOCK_BYTES, and the blocks' p and q are concatenated.
    """
    if bp[..., 0].min() < -1.0 or bp[..., -1].max() > 1.0:
        raise InvalidDataError("breakpoints must lie within [-1, 1]")
    width = c.shape[-1]
    rows = degree + width
    up, lo = _three_term(basis, rows)

    def inners(bp, c):
        steps = _antiderivative_steps(basis, rows, bp)
        a = bp[..., :-1]
        p = _horner(c, a, steps, up, lo).sum(axis=-1)
        if not derivative or width == 1:
            return p, None
        dc = c[..., 1:] * np.arange(1, width)
        return p, _horner(dc, a, steps[..., : rows - 2, :], up, lo).sum(axis=-1)

    if bp.ndim == 1:
        return inners(bp, c)
    parts = _blocks(len(bp), rows * (c[0].size // width))
    ps, qs = zip(*(inners(bp[part], c[part]) for part in parts))
    return np.concatenate(ps), None if qs[0] is None else np.concatenate(qs)
