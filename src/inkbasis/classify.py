"""Coefficient-space distances, reconstruction error, and kNN experiments.

Because the expansion coefficients live in a space where the family's
squared norms are fixed constants, the function-space distance between two
curves is a weighted Euclidean distance between their coefficient vectors.
Matching a sample against any number of models therefore costs O(d) per
model, independent of how many points the original traces had.

Models are a CoeffTable, its coefficients stacked once into (N, 2d) rows
[xs | ys]; a training set is a LabeledDataset, a CoeffTable whose labels are
coded once (classes, codes) and whose split comes from _split.  Every
distance comes from one kernel, _weighted_sq, in the direct difference form
sum_i h_i ((x_i - u_i)^2 + (y_i - v_i)^2) with the weights [h | h] of
_weights, never negative and exactly 0 on duplicates.

Every neighbour list, for match_symbol, knn_classify and the corpus vote,
comes from one kernel, _nearest_rows, which screens before it refines.  The
screen expands each distance as xn + qn - 2 <x, q w>, with the rows' norms
xn computed once per table, and bounds the rounding of that expansion; the
rows it cannot rule out are refined with _weighted_sq and ordered by
_nearest, a stable sort.  Neighbours and distances so have the bits of a
full scan (tests/oracles.nearest_rows), and the screen's own values, whose
last bits depend on the loop einsum picks for the CPU, reach no output.
The screen is an einsum, not a matrix product: a BLAS kernel's bits vary
with the CPU too, and the package calls none.  Only coeff_distance_sq
computes a distance to every row.  Every vote comes from _votes, which
decides all k = 1..kmax at once and equals the reference _vote in
tests/oracles.py.

knn_accuracy and accuracy_sweep, the corpus path, vote through one kernel,
_accuracy, which screens blocks of test rows within poly's byte budget.
The sweep codes the labels and draws the split once, and each kind votes on
the [xs | ys] rows of its projected array, with no per-trace object; ink
buckets and projects the traces, bases shares the moments of the kinds, and
poly bounds the memory of each pass.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .bases import DEFAULT_LAMBDA, OrthoBasis, _integer, build_named_basis
from .errors import BasisMismatchError, InvalidDataError, InvalidParameterError
from .ink import (
    CoeffTable, InkTrace, NormalizedTrace, SplineKind, SymbolCoeffs, _normalized_buckets,
    _project_buckets, _without_constants, reconstruct,
)
from .poly import _BLOCK_BYTES, _frozen

DEFAULT_SPLIT_SEED = 0
DEFAULT_SPLIT_RATIO = 2.0 / 3.0


def _label_codes(labels: list) -> tuple[tuple[str, ...], np.ndarray]:
    """The distinct labels, sorted, and each label's index among them; votes sort the labels."""
    odd = [label for label in labels if label is not None and not isinstance(label, str)]
    if odd:
        raise InvalidDataError(f"label must be a string, got {odd[0]!r}")
    if None in labels:
        raise InvalidDataError("every dataset item needs a label")
    classes = sorted(set(labels))
    code_of = {label: code for code, label in enumerate(classes)}
    return tuple(classes), np.array([code_of[label] for label in labels])


def _split(n: int, seed: int, ratio: float) -> tuple[np.ndarray, np.ndarray]:
    """Train and test indices: a seeded shuffle of range(n), cut at floor(ratio * n)."""
    if isinstance(ratio, bool) or not isinstance(ratio, numbers.Real) or not 0.0 < ratio < 1.0:
        raise InvalidParameterError("split_ratio must lie in (0, 1)")
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool) or seed < 0:
        raise InvalidParameterError(f"split_seed must be a non-negative integer, got {seed!r}")
    perm = np.random.default_rng(seed).permutation(n)
    cut = int(n * ratio)
    return perm[:cut], perm[cut:]


@dataclass(frozen=True, eq=False)
class LabeledDataset(CoeffTable):
    """A table of labeled coefficient sets with a deterministic split.

    classes holds the distinct labels in sorted order and codes (N,) each
    item's index into classes, both made once here.  The split is a seeded
    shuffle of the item indices; the prefix of length floor(ratio * n) is
    the training set.
    """

    split_seed: int = DEFAULT_SPLIT_SEED
    split_ratio: float = DEFAULT_SPLIT_RATIO
    classes: tuple[str, ...] = field(init=False, repr=False)
    codes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        super().__post_init__()
        if not self.items:
            raise InvalidDataError("dataset must contain at least one item")
        classes, codes = _label_codes([c.label for c in self.items])
        self.split_indices()  # a bad split_ratio or split_seed fails here, not at the first vote
        codes.setflags(write=False)
        object.__setattr__(self, "classes", classes)
        object.__setattr__(self, "codes", codes)

    def split_indices(self) -> tuple[np.ndarray, np.ndarray]:
        return _split(len(self.items), self.split_seed, self.split_ratio)


def _weights(basis: OrthoBasis, d: int) -> np.ndarray:
    """The weights [h | h] of a distance between [xs | ys] rows of d coefficients each."""
    h = basis.sq_norms[1 : d + 1]
    return np.concatenate([h, h])


def _row_weights(
    table: CoeffTable, query: SymbolCoeffs, basis: OrthoBasis
) -> tuple[np.ndarray, np.ndarray | None]:
    """The weights w of a distance from query to the table's rows, and the rows' _norms under w.

    Both are made on the table's first use and kept in its _norms slot: a
    table has one basis_id, and a basis_id names one basis.
    """
    if not isinstance(basis, OrthoBasis):
        raise InvalidParameterError(f"basis must be an OrthoBasis, got {type(basis).__name__}")
    if not isinstance(query, SymbolCoeffs):
        raise InvalidDataError(f"query must be a SymbolCoeffs, got {type(query).__name__}")
    if table.basis_id != query.basis_id or query.basis_id != basis.basis_id:
        raise BasisMismatchError(
            f"coefficient bases differ: {table.basis_id} / {query.basis_id} vs {basis.basis_id}"
        )
    d = basis.degree
    if len(query.xs) != d or table.xs.shape[1] != d:
        raise BasisMismatchError(f"{basis.basis_id} needs {d} coefficients per coordinate, got "
                                 f"{len(query.xs)} and {table.xs.shape[1]}")
    if table._norms is None:
        w = _weights(basis, d)
        object.__setattr__(table, "_norms", (w, _norms(table.xy, w)))
    return table._norms


def _row(c: SymbolCoeffs) -> np.ndarray:
    return np.concatenate([c.xs, c.ys])


def _weighted_sq(xy: np.ndarray, q, w: np.ndarray) -> np.ndarray:
    """sum_j w_j (xy[i, j] - q_j)^2 for every row i of xy; q is one row or one per row of xy."""
    diff = xy - q
    diff *= diff
    # einsum rather than @: BLAS gemv rounds identical rows differently
    # depending on where they sit, which would reorder equal distances.
    return np.einsum("ij,j->i", diff, w)


# Beyond these limits the screen could overflow, so a table with a norm at or
# past _SCREEN_LIMIT or a weight outside [2**-128, 2**128], and a query with
# a norm at or past it, are not screened: every row is a candidate.
_SCREEN_LIMIT = 2.0**512


def _gap(m: int) -> float:
    """g = 8 gamma_{m+3}, gamma_n = n u / (1 - n u): the screen's relative bound for m columns."""
    n = (m + 3) * 2.0**-53  # u = 2^-53, the unit roundoff
    return 8 * n / (1 - n)


def _norms(xy: np.ndarray, w: np.ndarray) -> np.ndarray | None:
    """The rows' screen norms (2, N), (1 + g) xn / 2 and (1 - g) xn / 2, with xn = sum (x x) w.

    None where the screen's bound does not hold (see _SCREEN_LIMIT).
    """
    if not np.all((w >= 2.0**-128) & (w <= 2.0**128)):
        return None
    xn = _weighted_sq(xy, 0.0, w)
    if not xn.max(initial=0.0) < _SCREEN_LIMIT:
        return None
    g = _gap(xy.shape[1])
    return _frozen(np.stack([xn * (0.5 + 0.5 * g), xn * (0.5 - 0.5 * g)]))


def _nearest_rows(
    xy: np.ndarray, xn: np.ndarray | None, queries: np.ndarray, w: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Each query row's k nearest rows of xy, nearest first: their indices and distances, (Q, k).

    Equal, bit for bit, to a full scan, _weighted_sq to every row followed by
    a stable sort (tests/oracles.nearest_rows).  A screen picks the rows that
    can be among the k nearest, and only those are refined with _weighted_sq.
    xn is _norms(xy, w); with None, or for a query whose norm is not below
    _SCREEN_LIMIT, every row is a candidate.

    The bound.  Let X = sum w x^2, Q = sum w q^2 and C = sum w x q, so the
    distance is D = X + Q - 2C; let S = X + Q.  As 2|x q| w <= w (x^2 + q^2),
    the terms of 2C sum in absolute value to at most S, and D <= 2S.  A sum of
    m terms, each made with r roundings, is within gamma_{m-1+r} times the
    sum of its terms' absolute values, in any order of summation and with or
    without fused multiply-adds (u = 2^-53, gamma_n = n u / (1 - n u)).
    Hence, for a row:
      xn = sum (x x) w and qn = sum q (q w), as computed: within gamma_{m+1} X
        and gamma_{m+1} Q;
      c = sum x (q w), the cross term: within gamma_{m+1} S / 2;
      the refine R = sum w (x - q)^2, with x - q rounded: within
        gamma_{m+3} D <= 2 gamma_{m+3} S;
      hi = (1 + g) xn / 2 and lo = (1 - g) xn / 2 (_norms): two roundings each;
      upper = hi - c and lower = lo - c: one rounding each, of at most 2uS.
    Adding these up, g = 8 gamma_{m+3} (5 gamma_{m+3} would do) gives, for the
    approximate distance A = xn + qn - 2c and e = g (xn + qn),
      R/2 <= upper + (1 + g) qn / 2 + eta   and   R/2 >= lower + (1 - g) qn / 2 - eta,
    that is A - e <= R <= A + e up to eta: upper and lower are (A + e)/2 and
    (A - e)/2 less the query's share, which is the same for every row.  eta =
    m 2^-700 covers gradual underflow: a rounded product loses at most
    2^-1075, which a later weight (<= 2^128) or factor (|x| <= 2^320 within the
    limits) scales to at most 2^-755, m times per sum.  Within the limits no
    value is NaN or infinite.

    The candidates.  Let tau be the k-th smallest upper.  The k rows at or
    below it have R/2 <= tau + (1 + g) qn / 2 + eta, so the k-th smallest R
    is at most that too, and any row whose R is at most the k-th smallest,
    ties included, has lower <= tau + g qn + 2 eta.  The computed threshold
    tau + (2 g qn + 4 eta) is at least that, and rounding is monotonic, so
    every such row is a candidate.  _weighted_sq reduces each row on its
    own, so a candidate's R has the full scan's bits, whatever loop einsum
    picks; the screen's own values reach no output.  The screen is an einsum,
    not a matrix product, as the package calls no BLAS.
    """
    qw = queries * w
    qn = np.einsum("qj,qj->q", queries, qw)
    if xn is None:
        keep = np.ones((len(queries), len(xy)), dtype=bool)
    else:
        c = np.einsum("ij,qj->qi", xy, qw)
        upper = xn[0] - c
        tau = upper.min(axis=1) if k == 1 else np.partition(upper, k - 1, axis=1)[:, k - 1]
        fold = 2 * _gap(xy.shape[1]) * qn + 4 * xy.shape[1] * 2.0**-700
        keep = np.subtract(xn[1], c, out=c) <= (tau + fold)[:, None]
        keep[~(qn < _SCREEN_LIMIT)] = True
    rows, cols = np.divmod(np.flatnonzero(keep), len(xy))
    dist = _weighted_sq(xy[cols], queries[rows], w)
    pick = _nearest(rows, dist, k)
    return cols[pick], dist[pick]


def _nearest(rows: np.ndarray, dist: np.ndarray, k: int) -> np.ndarray:
    """Positions of each query's k smallest distances, nearest first: (Q, k), Q = rows[-1] + 1.

    rows numbers the query of each distance, ascending, with at least k per
    query.  Within a query the order equals argsort(dist, kind="stable"):
    equal distances keep their order, and NaNs sort last.
    """
    order = np.lexsort((dist, rows))
    starts = np.searchsorted(rows, np.arange(rows[-1] + 1))
    return order[starts[:, None] + np.arange(k)]


def coeff_distance_sq(a: SymbolCoeffs, b: SymbolCoeffs, basis: OrthoBasis) -> float:
    """Squared function-space distance between two symbols.

    Equals the sum over degrees 1..d of ((x_i - u_i)^2 + (y_i - v_i)^2)
    times the family's squared norms; the constant terms were dropped, so
    position does not contribute.
    """
    table = CoeffTable((b,))
    w, _ = _row_weights(table, a, basis)
    return float(_weighted_sq(table.xy, _row(a), w)[0])


def representation_error(
    trace: InkTrace,
    normalized: NormalizedTrace,
    coeffs: SymbolCoeffs,
    basis: OrthoBasis,
) -> float:
    """Summed pointwise distance between a trace and its reconstruction.

    The truncated series is evaluated at the knot parameters, mapped back
    to the input frame (undo the 2/L rescale, restore the constant terms),
    and compared point by point with the source trace.
    """
    if len(normalized.knots) != len(trace.points):
        raise InvalidDataError(
            f"{len(normalized.knots)} knots vs {len(trace.points)} points"
        )
    xhat, yhat = reconstruct(coeffs, basis, normalized.knots)
    return float(
        np.sum(np.hypot(trace.points[:, 0] - xhat, trace.points[:, 1] - yhat))
    )


def match_symbol(
    sample: SymbolCoeffs, models: CoeffTable | list[SymbolCoeffs], basis: OrthoBasis
) -> tuple[int, float]:
    """Index and squared distance of the closest model; ties take the lowest index.

    A CoeffTable is used as is, and its rows' norms are computed on its first
    match only.  Any other sequence is stacked once per call, so it pays the
    stacking and the norm pass on every call.
    """
    if not models:
        raise InvalidDataError("no models to match against")
    table = models if isinstance(models, CoeffTable) else CoeffTable(tuple(models))
    w, xn = _row_weights(table, sample, basis)
    near, dist = _nearest_rows(table.xy, xn, _row(sample)[None], w, 1)
    return int(near[0, 0]), float(dist[0, 0])


_NO_CODE = np.iinfo(np.int64).max  # above every label code


def _votes(codes: np.ndarray, dists: np.ndarray) -> np.ndarray:
    """Winning label code among the first k neighbours, for every k = 1..kmax.

    codes (..., kmax) number the neighbours' labels in sorted label order
    and dists (..., kmax) are their distances, nearest first; the result is
    (..., kmax).  The rule is the reference _vote's (tests/oracles.py): the
    most frequent label wins; a tie goes to the smaller summed distance, then
    the smaller label.  Slot i stands for neighbour i's label, so the tables
    are kmax wide whatever the number of labels, and cumsum adds each label's
    distances in neighbour order, as _vote does, with exact zeros between.
    """
    same = codes[..., :, None] == codes[..., None, :]  # [j, i]: neighbour j has slot i's label
    counts = same.cumsum(axis=-2)  # [k, i]: how often slot i's label is in the first k + 1
    sums = np.where(same, dists[..., :, None], 0.0).cumsum(axis=-2)
    tied = counts == counts.max(axis=-1, keepdims=True)
    best = np.where(tied, sums, np.inf).min(axis=-1, keepdims=True)
    return np.where(tied & (sums == best), codes[..., None, :], _NO_CODE).min(axis=-1)


def _check_dataset(dataset: LabeledDataset) -> None:
    if not isinstance(dataset, LabeledDataset):
        raise InvalidDataError(f"a kNN vote needs a LabeledDataset, got {type(dataset).__name__}")


def knn_classify(
    train: LabeledDataset, query: SymbolCoeffs, k: int, basis: OrthoBasis
) -> str:
    """Majority label among the k nearest training items.

    Vote ties break by smaller summed distance, then lexicographic label;
    equal distances keep dataset order.
    """
    _check_dataset(train)
    w, xn = _row_weights(train, query, basis)
    if not 1 <= _integer(k, "k") <= len(train):
        raise InvalidParameterError(f"k must be in [1, {len(train)}]")
    near, dist = _nearest_rows(train.xy, xn, _row(query)[None], w, k)
    return train.classes[_votes(train.codes[near[0]], dist[0])[-1]]


def knn_accuracy(
    dataset: LabeledDataset, basis: OrthoBasis, ks: list[int]
) -> dict[int, float]:
    """Test-set accuracy of kNN for each k, under the dataset's own split."""
    _check_dataset(dataset)
    train, test = dataset.split_indices()
    w, _ = _row_weights(dataset, dataset[0], basis)
    return _accuracy(dataset.xy, dataset.codes, train, test, w, ks)


def _accuracy(
    xy: np.ndarray, codes: np.ndarray, train: np.ndarray, test: np.ndarray, w: np.ndarray,
    ks: list[int],
) -> dict[int, float]:
    """Share of the test rows of xy whose kNN vote among the train rows is their own code, per k.

    Each test row's kmax nearest training rows are found once, by
    _nearest_rows on blocks of test rows whose screen fits _BLOCK_BYTES, and
    all rows vote for every k at once.
    """
    if len(train) == 0:
        raise InvalidDataError("split left no training items")
    ks = [_integer(k, "k") for k in ks]
    if not ks or min(ks) < 1:
        raise InvalidParameterError(f"every k must be in [1, {len(train)}], got {ks}")
    kmax = max(ks)
    if kmax > len(train):
        raise InvalidParameterError(f"k={kmax} exceeds training size {len(train)}")
    train_xy = xy[train]
    xn = _norms(train_xy, w)
    block = max(1, _BLOCK_BYTES // (8 * len(train)))
    near = np.empty((len(test), kmax), dtype=np.intp)
    near_dists = np.empty((len(test), kmax))
    for i in range(0, len(test), block):
        part = slice(i, i + block)
        near[part], near_dists[part] = _nearest_rows(train_xy, xn, xy[test[part]], w, kmax)
    hits = np.sum(_votes(codes[train][near], near_dists) == codes[test][:, None], axis=0)
    n_test = max(1, len(test))
    return {k: int(hits[k - 1]) / n_test for k in ks}


def accuracy_sweep(
    traces: list[InkTrace],
    basis_kinds: list[str],
    k_range: range | list[int],
    degree: int = 10,
    lam: float = DEFAULT_LAMBDA,
    spline: SplineKind = SplineKind.LINEAR,
    split_seed: int = DEFAULT_SPLIT_SEED,
    split_ratio: float = DEFAULT_SPLIT_RATIO,
) -> list[dict]:
    """Accuracy and error rate per (basis kind, k) on labeled traces.

    Each trace is normalized once, in buckets of equal shape, and projected
    once per weight; each kind votes on the [xs | ys] rows of its projected
    array, with a kind-by-kind projection's bits, and all kinds share one
    coding of the labels and one split.  The bases are built and the split
    drawn before any trace is normalized, so a bad kind, degree, lambda or
    split costs no normalization; then the first failing trace in input
    order raises what it raises alone.  Returns {"basis", "k", "accuracy",
    "error_rate"} rows in sweep order.
    """
    if not traces:
        raise InvalidDataError("no traces supplied")
    ks = list(k_range)
    bases = [build_named_basis(kind, degree, lam) for kind in basis_kinds]
    train, test = _split(len(traces), split_seed, split_ratio)
    buckets = _normalized_buckets(traces, spline)
    xys = [_without_constants(coeffs).reshape(len(traces), -1)
           for coeffs in _project_buckets(buckets, bases, len(traces))]
    _, codes = _label_codes([t.label for t in traces])
    rows = []
    for kind, basis, xy in zip(basis_kinds, bases, xys):
        acc = _accuracy(xy, codes, train, test, _weights(basis, degree), ks)
        for k in ks:
            rows.append(
                {
                    "basis": kind,
                    "k": k,
                    "accuracy": acc[k],
                    "error_rate": 1.0 - acc[k],
                }
            )
    return rows
