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
_weights, never negative and exactly 0 on duplicates.  Every neighbour list
comes from _nearest, whose order equals a stable sort, and every vote from
_votes, which decides all k = 1..kmax at once and equals the reference
_vote in tests/oracles.py.

knn_accuracy and accuracy_sweep, the corpus path, vote through one kernel,
_accuracy.  The sweep codes the labels and draws the split once, and each
kind votes on the [xs | ys] rows of its projected array, with no per-trace
object; ink buckets and projects the traces, bases shares the moments of
the kinds, and poly bounds the memory of each pass.
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


def _row_weights(table: CoeffTable, query: SymbolCoeffs, basis: OrthoBasis) -> np.ndarray:
    """The weights of a distance from query to the table's rows, all of one basis and its degree."""
    if table.basis_id != query.basis_id or query.basis_id != basis.basis_id:
        raise BasisMismatchError(
            f"coefficient bases differ: {table.basis_id} / {query.basis_id} vs {basis.basis_id}"
        )
    d = basis.degree
    if len(query.xs) != d or table.xs.shape[1] != d:
        raise BasisMismatchError(f"{basis.basis_id} needs {d} coefficients per coordinate, got "
                                 f"{len(query.xs)} and {table.xs.shape[1]}")
    return _weights(basis, d)


def _weighted_sq(xy: np.ndarray, q: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_j w_j (xy[i, j] - q_j)^2 for every row i of xy."""
    diff = xy - q
    diff *= diff
    # einsum rather than @: BLAS gemv rounds identical rows differently
    # depending on where they sit, which would reorder equal distances.
    return np.einsum("ij,j->i", diff, w)


def _sq_distances(table: CoeffTable, query: SymbolCoeffs, basis: OrthoBasis) -> np.ndarray:
    """Squared function-space distance from the query to every row of the table."""
    w = _row_weights(table, query, basis)
    return _weighted_sq(table.xy, np.concatenate([query.xs, query.ys]), w)


def _nearest(dist: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k smallest distances; equals argsort(dist, kind="stable")[:k].

    Partitioning finds the k-th value; every index at or below it is then
    stable-sorted, so ties at the k-th distance keep dataset order.  NaNs
    pass the ~(dist > kth) test too, and sort last, as in argsort.
    """
    kth = np.partition(dist, k - 1)[k - 1]
    cand = np.flatnonzero(~(dist > kth))
    return cand[np.argsort(dist[cand], kind="stable")[:k]]


def coeff_distance_sq(a: SymbolCoeffs, b: SymbolCoeffs, basis: OrthoBasis) -> float:
    """Squared function-space distance between two symbols.

    Equals the sum over degrees 1..d of ((x_i - u_i)^2 + (y_i - v_i)^2)
    times the family's squared norms; the constant terms were dropped, so
    position does not contribute.
    """
    return float(_sq_distances(CoeffTable((b,)), a, basis)[0])


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

    A CoeffTable is used as is; any other sequence is stacked once per call.
    """
    if not models:
        raise InvalidDataError("no models to match against")
    table = models if isinstance(models, CoeffTable) else CoeffTable(tuple(models))
    dist = _sq_distances(table, sample, basis)
    best = int(np.argmin(dist))
    return best, float(dist[best])


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


def knn_classify(
    train: LabeledDataset, query: SymbolCoeffs, k: int, basis: OrthoBasis
) -> str:
    """Majority label among the k nearest training items.

    Vote ties break by smaller summed distance, then lexicographic label;
    equal distances keep dataset order.
    """
    if not 1 <= _integer(k, "k") <= len(train):
        raise InvalidParameterError(f"k must be in [1, {len(train)}]")
    dist = _sq_distances(train, query, basis)
    order = _nearest(dist, k)
    return train.classes[_votes(train.codes[order], dist[order])[-1]]


def knn_accuracy(
    dataset: LabeledDataset, basis: OrthoBasis, ks: list[int]
) -> dict[int, float]:
    """Test-set accuracy of kNN for each k, under the dataset's own split."""
    train, test = dataset.split_indices()
    w = _row_weights(dataset, dataset[0], basis)
    return _accuracy(dataset.xy, dataset.codes, train, test, w, ks)


def _accuracy(
    xy: np.ndarray, codes: np.ndarray, train: np.ndarray, test: np.ndarray, w: np.ndarray,
    ks: list[int],
) -> dict[int, float]:
    """Share of the test rows of xy whose kNN vote among the train rows is their own code, per k.

    Each test row's kmax nearest training rows are found once, and all rows
    vote for every k at once.
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
    near = np.empty((len(test), kmax), dtype=int)
    near_dists = np.empty((len(test), kmax))
    for row, ti in enumerate(test):
        dist = _weighted_sq(train_xy, xy[ti], w)
        near[row] = _nearest(dist, kmax)
        near_dists[row] = dist[near[row]]
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
