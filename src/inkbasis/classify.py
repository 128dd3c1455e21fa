"""Coefficient-space distances, reconstruction error, and kNN experiments.

Because the expansion coefficients live in a space where the family's
squared norms are fixed constants, the function-space distance between two
curves is a weighted Euclidean distance between their coefficient vectors.
Matching a sample against any number of models therefore costs O(d) per
model, independent of how many points the original traces had.

Models and training sets are held as a CoeffTable, whose coefficients are
stacked once into (N, 2d) rows [xs | ys].  Every distance -- one pair, a
match, a kNN query or a whole accuracy table -- comes from one kernel,
_weighted_sq, in the direct difference form
sum_i h_i ((x_i - u_i)^2 + (y_i - v_i)^2), which is never negative and is
exactly 0 on duplicates; _row_weights checks the bases once per call.
Every neighbour list comes from one selection, _nearest, whose order
equals a stable sort: equal distances keep dataset order.  Every vote comes
from _votes, which decides all k = 1..kmax of one or many test rows at once
and equals the label-by-label reference _vote in tests/oracles.py.

accuracy_sweep, the corpus path, decides only the experiment (kinds, split
and k); ink buckets and projects the traces, bases shares the moments of
the kinds, and poly bounds the memory of each pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bases import DEFAULT_LAMBDA, OrthoBasis, build_named_basis
from .errors import BasisMismatchError, InvalidDataError, InvalidParameterError
from .ink import (
    CoeffTable, InkTrace, NormalizedTrace, SplineKind, SymbolCoeffs, _normalized_buckets,
    _project_buckets, _symbol, reconstruct,
)

DEFAULT_SPLIT_SEED = 0
DEFAULT_SPLIT_RATIO = 2.0 / 3.0


@dataclass(frozen=True)
class LabeledDataset:
    """Labeled coefficient vectors with deterministic split metadata.

    The split is a seeded shuffle of the item indices; the prefix of length
    floor(ratio * n) is the training set.  table holds the same items by
    column.
    """

    items: tuple[SymbolCoeffs, ...]
    split_seed: int = DEFAULT_SPLIT_SEED
    split_ratio: float = DEFAULT_SPLIT_RATIO
    table: CoeffTable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        items = tuple(self.items)
        if not items:
            raise InvalidDataError("dataset must contain at least one item")
        if any(c.label is None for c in items):
            raise InvalidDataError("every dataset item needs a label")
        table = CoeffTable(items)
        if not 0.0 < self.split_ratio < 1.0:
            raise InvalidParameterError("split_ratio must lie in (0, 1)")
        object.__setattr__(self, "items", items)
        object.__setattr__(self, "table", table)

    def split_indices(self) -> tuple[np.ndarray, np.ndarray]:
        rng = np.random.default_rng(self.split_seed)
        perm = rng.permutation(len(self.items))
        cut = int(len(self.items) * self.split_ratio)
        return perm[:cut], perm[cut:]


def _row_weights(table: CoeffTable, query: SymbolCoeffs, basis: OrthoBasis) -> np.ndarray:
    """The weights [h | h] of a distance from query to the table's rows, all of one basis."""
    if table.basis_id != query.basis_id or query.basis_id != basis.basis_id:
        raise BasisMismatchError(
            f"coefficient bases differ: {table.basis_id} / {query.basis_id} vs {basis.basis_id}"
        )
    d = len(query.xs)
    if table.xs.shape[1] != d:
        raise BasisMismatchError("coefficient lengths differ")
    h = basis.sq_norms[1 : d + 1]
    return np.concatenate([h, h])


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
    items = train.items
    if not 1 <= k <= len(items):
        raise InvalidParameterError(f"k must be in [1, {len(items)}]")
    dist = _sq_distances(train.table, query, basis)
    order = _nearest(dist, k)
    neighbours = [items[i].label for i in order]
    labels = sorted(set(neighbours))
    codes = np.array([labels.index(label) for label in neighbours])
    return labels[_votes(codes, dist[order])[-1]]


def knn_accuracy(
    dataset: LabeledDataset, basis: OrthoBasis, ks: list[int]
) -> dict[int, float]:
    """Test-set accuracy of kNN for each k, under the dataset's own split.

    Each test row's kmax nearest training items are found once, and all
    rows vote for every k at once.
    """
    train_idx, test_idx = dataset.split_indices()
    if len(train_idx) == 0:
        raise InvalidDataError("split left no training items")
    if not ks or min(ks) < 1:
        raise InvalidParameterError(f"every k must be in [1, {len(train_idx)}], got {ks}")
    kmax = max(ks)
    if kmax > len(train_idx):
        raise InvalidParameterError(f"k={kmax} exceeds training size {len(train_idx)}")
    items = dataset.items
    w = _row_weights(dataset.table, items[0], basis)
    xy = dataset.table.xy
    train_xy = xy[train_idx]
    train_labels = [items[i].label for i in train_idx]
    code_of = {label: code for code, label in enumerate(sorted(set(train_labels)))}
    train_codes = np.array([code_of[label] for label in train_labels])
    test_codes = np.array([code_of.get(items[i].label, -1) for i in test_idx])

    near = np.empty((len(test_idx), kmax), dtype=int)
    near_dists = np.empty((len(test_idx), kmax))
    for row, ti in enumerate(test_idx):
        dist = _weighted_sq(train_xy, xy[ti], w)
        near[row] = _nearest(dist, kmax)
        near_dists[row] = dist[near[row]]
    hits = np.sum(_votes(train_codes[near], near_dists) == test_codes[:, None], axis=0)
    n_test = max(1, len(test_idx))
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

    Each trace is normalized once, in buckets of equal shape, and its
    moments are taken once per weight; each basis kind gets its own
    coefficient dataset from them, with the bits a kind-by-kind projection
    gives, and all kinds share the same deterministic train/test split, so
    rows are comparable.  A trace that fails raises what it raises alone,
    the first in input order.  Returns rows of {"basis", "k", "accuracy",
    "error_rate"} in sweep order.
    """
    if not traces:
        raise InvalidDataError("no traces supplied")
    ks = list(k_range)
    buckets, lengths = _normalized_buckets(traces, spline)
    labels = [t.label for t in traces]
    bases = [build_named_basis(kind, degree, lam) for kind in basis_kinds]
    rows = []
    for kind, basis, coeffs in zip(basis_kinds, bases,
                                   _project_buckets(buckets, bases, len(traces))):
        items = tuple(_symbol(row, basis.basis_id, label, float(length))
                      for row, label, length in zip(coeffs, labels, lengths))
        dataset = LabeledDataset(items, split_seed=split_seed, split_ratio=split_ratio)
        acc = knn_accuracy(dataset, basis, ks)
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
