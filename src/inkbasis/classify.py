"""Coefficient-space distances, reconstruction error, and kNN experiments.

Because the expansion coefficients live in a space where the family's
squared norms are fixed constants, the function-space distance between two
curves is a weighted Euclidean distance between their coefficient vectors.
Matching a sample against any number of models therefore costs O(d) per
model, independent of how many points the original traces had.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .bases import OrthoBasis, build_named_basis, synthesize
from .errors import (
    BasisMismatchError,
    EmptyModelSetError,
    EmptyTrainingSetError,
    InvalidDataError,
    InvalidParameterError,
    LengthMismatchError,
)
from .ink import (
    InkTrace, NormalizedTrace, SplineKind, SymbolCoeffs, arc_length_normalize, to_coeffs
)

DEFAULT_SPLIT_SEED = 0
DEFAULT_SPLIT_RATIO = 2.0 / 3.0


@dataclass(frozen=True)
class LabeledDataset:
    """Labeled coefficient vectors with deterministic split metadata.

    The split is a seeded shuffle of the item indices; the prefix of length
    floor(ratio * n) is the training set.
    """

    items: tuple[SymbolCoeffs, ...]
    split_seed: int = DEFAULT_SPLIT_SEED
    split_ratio: float = DEFAULT_SPLIT_RATIO

    def __post_init__(self):
        items = tuple(self.items)
        if not items:
            raise ValueError("dataset must contain at least one item")
        if any(c.label is None for c in items):
            raise InvalidDataError("every dataset item needs a label")
        ids = {c.basis_id for c in items}
        if len(ids) != 1:
            raise ValueError(f"items span multiple bases: {sorted(ids)}")
        if not 0.0 < self.split_ratio < 1.0:
            raise ValueError("split_ratio must lie in (0, 1)")
        object.__setattr__(self, "items", items)

    @property
    def basis_id(self) -> str:
        return self.items[0].basis_id

    def split_indices(self) -> tuple[np.ndarray, np.ndarray]:
        rng = np.random.default_rng(self.split_seed)
        perm = rng.permutation(len(self.items))
        cut = int(len(self.items) * self.split_ratio)
        return perm[:cut], perm[cut:]

    def split(self) -> tuple[list[SymbolCoeffs], list[SymbolCoeffs]]:
        train_idx, test_idx = self.split_indices()
        return [self.items[i] for i in train_idx], [self.items[i] for i in test_idx]


def _check_pair(a: SymbolCoeffs, b: SymbolCoeffs, basis: OrthoBasis) -> None:
    if a.basis_id != b.basis_id or a.basis_id != basis.basis_id:
        raise BasisMismatchError(
            f"coefficient bases differ: {a.basis_id} / {b.basis_id} vs {basis.basis_id}"
        )
    if len(a.xs) != len(b.xs):
        raise BasisMismatchError("coefficient lengths differ")


def coeff_distance_sq(a: SymbolCoeffs, b: SymbolCoeffs, basis: OrthoBasis) -> float:
    """Squared function-space distance between two symbols.

    Equals the sum over degrees 1..d of ((x_i - u_i)^2 + (y_i - v_i)^2)
    times the family's squared norms; the constant terms were dropped, so
    position does not contribute.
    """
    _check_pair(a, b, basis)
    h = basis.sq_norms[1 : len(a.xs) + 1]
    dx = a.xs - b.xs
    dy = a.ys - b.ys
    return float(np.dot(dx * dx + dy * dy, h))


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
        raise LengthMismatchError(
            f"{len(normalized.knots)} knots vs {len(trace.points)} points"
        )
    if coeffs.x0 is None or coeffs.y0 is None or coeffs.length is None:
        raise ValueError("coefficients lack the constant-term sidecar")
    px = synthesize(np.concatenate([[coeffs.x0], coeffs.xs]), basis)
    py = synthesize(np.concatenate([[coeffs.y0], coeffs.ys]), basis)
    scale = coeffs.length / 2.0
    xhat = px(normalized.knots) * scale
    yhat = py(normalized.knots) * scale
    return float(
        np.sum(np.hypot(trace.points[:, 0] - xhat, trace.points[:, 1] - yhat))
    )


def match_symbol(
    sample: SymbolCoeffs, models: list[SymbolCoeffs], basis: OrthoBasis
) -> tuple[int, float]:
    """Index and squared distance of the closest model; ties take the lowest index."""
    if not models:
        raise EmptyModelSetError("no models to match against")
    best_i, best_d = 0, np.inf
    for i, m in enumerate(models):
        d = coeff_distance_sq(sample, m, basis)
        if d < best_d:
            best_i, best_d = i, d
    return best_i, float(best_d)


def match_symbol_json(
    sample: SymbolCoeffs, models: list[SymbolCoeffs], basis: OrthoBasis
) -> dict:
    """match_symbol as a serializable record: {model_index, distance_sq}."""
    index, dist = match_symbol(sample, models, basis)
    return {"model_index": index, "distance_sq": dist}


def _feature_matrix(items, basis: OrthoBasis) -> np.ndarray:
    """Stack coefficients scaled by sqrt of the norms.

    Plain Euclidean distance on these rows equals the weighted coefficient
    distance, which lets the sweep use fast matrix arithmetic.
    """
    d = len(items[0].xs)
    root_h = np.sqrt(basis.sq_norms[1 : d + 1])
    out = np.empty((len(items), 2 * d))
    for i, c in enumerate(items):
        out[i, :d] = c.xs * root_h
        out[i, d:] = c.ys * root_h
    return out


def _vote(labels: list[str], dists: np.ndarray) -> str:
    counts = Counter(labels)
    top = max(counts.values())
    candidates = [lab for lab, n in counts.items() if n == top]
    if len(candidates) == 1:
        return candidates[0]
    summed = {lab: 0.0 for lab in candidates}
    for lab, d in zip(labels, dists):
        if lab in summed:
            summed[lab] += d
    return min(candidates, key=lambda lab: (summed[lab], lab))


def knn_classify(
    train: LabeledDataset, query: SymbolCoeffs, k: int, basis: OrthoBasis
) -> str:
    """Majority label among the k nearest training items.

    Vote ties break by smaller summed distance, then lexicographic label;
    equal distances keep dataset order.
    """
    items = train.items
    if not items:
        raise EmptyTrainingSetError("training set is empty")
    if not 1 <= k <= len(items):
        raise ValueError(f"k must be in [1, {len(items)}]")
    _check_pair(query, items[0], basis)
    X = _feature_matrix(items, basis)
    q = _feature_matrix([query], basis)[0]
    dist = np.sum((X - q) ** 2, axis=1)
    order = np.argsort(dist, kind="stable")[:k]
    return _vote([items[i].label for i in order], dist[order])


def knn_accuracy(
    dataset: LabeledDataset, basis: OrthoBasis, ks: list[int]
) -> dict[int, float]:
    """Test-set accuracy of kNN for each k, under the dataset's own split."""
    train_idx, test_idx = dataset.split_indices()
    if len(train_idx) == 0:
        raise EmptyTrainingSetError("split left no training items")
    X = _feature_matrix(dataset.items, basis)
    labels = [c.label for c in dataset.items]
    Xtr = X[train_idx]
    kmax = max(ks)
    if kmax > len(train_idx):
        raise InvalidParameterError(f"k={kmax} exceeds training size {len(train_idx)}")

    correct = {k: 0 for k in ks}
    chunk = 512
    for start in range(0, len(test_idx), chunk):
        idx = test_idx[start : start + chunk]
        D = (
            np.sum(X[idx] ** 2, axis=1)[:, None]
            - 2.0 * X[idx] @ Xtr.T
            + np.sum(Xtr**2, axis=1)[None, :]
        )
        for row, ti in enumerate(idx):
            order = np.argsort(D[row], kind="stable")[:kmax]
            neigh_labels = [labels[train_idx[j]] for j in order]
            neigh_dists = D[row][order]
            for k in ks:
                if _vote(neigh_labels[:k], neigh_dists[:k]) == labels[ti]:
                    correct[k] += 1
    n_test = max(1, len(test_idx))
    return {k: correct[k] / n_test for k in ks}


def accuracy_sweep(
    traces: list[InkTrace],
    basis_kinds: list[str],
    k_range: range | list[int],
    degree: int = 10,
    lam: float = 0.125,
    spline: SplineKind = SplineKind.LINEAR,
    split_seed: int = DEFAULT_SPLIT_SEED,
    split_ratio: float = DEFAULT_SPLIT_RATIO,
) -> list[dict]:
    """Accuracy and error rate per (basis kind, k) on labeled traces.

    Each trace is normalized once; each basis kind gets its own coefficient
    dataset projected from those curves, and all kinds share the same
    deterministic train/test split, so rows are comparable.  Returns rows of
    {"basis", "k", "accuracy", "error_rate"} in sweep order.
    """
    if not traces:
        raise InvalidDataError("no traces supplied")
    ks = list(k_range)
    normalized = [arc_length_normalize(t, spline) for t in traces]
    rows = []
    for kind in basis_kinds:
        basis = build_named_basis(kind, degree, lam)
        items = tuple(to_coeffs(n, basis, label=t.label) for t, n in zip(traces, normalized))
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
