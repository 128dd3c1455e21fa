"""Independent references for the benchmark's output checks.

Coefficients come from Gauss-Legendre quadrature on function values (with
x = cos(theta) for the inverse-square-root weight), not from the library's
closed-form moments.  The orthogonal family itself (its expansion rows and
squared norms) is taken from the library's OrthoBasis, so these checks
isolate normalization and projection.  kNN and matching references compute
every squared distance from coefficient differences and apply the tie rules
documented in inkbasis.classify.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
from numpy.polynomial import legendre as L
from scipy.interpolate import CubicSpline

COEFF_ATOL = 1e-9  # absolute tolerance on normalized-curve coefficients


def collapse(points: np.ndarray) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    keep = np.r_[True, np.any(pts[1:] != pts[:-1], axis=1)]
    return pts[keep]


def _knots(seg_lengths: np.ndarray) -> tuple[np.ndarray, float]:
    total = float(seg_lengths.sum())
    knots = 2.0 * np.r_[0.0, np.cumsum(seg_lengths)] / total - 1.0
    knots[0], knots[-1] = -1.0, 1.0
    return knots, total


def linear_curve(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Arc-length knots on [-1, 1] and the point values rescaled by 2/L."""
    pts = collapse(points)
    knots, total = _knots(np.hypot(*np.diff(pts, axis=0).T))
    return knots, pts * (2.0 / total)


def cubic_curve(knots: np.ndarray, total: float, points: np.ndarray) -> CubicSpline:
    """Natural cubic through the points rescaled by 2/total, on the given knots.

    knots and total are the library's arc-length parameters and length: the
    arc length of a cubic has no closed form, so the check starts from them
    and covers the spline fit and the projection.
    """
    return CubicSpline(knots, collapse(points) * (2.0 / total), bc_type="natural")


def _classical(x_or_theta: np.ndarray, chebyshev: bool, d: int):
    """Values and derivatives of the classical elements 0..d at the nodes."""
    j = np.arange(d + 1)
    if chebyshev:
        th = x_or_theta[..., None]
        return np.cos(j * th), j * np.sin(j * th) / np.sin(th)
    v = L.legvander(x_or_theta, d)
    dmat = np.zeros((d + 1, d + 1))
    for k in range(1, d + 1):
        dmat[:k, k] = L.legder(np.eye(d + 1)[k])[:k]
    return v, v @ dmat


def _segment_inners(a, b, evaluate, chebyshev, lam, d):
    """(S, d+1, 2): per-segment <f, P_j> + lam <f', P_j'> under the weight.

    evaluate(x) maps an (S, m) node array to f and f' of shape (S, m, 2).
    """
    m = d + 28 if chebyshev else d // 2 + 6
    g, w = L.leggauss(m)
    if chebyshev:  # integral of u(x)/sqrt(1-x^2) over [a, b] = integral of u(cos t) over t
        lo, hi = np.arccos(b), np.arccos(a)
    else:
        lo, hi = a, b
    mid, half = (hi + lo) / 2, (hi - lo) / 2
    nodes = mid[:, None] + half[:, None] * g
    weights = half[:, None] * w
    x = np.cos(nodes) if chebyshev else nodes
    f, fp = evaluate(x)
    p, pp = _classical(nodes if chebyshev else x, chebyshev, d)
    out = np.einsum("sm,smc,smj->sjc", weights, f, p)
    if lam:
        out += lam * np.einsum("sm,smc,smj->sjc", weights, fp, pp)
    return out


def _to_coeffs(v: np.ndarray, basis) -> np.ndarray:
    return np.einsum("ij,tjc->tic", basis.expansion, v) / basis.sq_norms[None, :, None]


def _basis_args(basis):
    spec = basis.spec
    return spec.weight.value == "inverse_sqrt", (spec.lam if spec.is_sobolev else 0.0), basis.degree


def linear_coeffs(traces: list[np.ndarray], basis, chunk: int = 2_000_000) -> np.ndarray:
    """(T, d+1, 2) coefficients of the linear-spline normalized traces."""
    cheb, lam, d = _basis_args(basis)
    curves = [linear_curve(p) for p in traces]
    counts = np.array([len(k) - 1 for k, _ in curves])
    a = np.concatenate([k[:-1] for k, _ in curves])
    b = np.concatenate([k[1:] for k, _ in curves])
    va = np.concatenate([v[:-1] for _, v in curves])
    slope = np.concatenate([np.diff(v, axis=0) for _, v in curves]) / (b - a)[:, None]
    owner = np.repeat(np.arange(len(curves)), counts)
    out = np.zeros((len(curves), d + 1, 2))
    step = max(1, chunk // ((d + 28) * (d + 1)))
    for s in range(0, len(a), step):
        sl = slice(s, s + step)

        def evaluate(x, sl=sl):
            f = va[sl, None, :] + (x - a[sl, None])[..., None] * slope[sl, None, :]
            return f, np.broadcast_to(slope[sl, None, :], f.shape)

        np.add.at(out, owner[sl], _segment_inners(a[sl], b[sl], evaluate, cheb, lam, d))
    return _to_coeffs(out, basis)


def cubic_coeffs(knots: np.ndarray, total: float, points: np.ndarray, basis) -> np.ndarray:
    """(d+1, 2) coefficients of one cubic-spline normalized trace."""
    cheb, lam, d = _basis_args(basis)
    cs = cubic_curve(knots, total, points)
    k = cs.x
    v = _segment_inners(k[:-1], k[1:], lambda x: (cs(x), cs(x, 1)), cheb, lam, d)
    return _to_coeffs(v.sum(axis=0)[None], basis)[0]


def coeff_error(lib_xs, lib_ys, ref: np.ndarray) -> float:
    """Largest absolute difference over the degree 1..d coefficients."""
    return float(max(np.max(np.abs(lib_xs - ref[1:, 0])), np.max(np.abs(lib_ys - ref[1:, 1]))))


# ------------------------------------------------------------ kNN references


def features(coeffs: np.ndarray) -> np.ndarray:
    """(T, 2d) rows [xs | ys] from (T, d+1, 2) coefficients, constant terms dropped."""
    return np.concatenate([coeffs[:, 1:, 0], coeffs[:, 1:, 1]], axis=1)


def sq_distances(queries: np.ndarray, models: np.ndarray, h: np.ndarray) -> np.ndarray:
    """(Q, M) sum over degrees of h_i ((x_i - u_i)^2 + (y_i - v_i)^2)."""
    hh = np.r_[h, h]
    out = np.empty((len(queries), len(models)))
    step = max(1, 1_000_000 // max(1, models.size))
    for s in range(0, len(queries), step):
        diff = queries[s : s + step, None, :] - models[None, :, :]
        out[s : s + step] = (diff * diff) @ hh
    return out


def vote(labels: list[str], dists: np.ndarray) -> str:
    """Majority label; ties by smaller summed distance, then label order."""
    counts = Counter(labels)
    top = max(counts.values())
    cands = [lab for lab, n in counts.items() if n == top]
    summed = {lab: float(sum(d for l, d in zip(labels, dists) if l == lab)) for lab in cands}
    return min(cands, key=lambda lab: (summed[lab], lab))


def knn_predictions(dist_row: np.ndarray, labels: list[str], ks: list[int]) -> dict[int, str]:
    """Prediction per k; equal distances keep model order (stable sort)."""
    order = np.argsort(dist_row, kind="stable")[: max(ks)]
    near = [labels[j] for j in order]
    return {k: vote(near[:k], dist_row[order[:k]]) for k in ks}


def split_indices(n: int, seed: int, ratio: float) -> tuple[np.ndarray, np.ndarray]:
    """The documented LabeledDataset split: seeded permutation, train prefix."""
    perm = np.random.default_rng(seed).permutation(n)
    cut = int(n * ratio)
    return perm[:cut], perm[cut:]


def knn_correct_counts(coeffs, labels, h, ks, seed, ratio) -> dict[int, int]:
    """Correct test predictions per k under the split, by brute force."""
    tr, te = split_indices(len(labels), seed, ratio)
    X = features(coeffs)
    D = sq_distances(X[te], X[tr], h)
    tr_labels = [labels[i] for i in tr]
    correct = dict.fromkeys(ks, 0)
    for row, ti in enumerate(te):
        for k, pred in knn_predictions(D[row], tr_labels, ks).items():
            correct[k] += pred == labels[ti]
    return correct
