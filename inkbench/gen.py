"""Seeded input generators for the three benchmark workloads.

Every function here is a pure function of its seed: the same seed yields
byte-identical files and documents.  The library under test only ever sees
what these functions write (pendigits text, InkML documents, a model-set
archive); it never receives the seed or the generator state.
"""

from __future__ import annotations

from functools import lru_cache
from pathlib import Path

import numpy as np

N_CLASSES = 10
GRID = 100.0

# pendigits-knn
PEN_POINTS = 8
PEN_JITTER = 16.0         # grid units; large enough that classes overlap
PEN_DUP_SHARE = 0.10      # share of traces that are exact copies of another

# long-sweep
SWEEP_MIN_POINTS, SWEEP_MAX_POINTS = 100, 1000

# query-stream
QUERY_MIN_POINTS, QUERY_MAX_POINTS = 8, 40
QUERY_MAX_STROKES = 3
QUERY_JITTER = 3.0


@lru_cache(maxsize=4)
def prototypes(seed: int) -> np.ndarray:
    """(N_CLASSES, PEN_POINTS, 2) smooth random polylines filling the 0..100 box.

    Cached and read-only: the query stream asks for them once per query.
    """
    rng = np.random.default_rng([seed, 1])
    out = np.empty((N_CLASSES, PEN_POINTS, 2))
    for c in range(N_CLASSES):
        heading = rng.uniform(0, 2 * np.pi) + np.cumsum(rng.normal(0.0, 1.1, PEN_POINTS - 1))
        steps = rng.uniform(0.6, 1.4, PEN_POINTS - 1)[:, None] * np.c_[np.cos(heading), np.sin(heading)]
        pts = np.vstack([[0.0, 0.0], np.cumsum(steps, axis=0)])
        pts -= pts.min(axis=0)
        out[c] = pts * (GRID / pts.max())
    out.setflags(write=False)
    return out


def _resample(poly: np.ndarray, n: int) -> np.ndarray:
    """n points spaced evenly by arc length along a polyline."""
    cum = np.concatenate([[0.0], np.cumsum(np.hypot(*np.diff(poly, axis=0).T))])
    s = np.linspace(0.0, cum[-1], n)
    return np.c_[np.interp(s, cum, poly[:, 0]), np.interp(s, cum, poly[:, 1])]


def _distinct(pts: np.ndarray) -> bool:
    return len(pts) >= 2 and bool(np.all(np.any(pts[1:] != pts[:-1], axis=1)))


def _fmt_points(pts: np.ndarray) -> tuple[str, np.ndarray]:
    """InkML point text at two decimals, and the exact floats it parses to."""
    text = ", ".join(f"{x:.2f} {y:.2f}" for x, y in pts)
    parsed = np.array([[float(v) for v in p.split()] for p in text.split(", ")])
    return text, parsed


def inkml_document(strokes: list[str], label: str) -> bytes:
    body = "".join(f"  <trace>{s}</trace>\n" for s in strokes)
    return (
        '<ink xmlns="http://www.w3.org/2003/InkML">\n'
        f'  <annotation type="truth">{label}</annotation>\n{body}</ink>\n'
    ).encode()


# ---------------------------------------------------------------- pendigits-knn


def pendigits_traces(seed: int, n: int) -> tuple[np.ndarray, list[str]]:
    """n integer 8-point traces on 0..100 and their labels.

    The first n - round(n * PEN_DUP_SHARE) traces are jittered prototypes;
    the rest are exact copies of earlier ones.  The order is then shuffled.
    """
    rng = np.random.default_rng([seed, 2])
    protos = prototypes(seed)
    n_dup = int(round(n * PEN_DUP_SHARE))
    pts = np.empty((n, PEN_POINTS, 2), dtype=np.int64)
    labels = np.empty(n, dtype=np.int64)
    for i in range(n - n_dup):
        c = int(rng.integers(N_CLASSES))
        while True:
            p = np.clip(np.rint(protos[c] + rng.normal(0.0, PEN_JITTER, protos[c].shape)), 0, GRID)
            if len(np.unique(p, axis=0)) >= 2:
                break
        pts[i], labels[i] = p, c
    src = rng.integers(0, n - n_dup, n_dup)
    pts[n - n_dup :], labels[n - n_dup :] = pts[src], labels[src]
    order = rng.permutation(n)
    return pts[order], [str(v) for v in labels[order]]


def write_pendigits(path: Path, pts: np.ndarray, labels: list[str]) -> None:
    lines = [
        ",".join(f"{v:4d}" for v in p.ravel()) + f",{int(lab):4d}"
        for p, lab in zip(pts, labels)
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ------------------------------------------------------------------ long-sweep


def sweep_lengths(n: int) -> np.ndarray:
    """Point counts spread evenly over SWEEP_MIN_POINTS..SWEEP_MAX_POINTS.

    A fixed multiset of lengths, so the total work does not depend on the seed.
    """
    return np.rint(np.linspace(SWEEP_MIN_POINTS, SWEEP_MAX_POINTS, n)).astype(int)


def sweep_traces(seed: int, n: int) -> list[np.ndarray]:
    """Smooth random walks, one per entry of sweep_lengths(n), as parsed floats."""
    rng = np.random.default_rng([seed, 3])
    out = []
    for m in rng.permutation(sweep_lengths(n)):
        while True:
            heading = rng.uniform(0, 2 * np.pi) + np.cumsum(rng.normal(0.0, 0.35, m - 1))
            steps = rng.uniform(0.5, 1.5, m - 1)[:, None] * np.c_[np.cos(heading), np.sin(heading)]
            pts = rng.uniform(0, 500, 2) + 10.0 * np.vstack([[0.0, 0.0], np.cumsum(steps, axis=0)])
            _, parsed = _fmt_points(pts)
            if _distinct(parsed):
                out.append(parsed)
                break
    return out


def write_sweep(directory: Path, traces: list[np.ndarray]) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for i, pts in enumerate(traces):
        text, _ = _fmt_points(pts)
        (directory / f"trace_{i:04d}.inkml").write_bytes(inkml_document([text], "w"))


# ---------------------------------------------------------------- query-stream


def _symbol(rng, protos: np.ndarray, n_points: int) -> tuple[np.ndarray, int]:
    """A jittered, scaled and shifted class prototype resampled to n_points."""
    c = int(rng.integers(N_CLASSES))
    pts = _resample(protos[c], n_points) + rng.normal(0.0, QUERY_JITTER, (n_points, 2))
    return pts * rng.uniform(0.5, 4.0) + rng.uniform(-300, 300, 2), c


def query(seed: int, index: int) -> tuple[bytes, np.ndarray, str]:
    """Query `index` of the stream: (InkML document, merged points, label).

    1..QUERY_MAX_STROKES strokes of at least two points each, 8..40 points
    in total.  The points are the floats the document's text parses to.
    """
    rng = np.random.default_rng([seed, 4, index])
    protos = prototypes(seed)
    while True:
        n = int(rng.integers(QUERY_MIN_POINTS, QUERY_MAX_POINTS + 1))
        pts, c = _symbol(rng, protos, n)
        n_strokes = int(rng.integers(1, QUERY_MAX_STROKES + 1))
        cuts = np.sort(rng.choice(np.arange(2, n - 1, 2), n_strokes - 1, replace=False))
        texts, parsed = zip(*(_fmt_points(s) for s in np.split(pts, cuts)))
        merged = np.vstack(parsed)
        if _distinct(merged):
            return inkml_document(list(texts), str(c)), merged, str(c)


def model_traces(seed: int, n: int) -> tuple[list[np.ndarray], list[str]]:
    """n labelled model traces drawn like the queries (8..40 points, one stroke)."""
    rng = np.random.default_rng([seed, 5])
    protos = prototypes(seed)
    traces, labels = [], []
    while len(traces) < n:
        pts, c = _symbol(rng, protos, int(rng.integers(QUERY_MIN_POINTS, QUERY_MAX_POINTS + 1)))
        if _distinct(pts):
            traces.append(pts)
            labels.append(str(c))
    return traces, labels
