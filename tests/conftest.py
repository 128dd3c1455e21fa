import os
from pathlib import Path

import numpy as np
import pytest

from inkbasis import InkTrace


def make_random_trace(rng, n_min=4, n_max=14, scale=100.0) -> InkTrace:
    """Random-walk trace with guaranteed distinct consecutive points."""
    n = int(rng.integers(n_min, n_max + 1))
    steps = rng.normal(size=(n - 1, 2)) * (0.15 * scale)
    steps[np.all(steps == 0, axis=1)] = 1.0
    start = rng.uniform(-scale, scale, size=2)
    return InkTrace(start + np.vstack([[0.0, 0.0], np.cumsum(steps, axis=0)]))


def knots_from_gaps(gaps, scale=1.0) -> np.ndarray:
    """Knots from 0 with the given gaps, times scale."""
    return scale * np.concatenate([[0.0], np.cumsum(gaps)])


def skewed_knots(rng, n):
    """n knots whose gaps span e^-12..e^12; the second gap is 2.5..1e4 times the first."""
    gaps = np.exp(np.clip(rng.normal(scale=5.0, size=n - 1), -12.0, 12.0))
    # the first row is 2 dx[0] s0 + dx[0] s1, the second's subdiagonal
    # is dx[1]: the elimination swaps the rows when dx[1] > 2 dx[0]
    gaps[1] = gaps[0] * rng.uniform(2.5, 1e4)
    return knots_from_gaps(gaps)


def near_duplicate_knots(rng, n, ulps):
    """About 1.3 n knots, some a few ulps after another, and the indices of those twins."""
    base = 1.0 + knots_from_gaps(rng.uniform(0.5, 1.5, n - 1))
    near = base[rng.random(n) < 0.3]
    # a knot a few ulps after another: its Gauss nodes can round onto
    # the neighbouring segment
    t = np.sort(np.concatenate([base, near + ulps * np.spacing(near)]))
    return t, np.flatnonzero(np.diff(t) < 1e-3) + 1


# Hand-drawn polyline prototypes on a 0..100 grid, one per class.
_SHAPES = {
    "0": [(30, 90), (10, 60), (10, 30), (30, 5), (70, 5), (90, 30), (90, 60), (70, 90), (30, 90)],
    "1": [(50, 95), (50, 70), (50, 45), (50, 20), (50, 0)],
    "3": [(20, 90), (80, 90), (45, 55), (80, 45), (80, 15), (20, 5)],
    "7": [(10, 90), (90, 90), (60, 55), (40, 25), (30, 0)],
}


def synthetic_digit_traces(rng, per_class=10, jitter=2.0) -> list[InkTrace]:
    """Labeled digit-like traces: jittered copies of fixed prototypes."""
    traces = []
    for label, proto in _SHAPES.items():
        base = np.asarray(proto, dtype=float)
        for _ in range(per_class):
            pts = base + rng.normal(scale=jitter, size=base.shape)
            traces.append(InkTrace(pts, label=label))
    return traces


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def pendigits_files() -> tuple[Path, Path] | None:
    """Locations of the UCI pendigits files, if they are available."""
    roots = []
    env = os.environ.get("INKBASIS_DATA_DIR")
    if env:
        roots.append(Path(env))
    roots.append(Path(__file__).parent / "data")
    for root in roots:
        tra, tes = root / "pendigits.tra", root / "pendigits.tes"
        if tra.exists() and tes.exists():
            return tra, tes
    return None


@pytest.fixture(scope="session")
def pendigits_traces():
    files = pendigits_files()
    if files is None:
        pytest.skip(
            "UCI pendigits dataset not available; place pendigits.tra and "
            "pendigits.tes under $INKBASIS_DATA_DIR or tests/data/ (see README)"
        )
    from inkbasis import load_pendigits

    traces = load_pendigits(files[0]) + load_pendigits(files[1])
    return traces
