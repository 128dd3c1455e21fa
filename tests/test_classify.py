"""Coefficient distances, reconstruction error, matching, kNN."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_random_trace, synthetic_digit_traces
from inkbasis import (
    BasisMismatchError,
    CoeffTable,
    InkTrace,
    InvalidDataError,
    InvalidParameterError,
    LabeledDataset,
    SymbolCoeffs,
    accuracy_sweep,
    arc_length_normalize,
    build_named_basis,
    coeff_distance_sq,
    knn_accuracy,
    knn_classify,
    match_symbol,
    representation_error,
    symbol_coeffs,
    to_coeffs,
)
from inkbasis import BASIS_KINDS, BasisKind, bases, classify, poly
from inkbasis.classify import _nearest, _nearest_rows, _norms, _votes, _weighted_sq, _weights
from inkbasis.ink import _corpus
from oracles import _vote, dp_match_distance_sq, nearest_rows, quad_inner_series

CHEB10 = build_named_basis("chebyshev", 10)
CS10 = build_named_basis("chebyshev-sobolev", 10)


def make_coeffs(basis, xs, ys, label=None):
    return SymbolCoeffs(
        basis_id=basis.basis_id,
        xs=np.asarray(xs, dtype=float),
        ys=np.asarray(ys, dtype=float),
        label=label,
    )


def oracle_distance_sq(a, b, basis):
    """Squared curve distance by quadrature on the difference series."""
    spec = basis.spec
    dx = np.concatenate([[0.0], a.xs - b.xs])
    dy = np.concatenate([[0.0], a.ys - b.ys])
    cx = basis.expansion.T @ dx
    cy = basis.expansion.T @ dy
    name = basis.classical_basis.value
    return quad_inner_series(
        cx, cx, name, spec.weight.value, spec.lam, spec.order
    ) + quad_inner_series(cy, cy, name, spec.weight.value, spec.lam, spec.order)


class TestCoeffDistance:
    def test_zero_on_equal(self, rng):
        c = make_coeffs(CHEB10, rng.uniform(-1, 1, 10), rng.uniform(-1, 1, 10))
        assert coeff_distance_sq(c, c, CHEB10) == 0.0

    def test_single_coordinate_delta(self):
        xs = np.zeros(10)
        a = make_coeffs(CHEB10, xs, xs)
        xs2 = xs.copy()
        delta = 0.37
        xs2[0] = delta  # degree-1 coefficient (constant is dropped)
        b = make_coeffs(CHEB10, xs2, xs)
        assert coeff_distance_sq(a, b, CHEB10) == pytest.approx(
            delta**2 * math.pi / 2, rel=1e-14
        )

    @pytest.mark.parametrize("kind", ["chebyshev", "legendre", "chebyshev-sobolev"])
    def test_matches_quadrature(self, rng, kind):
        basis = build_named_basis(kind, 8)
        for _ in range(30):
            a = make_coeffs(basis, rng.uniform(-1, 1, 8), rng.uniform(-1, 1, 8))
            b = make_coeffs(basis, rng.uniform(-1, 1, 8), rng.uniform(-1, 1, 8))
            got = coeff_distance_sq(a, b, basis)
            assert got == pytest.approx(oracle_distance_sq(a, b, basis), abs=1e-9)

    def test_metric_properties(self, rng):
        for _ in range(40):
            a, b, c = (
                make_coeffs(CS10, rng.uniform(-1, 1, 10), rng.uniform(-1, 1, 10))
                for _ in range(3)
            )
            dab = coeff_distance_sq(a, b, CS10)
            dba = coeff_distance_sq(b, a, CS10)
            assert dab >= 0.0
            assert dab == dba
            # sqrt satisfies the triangle inequality
            dac = coeff_distance_sq(a, c, CS10)
            dcb = coeff_distance_sq(c, b, CS10)
            assert math.sqrt(dab) <= math.sqrt(dac) + math.sqrt(dcb) + 1e-9

    def test_zero_iff_equal(self, rng):
        a = make_coeffs(CS10, rng.uniform(-1, 1, 10), rng.uniform(-1, 1, 10))
        b = make_coeffs(CS10, a.xs + 1e-8, a.ys)
        assert coeff_distance_sq(a, b, CS10) > 0.0

    def test_basis_mismatch(self, rng):
        a = make_coeffs(CHEB10, np.zeros(10), np.zeros(10))
        b = make_coeffs(CS10, np.zeros(10), np.zeros(10))
        with pytest.raises(BasisMismatchError):
            coeff_distance_sq(a, b, CHEB10)


class TestRepresentationError:
    def test_exact_for_straight_line(self):
        trace = InkTrace([(0.0, 0.0), (1.5, 2.0), (3.0, 4.0), (6.0, 8.0)])
        n = arc_length_normalize(trace)
        for kind in ("chebyshev", "chebyshev-sobolev"):
            basis = build_named_basis(kind, 5)
            c = to_coeffs(n, basis)
            assert representation_error(trace, n, c, basis) <= 1e-8

    def test_two_point_trace(self):
        trace = InkTrace([(10.0, -3.0), (-7.0, 11.0)])
        n = arc_length_normalize(trace)
        basis = build_named_basis("chebyshev-sobolev", 1)
        c = to_coeffs(n, basis)
        assert representation_error(trace, n, c, basis) <= 1e-8

    def test_decreases_with_degree(self, rng):
        b3 = build_named_basis("chebyshev-sobolev", 3)
        b15 = build_named_basis("chebyshev-sobolev", 15)
        for _ in range(20):
            trace = make_random_trace(rng)
            n = arc_length_normalize(trace)
            e3 = representation_error(trace, n, to_coeffs(n, b3), b3)
            e15 = representation_error(trace, n, to_coeffs(n, b15), b15)
            assert e15 <= e3

    def test_repeated_point(self):
        basis = build_named_basis("chebyshev", 3)
        errors = []
        for points in ([(0, 0), (1, 0), (1, 0), (2, 1)], [(0, 0), (1, 0), (2, 1)]):
            trace = InkTrace(points)
            n = arc_length_normalize(trace)
            errors.append(representation_error(trace, n, to_coeffs(n, basis), basis))
        assert errors[0] == errors[1]

    def test_length_mismatch(self):
        trace = InkTrace([(0, 0), (1, 0), (2, 0)])
        n = arc_length_normalize(trace)
        basis = build_named_basis("chebyshev", 3)
        c = to_coeffs(n, basis)
        other = InkTrace([(0, 0), (2, 0)])
        with pytest.raises(InvalidDataError, match="^3 knots vs 2 points$"):
            representation_error(other, n, c, basis)

    def test_missing_sidecar(self):
        trace = InkTrace([(0, 0), (1, 0), (2, 1)])
        n = arc_length_normalize(trace)
        basis = build_named_basis("chebyshev", 3)
        c = to_coeffs(n, basis)
        bare = make_coeffs(basis, c.xs, c.ys)
        with pytest.raises(InvalidDataError):
            representation_error(trace, n, bare, basis)


class TestMatchSymbol:
    def test_contains_sample(self, rng):
        models = [
            make_coeffs(CHEB10, rng.uniform(-1, 1, 10), rng.uniform(-1, 1, 10))
            for _ in range(5)
        ]
        idx, dist = match_symbol(models[3], models, CHEB10)
        assert idx == 3 and dist == 0.0

    def test_single_model(self, rng):
        m = make_coeffs(CHEB10, rng.uniform(-1, 1, 10), rng.uniform(-1, 1, 10))
        q = make_coeffs(CHEB10, rng.uniform(-1, 1, 10), rng.uniform(-1, 1, 10))
        assert match_symbol(q, [m], CHEB10)[0] == 0

    def test_agrees_with_quadrature_argmin(self, rng):
        basis = build_named_basis("chebyshev-sobolev", 6)
        q = make_coeffs(basis, rng.uniform(-1, 1, 6), rng.uniform(-1, 1, 6))
        models = [
            make_coeffs(basis, rng.uniform(-1, 1, 6), rng.uniform(-1, 1, 6))
            for _ in range(20)
        ]
        got, _ = match_symbol(q, models, basis)
        want = int(np.argmin([oracle_distance_sq(q, m, basis) for m in models]))
        assert got == want

    def test_empty_models(self, rng):
        q = make_coeffs(CHEB10, np.zeros(10), np.zeros(10))
        with pytest.raises(InvalidDataError, match="^no models to match against$"):
            match_symbol(q, [], CHEB10)

    def test_argmin_invariant_under_norm_rescaling(self, rng):
        # a basis is its spec and degree, so the norms are rescaled at the distance kernel
        q = make_coeffs(CHEB10, rng.uniform(-1, 1, 10), rng.uniform(-1, 1, 10))
        models = [
            make_coeffs(CHEB10, rng.uniform(-1, 1, 10), rng.uniform(-1, 1, 10))
            for _ in range(15)
        ]
        xy, w = CoeffTable(tuple(models)).xy, _weights(CHEB10)
        base = _weighted_sq(xy, np.concatenate([q.xs, q.ys]), w)
        scaled = _weighted_sq(xy, np.concatenate([q.xs, q.ys]), w * 17.5)
        base_idx, base_d = match_symbol(q, models, CHEB10)
        assert (base_idx, base_d) == (int(np.argmin(base)), base[base_idx])
        assert int(np.argmin(scaled)) == base_idx
        assert scaled[base_idx] == pytest.approx(17.5 * base_d, rel=1e-12)

    def test_list_and_table_agree_bitwise(self, rng):
        q = make_coeffs(CS10, rng.uniform(-1, 1, 10), rng.uniform(-1, 1, 10))
        models = [
            make_coeffs(CS10, rng.uniform(-1, 1, 10), rng.uniform(-1, 1, 10))
            for _ in range(200)
        ]
        from_list = match_symbol(q, models, CS10)
        from_table = match_symbol(q, CoeffTable(tuple(models)), CS10)
        assert from_list[0] == from_table[0]
        assert np.float64(from_list[1]).tobytes() == np.float64(from_table[1]).tobytes()

    def test_ties_take_lowest_index(self, rng):
        m = make_coeffs(CHEB10, rng.uniform(-1, 1, 10), rng.uniform(-1, 1, 10))
        other = make_coeffs(CHEB10, rng.uniform(-1, 1, 10), rng.uniform(-1, 1, 10))
        assert match_symbol(m, [other, m, m, m], CHEB10) == (1, 0.0)

    def test_mixed_model_bases_rejected(self):
        q = make_coeffs(CHEB10, np.zeros(10), np.zeros(10))
        other = make_coeffs(CS10, np.zeros(10), np.zeros(10))
        with pytest.raises(BasisMismatchError):
            match_symbol(q, [q, other], CHEB10)
        with pytest.raises(BasisMismatchError):
            match_symbol(q, CoeffTable((other,)), CHEB10)


@pytest.mark.parametrize("n", [12, 4])
class TestCoefficientCountMustBeTheDegree:
    """Records labelled chebyshev(degree=10) whose length is not 10 are refused by every reader."""

    def records(self, n):
        return [make_coeffs(CHEB10, np.arange(n) + i, np.zeros(n), label=str(i % 2))
                for i in range(4)]

    def test_match_symbol(self, n):
        a, *models = self.records(n)
        with pytest.raises(BasisMismatchError, match="needs 10 coefficients per coordinate"):
            match_symbol(a, models, CHEB10)

    def test_coeff_distance_sq(self, n):
        a, b, *_ = self.records(n)
        with pytest.raises(BasisMismatchError, match="needs 10 coefficients per coordinate"):
            coeff_distance_sq(a, b, CHEB10)

    def test_knn_classify(self, n):
        a, *train = self.records(n)
        with pytest.raises(BasisMismatchError, match="needs 10 coefficients per coordinate"):
            knn_classify(LabeledDataset(tuple(train)), a, 1, CHEB10)

    def test_knn_accuracy(self, n):
        with pytest.raises(BasisMismatchError, match="needs 10 coefficients per coordinate"):
            knn_accuracy(LabeledDataset(tuple(self.records(n)), split_ratio=0.5), CHEB10, [1])


_NOT_A_BASIS = "^basis must be an OrthoBasis, got NoneType$"
_NOT_A_QUERY = "^query must be a SymbolCoeffs, got NoneType$"


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda q, ds: match_symbol(q, ds, None), InvalidParameterError, _NOT_A_BASIS),
        (lambda q, ds: match_symbol(None, ds, CHEB10), InvalidDataError, _NOT_A_QUERY),
        (lambda q, ds: match_symbol(q, [1, 2], CHEB10), InvalidDataError,
         "^a table holds SymbolCoeffs, got int$"),
        (lambda q, ds: knn_classify(ds, q, 1, None), InvalidParameterError, _NOT_A_BASIS),
        (lambda q, ds: knn_classify(ds, None, 1, CHEB10), InvalidDataError, _NOT_A_QUERY),
        (lambda q, ds: coeff_distance_sq(q, q, None), InvalidParameterError, _NOT_A_BASIS),
        (lambda q, ds: coeff_distance_sq(None, q, CHEB10), InvalidDataError, _NOT_A_QUERY),
        (lambda q, ds: coeff_distance_sq(q, None, CHEB10), InvalidDataError,
         "^a table holds SymbolCoeffs, got NoneType$"),
        (lambda q, ds: knn_accuracy(ds, None, [1]), InvalidParameterError, _NOT_A_BASIS),
        (lambda q, ds: knn_classify(CoeffTable(ds.items), q, 1, CHEB10), InvalidDataError,
         "^a kNN vote needs a LabeledDataset, got CoeffTable$"),
        (lambda q, ds: knn_accuracy(None, CHEB10, [1]), InvalidDataError,
         "^a kNN vote needs a LabeledDataset, got NoneType$"),
    ],
    ids=["match-basis", "match-query", "match-models", "knn-basis", "knn-query",
         "distance-basis", "distance-first", "distance-second", "accuracy-basis", "knn-table",
         "accuracy-dataset"],
)
def test_wrong_kinds_of_object_are_typed_errors(call, error, message):
    items = tuple(make_coeffs(CHEB10, np.full(10, i), np.zeros(10), str(i % 2)) for i in range(4))
    with pytest.raises(error, match=message):
        call(items[0], LabeledDataset(items, split_ratio=0.5))


class TestDistanceKernel:
    def test_identical_rows_get_identical_distances(self, rng):
        # any position in any table size: equal rows must tie exactly, or the
        # stable order on equal distances would not hold
        for d in (1, 5, 10, 20):
            basis = build_named_basis("legendre-sobolev", d)
            for _ in range(10):
                row = make_coeffs(basis, rng.uniform(-1, 1, d), rng.uniform(-1, 1, d))
                q = make_coeffs(basis, rng.uniform(-1, 1, d), rng.uniform(-1, 1, d))
                for n in (1, 2, 3, 7, 17, 100):
                    xy = CoeffTable((row,) * n).xy
                    dist = _weighted_sq(xy, np.concatenate([q.xs, q.ys]), _weights(basis))
                    assert np.all(dist == coeff_distance_sq(q, row, basis))

    def test_length_mismatch(self):
        basis = build_named_basis("chebyshev", 10)
        table = CoeffTable((make_coeffs(basis, np.zeros(10), np.zeros(10)),))
        with pytest.raises(BasisMismatchError):
            match_symbol(make_coeffs(basis, np.zeros(9), np.zeros(9)), table, basis)


def nearest_one(dist, k):
    """_nearest on the distances of a single query."""
    return _nearest(np.zeros(len(dist), dtype=np.intp), dist, k)[0]


class TestNearest:
    @given(
        st.lists(st.lists(st.integers(0, 4), min_size=1, max_size=40), min_size=1, max_size=4),
        st.data(),
    )
    def test_equals_stable_argsort(self, groups, data):
        # each query's distances in one flat array, query after query
        k = data.draw(st.integers(1, min(len(g) for g in groups)))
        rows = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
        dist = np.concatenate([np.array(g, dtype=float) for g in groups])
        got = _nearest(rows, dist, k)
        for r, g in enumerate(groups):
            want = np.argsort(np.array(g, dtype=float), kind="stable")[:k]
            np.testing.assert_array_equal(got[r] - np.flatnonzero(rows == r)[0], want)

    def test_many_ties_at_kth(self):
        dist = np.array([3.0, 1.0, 2.0, 2.0, 1.0, 2.0, 2.0, 0.0, 2.0])
        for k in range(1, len(dist) + 1):
            np.testing.assert_array_equal(
                nearest_one(dist, k), np.argsort(dist, kind="stable")[:k]
            )

    def test_nan_sorts_last(self):
        dist = np.array([np.nan, 1.0, np.nan, 0.0])
        for k in range(1, 5):
            np.testing.assert_array_equal(
                nearest_one(dist, k), np.argsort(dist, kind="stable")[:k]
            )


# coefficient scales: products that underflow, ordinary, near the screen's
# norm limit 2**512, and past it, where the screen is skipped (at 1e150,
# A = xn + qn - 2c would overflow)
SCALES = (1e-160, 1e-3, 1.0, 1e70, 1e80, 1e150)


def tied_rows(seed, n, d, scale, dup, nudges, nan):
    """n rows of 2d coefficients that tie often: small integers, exact duplicates, ulp nudges."""
    rng = np.random.default_rng(seed)
    xy = rng.integers(-2, 3, size=(n, 2 * d)) * scale
    xy[rng.random(n) < dup] = xy[0]
    for _ in range(nudges):
        i, j = rng.integers(n), rng.integers(2 * d)
        xy[i, j] = np.nextafter(xy[i, j], rng.choice([-np.inf, np.inf]))
    if nan:
        xy[rng.integers(n), rng.integers(2 * d)] = np.nan
    queries = xy[rng.integers(0, n, 4)]
    queries[1] = np.nextafter(queries[1], np.inf)
    queries[2] = rng.integers(-2, 3, 2 * d) * scale
    queries[3] *= rng.choice([1.0, 1e150, 1e300])  # a query past the limit is not screened
    return xy, queries


@st.composite
def tables(draw):
    return dict(
        seed=draw(st.integers(0, 2**32 - 1)),
        n=draw(st.integers(1, 30)),
        kind=draw(st.sampled_from(BASIS_KINDS)),
        d=draw(st.integers(1, 4)),
        scale=draw(st.sampled_from(SCALES)),
        dup=draw(st.sampled_from([0.0, 0.3, 0.9])),
        nudges=draw(st.integers(0, 12)),
    )


# past the limits, the full scan overflows as the library's always did
OVERFLOWS = pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value")
ONE_ROW = dict(seed=0, n=1, kind="chebyshev", d=1, scale=1.0, dup=0.0, nudges=0)
HUGE = dict(seed=1, n=12, kind="chebyshev-sobolev", d=3, scale=1e150, dup=0.3, nudges=4)


class TestNearestRows:
    """_nearest_rows, and every caller, against the unscreened full scan of tests/oracles."""

    @staticmethod
    def same(got, want):
        assert np.array_equal(got[0], want[0])
        assert got[1].tobytes() == want[1].tobytes()

    @OVERFLOWS
    @settings(max_examples=60, deadline=None)
    @given(tables(), st.booleans())
    @example(ONE_ROW, False)
    @example(HUGE, False)
    @example(HUGE, True)
    def test_equals_the_full_scan_for_every_k(self, t, nan):
        basis = build_named_basis(t["kind"], t["d"])
        w = _weights(basis)
        xy, queries = tied_rows(t["seed"], t["n"], t["d"], t["scale"], t["dup"], t["nudges"], nan)
        xn = _norms(xy, w)
        for k in range(1, min(t["n"], 12) + 1):
            self.same(_nearest_rows(xy, xn, queries, w, k), nearest_rows(xy, queries, w, k))

    @OVERFLOWS
    @settings(max_examples=40, deadline=None)
    @given(tables(), st.booleans())
    @example(ONE_ROW, False)
    @example(ONE_ROW, True)
    @example(HUGE, False)
    @example(HUGE, True)
    def test_match_and_knn_equal_the_full_scan(self, t, one_table):
        # with one_table, a LabeledDataset is both the models and the training set,
        # and its one screen table, made on first use, serves every call
        basis, d = build_named_basis(t["kind"], t["d"]), t["d"]
        w = _weights(basis)
        xy, queries = tied_rows(t["seed"], t["n"], d, t["scale"], t["dup"], t["nudges"], False)
        labels = [str(i % 3) for i in range(t["n"])]
        items = tuple(make_coeffs(basis, r[:d], r[d:], lab) for r, lab in zip(xy, labels))
        train = LabeledDataset(items)
        models = train if one_table else CoeffTable(items)
        for q in queries[np.isfinite(queries).all(axis=1)]:
            sample = make_coeffs(basis, q[:d], q[d:])
            near, dists = nearest_rows(xy, q[None], w, min(t["n"], 5))
            index, dist = match_symbol(sample, models, basis)
            screen = models._norms
            assert index == near[0, 0]
            assert np.float64(dist).tobytes() == dists[0, 0].tobytes()
            for k in range(1, len(near[0]) + 1):
                want = _vote([labels[i] for i in near[0, :k]], dists[0, :k])
                assert knn_classify(train, sample, k, basis) == want
            assert models._norms is screen

    @OVERFLOWS
    @settings(max_examples=30, deadline=None)
    @given(tables(), st.integers(1, 4), st.integers(1, 6))
    @example(dict(HUGE, n=30), 4, 6)
    def test_blocks_that_cut_the_test_rows_unevenly(self, t, block, kmax):
        basis = build_named_basis(t["kind"], t["d"])
        w = _weights(basis)
        xy, _ = tied_rows(t["seed"], max(t["n"], 4), t["d"], t["scale"], t["dup"], t["nudges"],
                          False)
        train, test = np.arange(0, len(xy), 2), np.arange(1, len(xy), 2)
        kmax = min(kmax, len(train))
        codes = np.arange(len(xy)) % 3
        seen = []
        real = classify._nearest_rows

        def spy(*args):
            seen.append(real(*args))
            return seen[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(poly, "_BLOCK_BYTES", 8 * len(train) * block)
            mp.setattr(classify, "_nearest_rows", spy)
            acc = classify._accuracy(xy, codes, train, test, w, list(range(1, kmax + 1)))
        assert len(seen) == -(-len(test) // block)
        assert [len(near) for near, _ in seen[:-1]] == [block] * (len(seen) - 1)
        got = tuple(np.concatenate(part) for part in zip(*seen))
        want = nearest_rows(xy[train], xy[test], w, kmax)
        self.same(got, want)
        hits = np.sum(_votes(codes[train][want[0]], want[1]) == codes[test][:, None], axis=0)
        assert acc == {k: int(hits[k - 1]) / len(test) for k in range(1, kmax + 1)}

    def test_the_screen_reads_a_read_only_column_major_copy(self, rng):
        xy = rng.uniform(-1, 1, (30, 20))
        w = _weights(CS10)
        screen = _norms(xy, w)
        assert screen.shape == (22, 30) and not screen.flags.writeable
        assert np.array_equal(screen[2:], xy.T) and screen[2:].flags.c_contiguous
        xn, g = _weighted_sq(xy, 0.0, w), classify._gap(20)
        assert screen[0].tobytes() == (xn * (0.5 + 0.5 * g)).tobytes()
        assert screen[1].tobytes() == (xn * (0.5 - 0.5 * g)).tobytes()

    def test_screen_is_skipped_past_the_limits(self):
        w = np.ones(2)
        assert _norms(np.array([[1e76, 0.0]]), w) is not None  # a norm of 1e152 < 2**512
        assert _norms(np.array([[1e78, 0.0]]), w) is None
        assert _norms(np.array([[np.nan, 0.0]]), w) is None
        assert _norms(np.array([[1.0, 0.0]]), np.array([1.0, 2.0**-129])) is None

    def test_a_table_computes_its_norms_once(self, rng, monkeypatch):
        models = CoeffTable(tuple(make_coeffs(CS10, rng.uniform(-1, 1, 10), rng.uniform(-1, 1, 10))
                                  for _ in range(50)))
        calls = []
        real = classify._norms
        monkeypatch.setattr(classify, "_norms", lambda xy, w: calls.append(len(xy)) or real(xy, w))
        for _ in range(3):
            match_symbol(models[7], models, CS10)
        assert calls == [50]


class TestVotes:
    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 12).flatmap(
            lambda kmax: st.lists(
                st.lists(st.tuples(st.sampled_from("abcd"), st.integers(0, 3)),
                         min_size=kmax, max_size=kmax),
                min_size=1, max_size=4,
            )
        )
    )
    # a count tie, then a summed-distance tie at k = 4, so the label decides
    @example([[("b", 1), ("a", 0), ("a", 2), ("b", 1), ("c", 0)]])
    # distances that overflowed: the tied labels' sums are all inf, as is an untied one's
    @example([[("a", np.inf), ("c", np.inf), ("b", np.inf), ("c", 0), ("b", 0)]])
    def test_every_k_equals_the_reference_vote(self, rows):
        # neighbours in any order: small integer distances make many ties; knn_classify
        # votes at its one k through _vote, the corpus vote at every k through _votes
        labels = sorted({lab for row in rows for lab, _ in row})
        codes = np.array([[labels.index(lab) for lab, _ in row] for row in rows])
        dists = np.array([[d for _, d in row] for row in rows], dtype=float)
        won = _votes(codes, dists)
        assert won.shape == codes.shape
        for r, row in enumerate(rows):
            np.testing.assert_array_equal(won[r], _votes(codes[r], dists[r]))
            for k in range(1, len(row) + 1):
                neighbours = [lab for lab, _ in row[:k]]
                assert labels[won[r, k - 1]] == _vote(neighbours, dists[r, :k])
                assert classify._vote(codes[r, :k], dists[r, :k]) == won[r, k - 1]


class TestKnnClassify:
    def test_query_in_training_set(self, rng):
        items = [
            make_coeffs(CHEB10, rng.uniform(-1, 1, 10), rng.uniform(-1, 1, 10), str(i))
            for i in range(6)
        ]
        ds = LabeledDataset(tuple(items))
        assert knn_classify(ds, items[4], 1, CHEB10) == "4"

    def test_unanimous(self, rng):
        items = [
            make_coeffs(CHEB10, rng.uniform(-1, 1, 10), rng.uniform(-1, 1, 10), "only")
            for _ in range(5)
        ]
        ds = LabeledDataset(tuple(items))
        q = make_coeffs(CHEB10, rng.uniform(-1, 1, 10), rng.uniform(-1, 1, 10))
        assert knn_classify(ds, q, len(items), CHEB10) == "only"

    def test_majority_of_three(self):
        zeros = np.zeros(10)
        items = (
            make_coeffs(CHEB10, zeros + 0.1, zeros, "A"),
            make_coeffs(CHEB10, zeros + 0.2, zeros, "A"),
            make_coeffs(CHEB10, zeros + 5.0, zeros, "B"),
        )
        ds = LabeledDataset(items)
        q = make_coeffs(CHEB10, zeros, zeros)
        assert knn_classify(ds, q, 3, CHEB10) == "A"

    def test_vote_tie_breaks_by_summed_distance(self):
        zeros = np.zeros(10)
        items = (
            make_coeffs(CHEB10, zeros + 0.1, zeros, "far"),
            make_coeffs(CHEB10, zeros + 0.40, zeros, "far"),
            make_coeffs(CHEB10, zeros + 0.2, zeros, "near"),
            make_coeffs(CHEB10, zeros + 0.25, zeros, "near"),
        )
        ds = LabeledDataset(items)
        q = make_coeffs(CHEB10, zeros, zeros)
        # 2 votes each; near has the smaller distance sum
        assert knn_classify(ds, q, 4, CHEB10) == "near"

    def test_k_bounds(self, rng):
        items = tuple(
            make_coeffs(CHEB10, rng.uniform(-1, 1, 10), rng.uniform(-1, 1, 10), "a")
            for _ in range(3)
        )
        ds = LabeledDataset(items)
        q = items[0]
        with pytest.raises(ValueError):
            knn_classify(ds, q, 0, CHEB10)
        with pytest.raises(ValueError):
            knn_classify(ds, q, 4, CHEB10)

    def test_k_out_of_range_is_typed(self, rng):
        items = tuple(
            make_coeffs(CHEB10, rng.uniform(-1, 1, 10), rng.uniform(-1, 1, 10), "a")
            for _ in range(3)
        )
        ds = LabeledDataset(items)
        for k in (0, 4):
            with pytest.raises(InvalidParameterError):
                knn_classify(ds, items[0], k, CHEB10)

    @pytest.mark.parametrize("k", [1.5, 2.0, True, "2"])
    def test_k_of_another_type_is_typed(self, rng, k):
        items = tuple(
            make_coeffs(CHEB10, rng.uniform(-1, 1, 10), rng.uniform(-1, 1, 10), "a")
            for _ in range(6)
        )
        ds = LabeledDataset(items)
        with pytest.raises(InvalidParameterError, match=f"^k must be an integer, got {k!r}$"):
            knn_classify(ds, items[0], k, CHEB10)
        with pytest.raises(InvalidParameterError, match=f"^k must be an integer, got {k!r}$"):
            knn_accuracy(ds, CHEB10, [1, k])

    def test_train_as_test_is_perfect_at_k1(self, rng):
        traces = synthetic_digit_traces(rng, per_class=5)
        items = tuple(symbol_coeffs(t, CS10) for t in traces)
        ds = LabeledDataset(items)
        hits = sum(
            knn_classify(ds, item, 1, CS10) == item.label for item in items
        )
        assert hits == len(items)

    @pytest.mark.parametrize("seed", range(8))
    def test_equals_the_reference_vote_over_the_k_nearest(self, seed):
        # 0/1 coefficients under equal weights: distances are multiples of
        # pi/2, so counts and summed distances tie often; the far "z" items
        # and the labels outside each neighbour list never win
        rng = np.random.default_rng(seed)
        near = [make_coeffs(CHEB10, rng.integers(0, 2, 10), rng.integers(0, 2, 10),
                            str(rng.choice(list("abcd")))) for _ in range(20)]
        far = [make_coeffs(CHEB10, np.full(10, 9.0), np.full(10, 9.0), "z") for _ in range(3)]
        items = far[:1] + near + far[1:]
        ds = LabeledDataset(tuple(items))
        queries = items[1:6] + [make_coeffs(CHEB10, rng.integers(0, 2, 10), rng.integers(0, 2, 10))
                                for _ in range(5)]
        for q in queries:
            dist = _weighted_sq(ds.xy, np.concatenate([q.xs, q.ys]), _weights(CHEB10))
            for k in range(1, len(near) + 1):
                order = np.argsort(dist, kind="stable")[:k]
                want = _vote([items[i].label for i in order], dist[order])
                assert knn_classify(ds, q, k, CHEB10) == want


class TestLabeledDataset:
    def test_split_is_deterministic(self, rng):
        items = tuple(
            make_coeffs(CHEB10, rng.uniform(-1, 1, 10), rng.uniform(-1, 1, 10), "x")
            for _ in range(30)
        )
        a = LabeledDataset(items, split_seed=7, split_ratio=2 / 3)
        b = LabeledDataset(items, split_seed=7, split_ratio=2 / 3)
        np.testing.assert_array_equal(a.split_indices()[0], b.split_indices()[0])
        train, test = a.split_indices()
        assert len(train) == 20 and len(test) == 10

    def test_different_seed_different_split(self, rng):
        items = tuple(
            make_coeffs(CHEB10, rng.uniform(-1, 1, 10), rng.uniform(-1, 1, 10), "x")
            for _ in range(30)
        )
        a = LabeledDataset(items, split_seed=0)
        b = LabeledDataset(items, split_seed=1)
        assert not np.array_equal(a.split_indices()[0], b.split_indices()[0])

    def test_mixed_bases_rejected(self, rng):
        a = make_coeffs(CHEB10, np.zeros(10), np.zeros(10), "a")
        b = make_coeffs(CS10, np.zeros(10), np.zeros(10), "b")
        with pytest.raises(BasisMismatchError, match="coefficient sets differ in basis or length"):
            LabeledDataset((a, b))

    def test_unlabeled_rejected(self):
        c = make_coeffs(CHEB10, np.zeros(10), np.zeros(10))
        with pytest.raises(ValueError):
            LabeledDataset((c,))

    def test_typed_errors(self):
        a = make_coeffs(CHEB10, np.zeros(10), np.zeros(10), "a")
        b = make_coeffs(CS10, np.zeros(10), np.zeros(10), "b")
        with pytest.raises(InvalidDataError):
            LabeledDataset(())
        with pytest.raises(InvalidDataError):
            LabeledDataset((a, b))
        for ratio in (0.0, 1.0, float("nan")):
            with pytest.raises(InvalidParameterError):
                LabeledDataset((a,), split_ratio=ratio)

    @pytest.mark.parametrize("ratio", ["a", None, True])
    def test_split_ratio_of_another_type_is_typed(self, ratio):
        a = make_coeffs(CHEB10, np.zeros(10), np.zeros(10), "a")
        with pytest.raises(InvalidParameterError, match=r"^split_ratio must lie in \(0, 1\)$"):
            LabeledDataset((a, a, a), split_ratio=ratio)

    def test_labels_are_coded_once_in_sorted_order(self):
        items = tuple(make_coeffs(CHEB10, np.zeros(10), np.zeros(10), label)
                      for label in ("b", "a", "c", "a"))
        ds = LabeledDataset(items)
        assert isinstance(ds, CoeffTable)
        assert ds.classes == ("a", "b", "c")
        np.testing.assert_array_equal(ds.codes, [1, 0, 2, 0])
        assert not ds.codes.flags.writeable

    @pytest.mark.parametrize("seed", [-1, 1.5, True, None, "0"])
    def test_split_seed_must_be_a_non_negative_integer(self, seed):
        a = make_coeffs(CHEB10, np.zeros(10), np.zeros(10), "a")
        with pytest.raises(InvalidParameterError, match="^split_seed must be a non-negative"):
            LabeledDataset((a, a, a), split_seed=seed)
        assert len(LabeledDataset((a, a, a), split_seed=np.int64(3)).split_indices()[0]) == 2

    def test_queries_leave_numpy_random_unloaded(self):
        # the split is checked at construction and drawn only for a vote over it, so a
        # dataset that answers queries never imports numpy.random (a fresh process, so
        # modules the tests import do not count)
        code = (
            "import sys, inkbasis\n"
            "b = inkbasis.build_named_basis('chebyshev', 3)\n"
            "items = tuple(inkbasis.SymbolCoeffs(b.basis_id, [i, 1.0, 2.0], [0.0, i, 1.0],"
            " label=str(i % 2)) for i in range(6))\n"
            "ds = inkbasis.LabeledDataset(items)\n"
            "inkbasis.match_symbol(items[0], ds, b), inkbasis.knn_classify(ds, items[1], 3, b)\n"
            "print('numpy.random' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(classify.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "False"

    def test_table_holds_items_by_column(self, rng):
        items = tuple(
            make_coeffs(CHEB10, rng.uniform(-1, 1, 10), rng.uniform(-1, 1, 10), "x")
            for _ in range(5)
        )
        ds = LabeledDataset(items)
        assert tuple(ds) == ds.items == items
        np.testing.assert_array_equal(ds.xs, [c.xs for c in items])
        np.testing.assert_array_equal(ds.ys, [c.ys for c in items])


class TestAccuracySweep:
    def test_table_shape_and_identity(self, rng):
        traces = synthetic_digit_traces(rng, per_class=8)
        kinds = ["legendre", "chebyshev", "legendre-sobolev", "chebyshev-sobolev"]
        rows = accuracy_sweep(traces, kinds, range(1, 11), degree=6)
        assert len(rows) == 4 * 10
        for r in rows:
            assert r["error_rate"] == 1.0 - r["accuracy"]
        assert [r["basis"] for r in rows[:10]] == ["legendre"] * 10

    @pytest.mark.parametrize("spline", ["linear", "cubic"])
    def test_four_kinds_share_two_moment_passes(self, rng, spline, monkeypatch):
        # the kinds of one weight share their moments: the rows equal those
        # of one kind at a time, from half the kernel passes
        traces = synthetic_digit_traces(rng, per_class=8)
        n_buckets = len(_corpus(traces, spline, [])[0])
        assert n_buckets > 1  # the shapes differ in point count
        calls = []
        real = bases._moments
        monkeypatch.setattr(bases, "_moments", lambda *a: calls.append(a[2]) or real(*a))
        one_at_a_time = []
        for kind in BASIS_KINDS:
            one_at_a_time += accuracy_sweep(traces, [kind], range(1, 6), degree=7, spline=spline)
        assert len(calls) == 4 * n_buckets
        calls.clear()
        assert accuracy_sweep(traces, list(BASIS_KINDS), range(1, 6), degree=7,
                              spline=spline) == one_at_a_time
        assert calls.count(BasisKind.LEGENDRE) == calls.count(BasisKind.CHEBYSHEV) == n_buckets
        assert len(calls) == 2 * n_buckets

    @pytest.mark.parametrize(
        "kwargs, message",
        [({"lam": math.nan}, "lam must be finite"), ({"degree": 101}, "exceeds the verified"),
         ({"split_ratio": 0.0}, "split_ratio must lie"),
         ({"split_ratio": 1.5}, "split_ratio must lie"),
         ({"degree": 0}, "basis degree must be at least 1")],
        ids=["nan-lambda", "degree-101", "split-0", "split-1.5", "degree-0"],
    )
    def test_parameters_are_refused_before_any_trace_is_normalized(
        self, rng, monkeypatch, kwargs, message
    ):
        normalized = []
        monkeypatch.setattr(classify, "_corpus",
                            lambda *a: normalized.append(a) or _corpus(*a))
        traces = synthetic_digit_traces(rng, per_class=3)
        with pytest.raises(InvalidParameterError, match=message):
            accuracy_sweep(traces, ["legendre", "chebyshev-sobolev"], [1], **kwargs)
        assert normalized == []

    def test_a_missing_label_is_refused_before_any_trace_is_normalized(self, rng, monkeypatch):
        normalized = []
        monkeypatch.setattr(classify, "_corpus",
                            lambda *a: normalized.append(a) or _corpus(*a))
        traces = synthetic_digit_traces(rng, per_class=3)
        traces[-1] = InkTrace(traces[-1].points)
        with pytest.raises(InvalidDataError, match="^every dataset item needs a label$"):
            accuracy_sweep(traces, ["legendre"], [1])
        assert normalized == []

    @pytest.mark.parametrize("ks", [[2.5], [1, True]])
    def test_k_of_another_type_is_typed(self, rng, ks):
        traces = synthetic_digit_traces(rng, per_class=3)
        with pytest.raises(InvalidParameterError, match=f"^k must be an integer, got {ks[-1]!r}$"):
            accuracy_sweep(traces, ["legendre"], ks)

    def test_builds_no_per_trace_objects(self, rng, monkeypatch):
        traces = synthetic_digit_traces(rng, per_class=4)
        built = []
        for cls in (SymbolCoeffs, CoeffTable):  # CoeffTable covers LabeledDataset
            real = cls.__post_init__
            monkeypatch.setattr(cls, "__post_init__",
                                lambda self, real=real: built.append(type(self)) or real(self))
        rows = accuracy_sweep(traces, list(BASIS_KINDS), [1, 3], degree=6)
        assert len(rows) == 8 and built == []

    @pytest.mark.parametrize("spline", ["linear", "cubic"])
    def test_rows_equal_knn_accuracy_on_per_trace_coefficients(self, rng, spline):
        traces = synthetic_digit_traces(rng, per_class=10, jitter=12.0)
        traces += traces[::4]  # exact duplicates, so some distances tie
        ks = list(range(1, 9))
        rows = accuracy_sweep(traces, list(BASIS_KINDS), ks, degree=7, spline=spline,
                              split_seed=5)
        for kind in BASIS_KINDS:
            basis = build_named_basis(kind, 7)
            ds = LabeledDataset(tuple(symbol_coeffs(t, basis, spline) for t in traces),
                                split_seed=5)
            acc = knn_accuracy(ds, basis, ks)
            assert [(r["k"], r["accuracy"]) for r in rows if r["basis"] == kind] == [
                (k, acc[k]) for k in ks
            ]

    @pytest.mark.parametrize(
        "label, message",
        [(7, "label must be a string, got 7"), (b"a", "label must be a string, got b'a'"),
         (None, "every dataset item needs a label")],
    )
    def test_labels_must_be_strings(self, rng, label, message):
        traces = synthetic_digit_traces(rng, per_class=3)
        with pytest.raises(InvalidDataError, match=f"^{re.escape(message)}$"):
            traces[4] = InkTrace(traces[4].points, label=label)
            accuracy_sweep(traces, ["chebyshev"], [1], degree=4)

    def test_separable_classes_classify_well(self, rng):
        traces = synthetic_digit_traces(rng, per_class=9, jitter=1.5)
        rows = accuracy_sweep(traces, ["chebyshev-sobolev"], [1], degree=8)
        assert rows[0]["accuracy"] >= 0.8

    def test_deterministic(self, rng):
        traces = synthetic_digit_traces(rng, per_class=4)
        a = accuracy_sweep(traces, ["chebyshev"], [1, 2], degree=5)
        b = accuracy_sweep(traces, ["chebyshev"], [1, 2], degree=5)
        assert a == b

    def test_knn_accuracy_ks(self, rng):
        traces = synthetic_digit_traces(rng, per_class=6)
        basis = build_named_basis("chebyshev", 6)
        items = tuple(symbol_coeffs(t, basis) for t in traces)
        ds = LabeledDataset(items)
        acc = knn_accuracy(ds, basis, [1, 3, 5])
        assert set(acc) == {1, 3, 5}
        assert all(0.0 <= v <= 1.0 for v in acc.values())

    @pytest.mark.parametrize("ks", [[-1], [0], [], [1, 0, 3]])
    def test_knn_accuracy_rejects_k_below_one_or_empty(self, rng, ks):
        traces = synthetic_digit_traces(rng, per_class=2)
        basis = build_named_basis("chebyshev", 4)
        ds = LabeledDataset(tuple(symbol_coeffs(t, basis) for t in traces))
        with pytest.raises(InvalidParameterError, match=r"every k must be in \[1, "):
            knn_accuracy(ds, basis, ks)

    @pytest.mark.parametrize("kind", ["legendre", "chebyshev-sobolev"])
    def test_knn_accuracy_agrees_with_knn_classify(self, rng, kind):
        traces = synthetic_digit_traces(rng, per_class=12, jitter=12.0)
        traces += traces[::5]  # exact duplicates, so some distances tie
        basis = build_named_basis(kind, 6)
        items = tuple(symbol_coeffs(t, basis) for t in traces)
        ds = LabeledDataset(items, split_seed=3)
        train_idx, test_idx = ds.split_indices()
        train = LabeledDataset(tuple(items[i] for i in train_idx))
        ks = [1, 2, 3, 4, 7]
        acc = knn_accuracy(ds, basis, ks)
        for k in ks:
            hits = sum(
                knn_classify(train, items[i], k, basis) == items[i].label for i in test_idx
            )
            assert acc[k] == hits / len(test_idx)

    def test_duplicates_have_zero_distance(self, rng, monkeypatch):
        traces = synthetic_digit_traces(rng, per_class=6)
        traces += traces  # every item has an exact duplicate
        basis = build_named_basis("chebyshev-sobolev", 8)
        items = tuple(symbol_coeffs(t, basis) for t in traces)
        ds = LabeledDataset(items)
        seen = []
        real = classify._nearest_rows

        def spy(xy, xn, queries, w, k):
            near, dists = real(xy, xn, queries, w, k)
            seen.extend(dists[:, 0])
            return near, dists

        monkeypatch.setattr(classify, "_nearest_rows", spy)
        knn_accuracy(ds, basis, [1])
        train_idx, test_idx = ds.split_indices()
        n = len(traces) // 2
        train_set = {int(j) for j in train_idx}
        checked = 0
        for dist, ti in zip(seen, test_idx):
            if (int(ti) + n) % len(traces) in train_set:  # its twin is a training item
                assert dist == 0.0
                checked += 1
            assert dist >= 0.0
        assert len(seen) == len(test_idx) and checked > 0


class TestPointMatchingOracle:
    def test_identical_traces(self):
        pts = [(0.0, 0.0), (1.0, 0.0), (2.0, 1.0)]
        assert dp_match_distance_sq(pts, pts) == 0.0

    def test_hand_computed_pair(self):
        a = [(0.0, 0.0), (1.0, 0.0)]
        b = [(0.0, 0.0), (2.0, 0.0)]
        assert dp_match_distance_sq(a, b) == pytest.approx(1.0)

    def test_unequal_lengths(self):
        a = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]
        b = [(0.0, 0.0), (2.0, 0.0)]
        # best monotone map: 0->0, 1->0 or 1, 2->1
        assert dp_match_distance_sq(a, b) == pytest.approx(1.0)
