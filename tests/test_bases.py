"""Inner products, orthogonal family construction, projection, synthesis."""

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from numpy.polynomial import chebyshev as npcheb
from numpy.polynomial import polynomial as nppoly

from inkbasis import (
    BasisMismatchError,
    DensePoly,
    InkBasisError,
    InnerProductSpec,
    InvalidDataError,
    InvalidParameterError,
    ParseError,
    PiecewisePoly,
    Weight,
    build_basis,
    build_named_basis,
    inner_closed_form,
    load_basis,
    project,
    save_basis,
    synthesize,
)
from conftest import make_random_trace
from inkbasis import (
    BASIS_KINDS, OrthoBasis, arc_length_normalize, bases, classify, poly, representation_error,
    symbol_coeffs, to_coeffs,
)
from inkbasis.bases import MAX_DEGREE, _evaluate, _project
from inkbasis.poly import _BLOCK_BYTES, BasisKind
from oracles import (
    closed_form_sobolev_gram,
    global_segments,
    gram_schmidt_by_quadrature,
    gram_schmidt_closed_form,
    mpmath_series_sums,
    mpmath_sobolev_basis,
    piecewise_derivative_eval,
    project_by_rows,
    quad_inner_piecewise,
    quad_inner_series,
)

CS = build_named_basis("chebyshev-sobolev", 0, 0.125).spec
LS = build_named_basis("legendre-sobolev", 0, 0.125).spec
SOBOLEV_KINDS = ("legendre-sobolev", "chebyshev-sobolev")

# (weight, lam, degree) compared with the closed-form Gram-Schmidt reference
GS_CASES = [
    (weight, 0.125, d) for weight in Weight for d in (0, 1, 5, 20, 60, 100)
] + [(weight, lam, 40) for weight in Weight for lam in (0.015625, 1.0, 8.0)]


def cheb(*c):
    return DensePoly(BasisKind.CHEBYSHEV, np.array(c, dtype=float))


def spline_from_monomial(coeffs, breaks) -> PiecewisePoly:
    """Re-express a monomial-coefficient polynomial of degree <= 3 as a piecewise one."""
    p = nppoly.Polynomial(coeffs)
    local = np.zeros((len(breaks) - 1, len(coeffs)))
    for j, s0 in enumerate(breaks[:-1]):
        row = p(nppoly.Polynomial([s0, 1.0])).coef  # p(s0 + t) in powers of t
        local[j, : len(row)] = row
    return PiecewisePoly(np.asarray(breaks, dtype=float), local)


def random_linear_spline(rng, n_break=6):
    breaks = np.concatenate([[-1.0], np.sort(rng.uniform(-0.9, 0.9, n_break - 2)), [1.0]])
    vals = rng.uniform(-2, 2, size=n_break)
    slopes = np.diff(vals) / np.diff(breaks)
    return PiecewisePoly(breaks, np.column_stack([vals[:-1], slopes]))


class TestInnerClosedForm:
    def test_t0_norm_is_pi(self):
        spec = build_named_basis("chebyshev", 0).spec
        assert inner_closed_form(cheb(1), cheb(1), spec) == pytest.approx(math.pi)

    def test_p1_norm(self):
        spec = build_named_basis("legendre", 0).spec
        p1 = DensePoly(BasisKind.LEGENDRE, [0, 1])
        assert inner_closed_form(p1, p1, spec) == pytest.approx(2 / 3)

    def test_t1_sobolev_norm(self):
        # first-derivative term adds lam * <T0, T0> = pi/8
        assert inner_closed_form(cheb(0, 1), cheb(0, 1), CS) == pytest.approx(
            5 * math.pi / 8, abs=1e-14
        )

    def test_matches_quadrature(self, rng):
        for _ in range(60):
            weight = Weight.INVERSE_SQRT if rng.integers(2) else Weight.UNIT
            lam = float(rng.choice([0.0, 0.015625, 0.125, 1.0]))
            order = int(rng.integers(0, 2))
            spec = InnerProductSpec(weight, lam, order)
            basis = spec.classical_basis
            n = int(rng.integers(1, 13))
            cf = rng.uniform(-1, 1, n)
            cg = rng.uniform(-1, 1, n)
            got = inner_closed_form(DensePoly(basis, cf), DensePoly(basis, cg), spec)
            want = quad_inner_series(cf, cg, basis.value, weight.value, lam, order)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-10)

    def test_basis_mismatch(self):
        with pytest.raises(BasisMismatchError):
            inner_closed_form(cheb(1), DensePoly(BasisKind.LEGENDRE, [1]), CS)
        with pytest.raises(BasisMismatchError):
            p = DensePoly(BasisKind.LEGENDRE, [1])
            inner_closed_form(p, p, CS)

    def test_lambda_whose_gram_overflows_is_refused(self, recwarn):
        f = DensePoly(BasisKind.CHEBYSHEV, [0.0, 0.0, 1.0])
        with pytest.raises(InvalidParameterError, match=r"^lambda 1e\+308 is too large at degree 2"):
            inner_closed_form(f, f, build_named_basis("chebyshev-sobolev", 0, 1e308).spec)
        assert not recwarn.list

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind", SOBOLEV_KINDS)
    def test_a_derivative_that_overflows_is_refused(self, kind):
        f = DensePoly(kind.removesuffix("-sobolev"), [1e308] * 3)
        with pytest.raises(InvalidDataError,
                           match="^derivative is not finite: coefficients too large$"):
            inner_closed_form(f, f, build_named_basis(kind, 0).spec)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind, coeffs", [
        ("legendre", [1e200] * 3), ("legendre-sobolev", [1e200] * 3),
        ("chebyshev", [1e300, -1e300]),
    ], ids=["legendre", "legendre-sobolev", "chebyshev"])
    def test_a_sum_that_overflows_is_refused(self, kind, coeffs):
        f = DensePoly(kind.removesuffix("-sobolev"), coeffs)
        with pytest.raises(InvalidDataError,
                           match="^inner product is not finite: coefficients too large$"):
            inner_closed_form(f, f, build_named_basis(kind, 0).spec)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind", SOBOLEV_KINDS)
    def test_a_derivative_term_that_overflows_is_refused(self, kind):
        # h_1 * 1e154**2 is finite in either family, h_0 * 1e154**2 is not: only
        # the derivative term, of S_1' = S_0, overflows
        f = DensePoly(kind.removesuffix("-sobolev"), [0.0, 1e154])
        spec = build_named_basis(kind, 0).spec
        assert math.isfinite(inner_closed_form(f, f, build_named_basis(kind, 0, 0.0).spec))
        with pytest.raises(InvalidDataError,
                           match="^inner product is not finite: coefficients too large$"):
            inner_closed_form(f, f, spec)

    def test_order_guard(self):
        with pytest.raises(InvalidParameterError, match="^order 2 not implemented$"):
            spec = InnerProductSpec(Weight.INVERSE_SQRT, 0.125, 2)
            inner_closed_form(cheb(1), cheb(1), spec)


class TestBuildBasis:
    def test_plain_chebyshev_is_identity(self):
        b = build_named_basis("chebyshev", 5)
        assert np.array_equal(b.expansion, np.eye(6))
        assert b.sq_norms[0] == math.pi
        np.testing.assert_array_equal(b.sq_norms[1:], math.pi / 2)

    def test_plain_legendre_norms(self):
        b = build_named_basis("legendre", 6)
        assert np.array_equal(b.expansion, np.eye(7))
        np.testing.assert_allclose(
            b.sq_norms, [2 / (2 * i + 1) for i in range(7)], rtol=1e-15
        )

    def test_hand_derived_row_three(self):
        # ratio <T3,T1>/<T1,T1> = 3*lam/(1/2 + lam) = 3/5 at lam = 1/8
        b = build_basis(CS, 3)
        np.testing.assert_allclose(b.expansion[3], [0, -0.6, 0, 1], atol=1e-14, rtol=0)

    def test_degree_three_member_monomial_form(self):
        # T_3 - (3/5) T_1 = 4x^3 - (18/5)x, proportional to 10x^3 - 9x
        b = build_basis(CS, 3)
        mono = npcheb.cheb2poly(b.member(3).coeffs)
        scaled = mono * (10.0 / mono[3])
        np.testing.assert_allclose(scaled, [0, -9, 0, 10], atol=1e-12)

    def test_unit_weight_row_three(self):
        # same ladder under the unit weight: ratio 2*lam/(2/3 + 2*lam) = 3/11
        # at lam = 1/8, so the member is P_3 - (3/11) P_1
        b = build_basis(LS, 3)
        np.testing.assert_allclose(b.expansion[3], [0, -3 / 11, 0, 1], atol=1e-13, rtol=0)

    @pytest.mark.parametrize("lam", [0.015625, 0.125, 1.0, 8.0])
    def test_low_rows_unchanged_by_parity(self, lam):
        b = build_basis(InnerProductSpec(Weight.INVERSE_SQRT, lam, 1), 2)
        np.testing.assert_array_equal(b.expansion[1], [0, 1, 0])
        np.testing.assert_array_equal(b.expansion[2], [0, 0, 1])

    @pytest.mark.parametrize("weight", [Weight.UNIT, Weight.INVERSE_SQRT])
    @pytest.mark.parametrize("lam", [0.0, 0.015625, 0.125, 1.0, 8.0])
    def test_orthogonality_by_quadrature(self, weight, lam):
        d = 12
        b = build_basis(InnerProductSpec(weight, lam, 1), d)
        basis_name = b.classical_basis.value
        for i in range(d + 1):
            for j in range(i):
                val = quad_inner_series(
                    b.expansion[i, : i + 1],
                    b.expansion[j, : j + 1],
                    basis_name,
                    weight.value,
                    lam,
                    1,
                )
                norm = math.sqrt(b.sq_norms[i] * b.sq_norms[j])
                assert abs(val) / norm <= 1e-9

    def test_matches_oracle_gram_schmidt(self):
        for weight, lam in ((Weight.INVERSE_SQRT, 0.125), (Weight.UNIT, 0.5)):
            b = build_basis(InnerProductSpec(weight, lam, 1), 8)
            exp, norms = gram_schmidt_by_quadrature(weight.value, lam, 1, 8)
            np.testing.assert_allclose(b.expansion, exp, atol=1e-8)
            np.testing.assert_allclose(b.sq_norms, norms, rtol=1e-8)

    @pytest.mark.parametrize("weight,lam,d", GS_CASES)
    def test_matches_closed_form_gram_schmidt(self, weight, lam, d):
        b = build_basis(InnerProductSpec(weight, lam, 1), d)
        exp, norms = gram_schmidt_closed_form(weight.value, lam, d)
        np.testing.assert_allclose(b.expansion, exp, rtol=0, atol=1e-12)
        np.testing.assert_allclose(b.sq_norms, norms, rtol=1e-12)
        gram = closed_form_sobolev_gram(weight.value, lam, b.expansion)
        off = gram - np.diag(np.diag(gram))
        assert np.abs(off / np.sqrt(np.outer(b.sq_norms, b.sq_norms))).max() <= 1e-12

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf, -1.0])
    def test_invalid_lambda_rejected(self, lam):
        for weight in Weight:
            with pytest.raises(InvalidParameterError) as exc:
                InnerProductSpec(weight, lam, 1)
            assert isinstance(exc.value, InkBasisError)
            assert isinstance(exc.value, ValueError)

    def test_unsupported_order(self):
        with pytest.raises(InvalidParameterError, match="^order 2 not implemented$"):
            build_basis(InnerProductSpec(Weight.UNIT, 0.125, 2), 4)

    @pytest.mark.parametrize(
        "lam, order, degree, message",
        [
            (True, 1, 3, "^lam must be a real number, got True$"),
            ("0.5", 1, 3, "^lam must be a real number, got '0.5'$"),
            (0.125, True, 3, "^order must be an integer, got True$"),
            (0.125, 1.9, 3, "^order must be an integer, got 1.9$"),
            (0.125, 1, 3.9, "^degree must be an integer, got 3.9$"),
            (0.125, 1, False, "^degree must be an integer, got False$"),
        ],
        ids=["bool-lam", "string-lam", "bool-order", "fractional-order", "fractional-degree",
             "bool-degree"],
    )
    def test_types_are_checked_not_coerced(self, lam, order, degree, message):
        with pytest.raises(InvalidParameterError, match=message):
            build_basis(InnerProductSpec(Weight.UNIT, lam, order), degree)

    def test_unknown_weight_is_typed(self):
        with pytest.raises(InvalidParameterError, match="^unknown weight 'cosh'"):
            InnerProductSpec("cosh", 0.1, 1)

    @pytest.mark.parametrize("kind", BASIS_KINDS)
    @pytest.mark.parametrize("lam", [math.nan, math.inf, -1.0, True, "0.5"])
    def test_every_kind_refuses_a_lambda_the_spec_refuses(self, kind, lam):
        with pytest.raises(InvalidParameterError, match="^lam must be"):
            build_named_basis(kind, 3, lam=lam)

    @pytest.mark.parametrize("kind", ["legendre", "chebyshev"])
    def test_plain_kinds_drop_a_valid_lambda(self, kind):
        want = InnerProductSpec(Weight.INVERSE_SQRT if kind == "chebyshev" else Weight.UNIT, 0.0, 0)
        assert build_named_basis(kind, 3, 0.5).spec == build_named_basis(kind, 3).spec == want

    def test_lam_past_float_range_is_typed(self):
        with pytest.raises(InvalidParameterError, match="^lam must be finite and non-negative"):
            InnerProductSpec(Weight.UNIT, 10**400, 1)

    def test_lambda_whose_gram_overflows_is_refused(self, recwarn):
        # the banded Gram diagonal at degree 100 is lam * 200^2 * pi/2 + O(1): finite
        # up to about 2.86e303
        with pytest.raises(InvalidParameterError,
                           match=r"^lambda 3e\+303 is too large at degree 100: the Gram matrix"):
            build_named_basis("chebyshev-sobolev", 100, 3e303)
        build_named_basis("chebyshev-sobolev", 100, 2e303)
        basis = build_named_basis("chebyshev-sobolev", 100, 1e303)
        trace = make_random_trace(np.random.default_rng(3))
        for spline in ("linear", "cubic"):
            c = symbol_coeffs(trace, basis, spline)
            assert np.isfinite([*c.xs, *c.ys, c.x0, c.y0]).all()
        assert not recwarn.list

    @pytest.mark.parametrize("kind", BASIS_KINDS)
    def test_a_basis_is_a_prefix_of_a_higher_degree(self, kind):
        top = build_named_basis(kind, MAX_DEGREE)
        for d in (0, 1, 2, 3, 40):
            b = build_named_basis(kind, d)
            for name in ("b", "c", "ell", "sq_norms"):
                assert np.array_equal(getattr(b, name), getattr(top, name)[: d + 1]), (d, name)
            assert np.array_equal(b.expansion, top.expansion[: d + 1, : d + 1]), d

    def test_a_basis_is_its_spec_and_degree(self):
        b = OrthoBasis(CS, np.int64(7))
        assert b == build_basis(CS, 7) and hash(b) == hash(build_basis(CS, 7))
        assert repr(b) == f"OrthoBasis(spec={CS!r}, degree=7)"
        for name in ("b", "c", "ell", "sq_norms", "expansion"):
            assert not getattr(b, name).flags.writeable, name

    def test_numpy_integers_accepted(self):
        b = build_basis(InnerProductSpec(Weight.UNIT, np.float64(0.125), np.int64(1)), np.int64(3))
        assert b.basis_id == build_named_basis("legendre-sobolev", 3).basis_id

    def test_basis_id_distinguishes_kinds(self):
        ids = {
            build_named_basis(kind, 4).basis_id
            for kind in ("legendre", "chebyshev", "legendre-sobolev", "chebyshev-sobolev")
        }
        assert len(ids) == 4


class TestProject:
    def test_member_of_span_is_exact(self):
        t2 = npcheb.cheb2poly([0, 0, 1])
        f = spline_from_monomial(t2, [-1.0, -0.2, 0.4, 1.0])
        for lam in (0.0, 0.125):
            b = build_basis(InnerProductSpec(Weight.INVERSE_SQRT, lam, 1), 4)
            c = project(f, b)
            # coefficients of T2 in the family: expansion solves E^T c = coeffs
            want = np.linalg.solve(b.expansion.T, np.array([0, 0, 1, 0, 0.0]))
            np.testing.assert_allclose(c, want, atol=1e-10)

    def test_constant(self):
        f = spline_from_monomial([1.0], [-1.0, 0.0, 1.0])
        c = project(f, build_basis(CS, 3))
        np.testing.assert_allclose(c, [1, 0, 0, 0], atol=1e-12)

    def test_hat_function_frozen_values(self):
        hat = PiecewisePoly(np.array([-1.0, 0.0, 1.0]), [[0.0, 1.0], [1.0, -1.0]])
        c = project(hat, build_named_basis("chebyshev", 2))
        # derived with the quadrature oracle: ((pi-2)/pi, 0, -4/(3 pi))
        np.testing.assert_allclose(
            c,
            [(math.pi - 2) / math.pi, 0.0, -4 / (3 * math.pi)],
            atol=1e-12,
        )

    def test_batched_equals_per_row(self, rng):
        f = random_linear_spline(rng)
        for kind in ("chebyshev-sobolev", "legendre-sobolev", "chebyshev", "legendre"):
            b = build_named_basis(kind, 9)
            np.testing.assert_allclose(
                project(f, b), project_by_rows(f, b), rtol=1e-12, atol=1e-13
            )

    def test_residual_orthogonal_to_family(self, rng):
        f = random_linear_spline(rng)
        segs = global_segments(f)
        b = build_basis(CS, 8)
        c = project(f, b)
        p = synthesize(c, b)
        for j in range(b.degree + 1):
            sj = b.member(j)
            sjd = sj.derivative()
            lhs = quad_inner_piecewise(
                f.breakpoints, segs, (sj, sjd), "inverse_sqrt", 0
            ) + CS.lam * quad_inner_piecewise(
                f.breakpoints, segs, (sj, sjd), "inverse_sqrt", 1
            )
            rhs = inner_closed_form(p, DensePoly(p.basis, b.expansion[j]), CS)
            assert lhs - rhs == pytest.approx(0.0, abs=1e-8)

    def test_residual_norm_non_increasing_in_degree(self, rng):
        # ||f - p||^2 = <f,f> - 2 <f,p> + <p,p>, each term integrated
        # segment-wise so the quadrature stays exact
        f = random_linear_spline(rng)
        segs = global_segments(f)

        def sobolev_piecewise(g, gd):
            return quad_inner_piecewise(
                f.breakpoints, segs, (g, gd), "inverse_sqrt", 0
            ) + CS.lam * quad_inner_piecewise(
                f.breakpoints, segs, (g, gd), "inverse_sqrt", 1
            )

        ff = sobolev_piecewise(f, lambda x: piecewise_derivative_eval(f, x))
        norms = []
        for d in range(0, 16):
            b = build_basis(CS, d)
            p = synthesize(project(f, b), b)
            fp = sobolev_piecewise(p, p.derivative())
            pp = inner_closed_form(p, p, CS)
            norms.append(ff - 2 * fp + pp)
        for lo, hi in zip(norms[1:], norms[:-1]):
            assert lo <= hi + 1e-10

    def test_parseval_on_span(self, rng):
        f = random_linear_spline(rng)
        b = build_basis(CS, 10)
        c = project(f, b)
        p = synthesize(c, b)
        lhs = inner_closed_form(p, p, CS)
        rhs = float(np.dot(c * c, b.sq_norms))
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)

    def test_coefficient_distance_identity(self, rng):
        # squared curve distance equals the norm-weighted coefficient distance
        b = build_basis(CS, 7)
        for _ in range(10):
            x, u, y, v = (rng.uniform(-1, 1, 8) for _ in range(4))
            lhs = inner_closed_form(
                synthesize(x - u, b), synthesize(x - u, b), CS
            ) + inner_closed_form(synthesize(y - v, b), synthesize(y - v, b), CS)
            rhs = float(np.dot((x - u) ** 2 + (y - v) ** 2, b.sq_norms))
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def equal_shape_curves(spline: str, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Knots (count, 8) and local coefficients (count, 7, 2, width) of 8-point traces."""
    rng = np.random.default_rng(11)
    curves = [arc_length_normalize(make_random_trace(rng, 8, 8), spline).curve
              for _ in range(count)]
    return np.stack([c.breakpoints for c in curves]), np.stack([c.local for c in curves])


def projected(bp: np.ndarray, c: np.ndarray, basis: OrthoBasis) -> np.ndarray:
    """The rows of one curve's arrays, or of a bucket's, on basis: _project onto it alone."""
    return _project(bp, c, [basis])[0]


def projection_digests() -> dict[str, str]:
    """sha256 of every kind's projections of fixed curves and buckets."""
    rng = np.random.default_rng(20)
    curves = {}
    for spline in ("linear", "cubic"):
        curve = arc_length_normalize(make_random_trace(rng, 50, 50), spline).curve
        curves[spline] = curve.breakpoints, curve.local
        curves[f"{spline} bucket"] = equal_shape_curves(spline, 5)
    digests = {}
    for kind in BASIS_KINDS:
        for d in (10, 40, 100):
            basis = build_named_basis(kind, d)
            for name, (bp, c) in curves.items():
                digest = hashlib.sha256(projected(bp, c, basis).tobytes()).hexdigest()
                digests[f"{kind} d={d} {name}"] = digest
    return digests


def curves_per_block(spline: str, degree: int) -> int:
    """Curves of seven x, y segments per pass of poly._moments at degree."""
    width = 2 if spline == "linear" else 4
    return max(1, _BLOCK_BYTES // (8 * 2 * (degree + width) * 7))


class TestBucket:
    @pytest.mark.parametrize("degree", [1, 10, 60, 100])
    @pytest.mark.parametrize("spline", ["linear", "cubic"])
    def test_bucket_projection_equals_bucket_of_one(self, spline, degree):
        # bucket sizes around the block size, for both weights; a bucket of one
        # has the bits of the lone curve, and the lone curve those of project
        block = curves_per_block(spline, degree)
        knots, local = equal_shape_curves(spline, block + 1)
        for kind in BASIS_KINDS:
            basis = build_named_basis(kind, degree)
            alone = np.stack([projected(knots[i : i + 1], local[i : i + 1], basis)[0]
                              for i in range(block + 1)])
            assert np.array_equal(alone[0], projected(knots[0], local[0], basis))
            assert np.array_equal(alone[0], project(PiecewisePoly(knots[0], local[0]), basis))
            for size in sorted({1, 2, block - 1, block, block + 1}):
                got = projected(knots[:size], local[:size], basis)
                assert got.shape == (size, 2, degree + 1)
                assert np.array_equal(got, alone[:size]), f"{kind}, {size} curves"

    @pytest.mark.parametrize("spline", ["linear", "cubic"])
    def test_a_bucket_passes_in_blocks_within_the_budget(self, spline, monkeypatch):
        size = 3 * curves_per_block(spline, 10) + 1
        knots, local = equal_shape_curves(spline, size)
        tables = []
        steps = poly._antiderivative_steps

        def spy(*args):
            tables.append(steps(*args))
            return tables[-1]

        for kind in BASIS_KINDS:
            basis = build_named_basis(kind, 10)
            alone = [projected(knots[i : i + 1], local[i : i + 1], basis)[0] for i in range(size)]
            monkeypatch.setattr(poly, "_antiderivative_steps", spy)
            tables.clear()
            got = projected(knots, local, basis)
            monkeypatch.undo()
            assert len(tables) == 4 and max(t.nbytes for t in tables) <= _BLOCK_BYTES
            assert np.array_equal(got, alone), kind

    def test_poly_alone_sizes_every_block(self, monkeypatch):
        # one budget, read only in poly: a budget of one byte puts one item in each block
        # of the moments, the evaluation kernel and the vote, and no output moves a bit
        rng = np.random.default_rng(6)
        basis = build_named_basis("chebyshev-sobolev", 10)
        knots, local = equal_shape_curves("cubic", 9)
        s = np.sort(rng.uniform(-1.0, 1.0, (9, 1, 50)))
        xy, codes = rng.uniform(-1.0, 1.0, (40, 20)), np.arange(40) % 3
        train, test = np.arange(0, 40, 2), np.arange(1, 40, 2)
        tables, votes = [], []
        steps, nearest = poly._antiderivative_steps, classify._nearest_rows
        monkeypatch.setattr(poly, "_antiderivative_steps", lambda *a: tables.append(1) or steps(*a))
        monkeypatch.setattr(classify, "_nearest_rows", lambda *a: votes.append(1) or nearest(*a))

        def run():
            tables.clear()
            votes.clear()
            rows = projected(knots, local, basis)
            sums = [values for _, _, values in _evaluate(rows, basis, s)]
            acc = classify._accuracy(xy, codes, train, test, classify._weights(basis), [1, 3])
            return (len(tables), len(sums), len(votes)), rows, np.concatenate(sums), acc

        blocks, rows, sums, acc = run()
        assert blocks == (1, 1, 1)
        monkeypatch.setattr(poly, "_BLOCK_BYTES", 1)
        small_blocks, small_rows, small_sums, small_acc = run()
        assert small_blocks == (9, 9, 20)
        assert np.array_equal(small_rows, rows) and np.array_equal(small_sums, sums)
        assert small_acc == acc

    def test_equality_holds_under_other_blas_kernels(self):
        # the moment recurrences run elementwise, with no BLAS; other OpenBLAS
        # kernels must give a bucket the bits of a bucket of one too
        env = dict(os.environ, OPENBLAS_CORETYPE="Haswell")
        test = f"{__file__}::TestBucket::test_bucket_projection_equals_bucket_of_one"
        cases = [f"{test}[{spline}-{d}]" for spline in ("linear", "cubic") for d in (10, 60, 100)]
        out = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *cases],
            env=env, cwd=Path(__file__).parents[1], capture_output=True, text=True,
        )
        assert out.returncode == 0, out.stdout[-2000:]

    @pytest.mark.parametrize("disabled", ["X86_V4 AVX512_ICL AVX512_SPR",
                                          "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"],
                             ids=["avx512-off", "avx2-avx512-off"])
    def test_projection_bits_do_not_depend_on_numpy_simd_loops(self, disabled):
        # projection runs only +, -, *, / and sqrt, which round exactly, so
        # turning off numpy's AVX-512 (or AVX2 and AVX-512) loops must leave
        # every kind's bits as they are; numpy ignores features a CPU lacks
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=disabled)
        code = ("import json, sys; sys.path.insert(0, 'tests'); import test_bases; "
                "print(json.dumps(test_bases.projection_digests()))")
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=Path(__file__).parents[1],
                             capture_output=True, text=True)
        assert out.returncode == 0, out.stderr[-2000:]
        assert json.loads(out.stdout) == projection_digests()

    def test_a_piecewise_poly_is_one_curve(self):
        # a bucket is the kernels' arrays: 2-D breakpoints make no PiecewisePoly
        knots, local = equal_shape_curves("linear", 2)
        with pytest.raises(InvalidDataError, match="^breakpoints must be a 1-D array: "):
            PiecewisePoly(knots, local)


# degrees at which moments taken once, at a larger degree, are truncated and
# combined; each row of a moment recurrence depends only on lower rows, and at
# 33..37 a sum by einsum over one segment would split into SIMD lanes
SHARED_DEGREES = (1, 2, 10, 35, 40, 100)


class TestSharedMoments:
    @pytest.mark.parametrize("spline", ["linear", "cubic"])
    def test_truncated_moments_equal_per_degree_projection(self, spline):
        # a lone curve of one segment, of 7 and of 199, and a bucket of 7-segment curves
        rng = np.random.default_rng(12)
        knots, local = equal_shape_curves(spline, 5)
        curves = [arc_length_normalize(make_random_trace(rng, n, n), spline).curve
                  for n in (2, 200)]
        curves = [(f.breakpoints, f.local) for f in curves]
        curves += [(knots[0], local[0]), (knots, local)]
        for kind in BASIS_KINDS:
            bases = [build_named_basis(kind, d) for d in SHARED_DEGREES]
            for bp, c in curves:
                per_degree = [projected(bp, c, basis) for basis in bases]
                for top in (2, 40, 100):  # the degree the moments are taken at
                    family = [b for b in bases if b.degree <= top]
                    for basis, got, want in zip(family, _project(bp, c, family), per_degree):
                        assert got.shape == want.shape
                        assert np.array_equal(got, want), (
                            f"{kind}, d = {basis.degree} from {top}, {c.shape}")

    @pytest.mark.parametrize("spline", ["linear", "cubic"])
    def test_one_call_serves_every_kind_lambda_and_degree(self, spline, monkeypatch):
        knots, local = equal_shape_curves(spline, 5)
        mixed = [build_named_basis(kind, d) for kind in BASIS_KINDS for d in (3, 10, 40)]
        mixed += [build_named_basis("chebyshev-sobolev", d, 1.5) for d in (3, 10, 40)]
        weights = []
        real = bases._moments
        for bp, c in ((knots[0], local[0]), (knots, local)):
            monkeypatch.setattr(bases, "_moments", lambda *a: weights.append(a[2]) or real(*a))
            weights.clear()
            rows = _project(bp, c, mixed)
            monkeypatch.undo()
            assert sorted(weights) == sorted(BasisKind)  # one moment pass per weight
            for basis, got in zip(mixed, rows):
                assert np.array_equal(got, projected(bp, c, basis)), basis.basis_id

    @pytest.mark.parametrize("spline", ["linear", "cubic"])
    @pytest.mark.parametrize("kind", SOBOLEV_KINDS)
    def test_truncated_projection_is_the_projection_at_every_degree(self, kind, spline):
        knots, local = equal_shape_curves(spline, 5)
        for bp, c in ((knots[0], local[0]), (knots, local)):
            full = projected(bp, c, build_named_basis(kind, MAX_DEGREE))
            for d in range(MAX_DEGREE + 1):
                got = projected(bp, c, build_named_basis(kind, d))
                assert np.array_equal(got, full[..., : d + 1]), (d, c.shape)

    def test_equality_holds_under_other_cpu_kernels(self):
        env = dict(os.environ, OPENBLAS_CORETYPE="Haswell",
                   NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR")
        test = f"{__file__}::TestSharedMoments::test_truncated_moments_equal_per_degree_projection"
        out = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             f"{test}[linear]", f"{test}[cubic]"],
            env=env, cwd=Path(__file__).parents[1], capture_output=True, text=True,
        )
        assert out.returncode == 0, out.stdout[-2000:]


REFERENCE_D100 = Path(__file__).parent / "data" / "sobolev_mpmath_d100.json"


def assert_matches_reference(basis, expansion, sq_norms):
    """sq_norms to 1e-15 relative and the expansion to 1e-15 absolute."""
    n = basis.degree + 1
    want = np.zeros((n, n))
    for i in range(n):
        want[i, : i + 1] = [float(x) for x in expansion[i][: i + 1]]
    norms = np.array([float(x) for x in sq_norms])
    assert np.max(np.abs(basis.sq_norms - norms) / norms) <= 1e-15
    assert np.max(np.abs(basis.expansion - want)) <= 1e-15


class TestMpmathReference:
    """Both Sobolev kinds against an mpmath LDL^T of the dense classical Gram matrix."""

    @pytest.mark.parametrize("kind", SOBOLEV_KINDS)
    def test_degree_40(self, kind):
        b = build_named_basis(kind, 40)
        assert_matches_reference(b, *mpmath_sobolev_basis(b.spec.weight.value, b.spec.lam, 40))

    @pytest.mark.parametrize("kind", SOBOLEV_KINDS)
    def test_degree_100_from_stored_digits(self, kind):
        doc = json.loads(REFERENCE_D100.read_text(encoding="utf-8"))
        b = build_named_basis(kind, doc["degree"], doc["lambda"])
        assert b.degree == MAX_DEGREE
        ref = doc[kind]
        # row i stores the entries j = i % 2, i % 2 + 2, ..., i; the others are zero
        rows = [np.zeros(i + 1, dtype=object) for i in range(b.degree + 1)]
        for i, row in enumerate(ref["expansion"]):
            rows[i][i % 2 :: 2] = row
        assert_matches_reference(b, rows, ref["sq_norms"])


class TestSynthesize:
    def test_unit_vector_row_three(self):
        b = build_basis(CS, 3)
        out = synthesize([0, 0, 0, 1.0], b)
        assert out.basis is BasisKind.CHEBYSHEV
        np.testing.assert_allclose(out.coeffs, [0, -0.6, 0, 1], atol=1e-14)

    def test_zero(self):
        b = build_basis(CS, 3)
        np.testing.assert_array_equal(synthesize([0.0, 0, 0, 0], b).coeffs, np.zeros(4))

    def test_round_trip_pointwise(self, rng):
        f = random_linear_spline(rng)
        # a cubic lies in the span of any basis with degree >= 3
        spline = spline_from_monomial(rng.uniform(-1, 1, 4), [-1.0, 0.3, 1.0])
        b = build_basis(CS, 6)
        rebuilt = synthesize(project(spline, b), b)
        xs = np.linspace(-1, 1, 100)
        np.testing.assert_allclose(rebuilt(xs), spline(xs), atol=1e-9)

    def test_length_guard(self):
        b = build_basis(CS, 3)
        with pytest.raises(InvalidDataError, match=r"^expected at most 4 coefficients, got \(5,\)$"):
            synthesize(np.zeros(5), b)

    @pytest.mark.parametrize("coeffs", [["a"], ["1.5", True], [True, False], [1j]])
    def test_non_numeric_coefficients_are_typed(self, coeffs):
        message = r"^coefficients must be numbers \(real, not bool\)$"
        with pytest.raises(InvalidDataError, match=message):
            synthesize(coeffs, build_basis(CS, 3))

    @pytest.mark.parametrize("kind", BASIS_KINDS)
    def test_synthesis_inverts_the_expansion(self, kind, rng):
        b = build_named_basis(kind, 40)
        c = rng.uniform(-1, 1, 41)
        want = np.einsum("ij,i->j", b.expansion, c)
        np.testing.assert_allclose(synthesize(c, b).coeffs, want, rtol=0, atol=1e-14)
        # a prefix synthesizes at its own degree, with the bits of the basis of that degree
        for k in range(41):
            got = synthesize(c[: k + 1], b).coeffs
            own = synthesize(c[: k + 1], build_named_basis(kind, k)).coeffs
            assert got.tobytes() == own.tobytes()


def evaluated(rows, basis, s, degrees=None) -> dict:
    """bases._evaluate's running sums with its blocks put back together: {d: array}."""
    out = {}
    for _, d, values in _evaluate(rows, basis, s, degrees):
        out.setdefault(d, []).append(values)
    return {d: np.concatenate(v) if s.ndim == rows.ndim else v[0] for d, v in out.items()}


def evaluation_digests() -> dict[str, str]:
    """sha256 of every kind's running sums, at every degree, for fixed series and points."""
    rng = np.random.default_rng(27)
    rows = rng.uniform(-1.0, 1.0, (3, 2, MAX_DEGREE + 1))
    s = np.sort(rng.uniform(-1.0, 1.0, (3, 1, 50)))
    return {kind: hashlib.sha256(b"".join(
        v.tobytes() for v in evaluated(rows, build_named_basis(kind, MAX_DEGREE), s,
                                       range(MAX_DEGREE + 1)).values())).hexdigest()
        for kind in BASIS_KINDS}


U = 2.0**-53  # the unit roundoff


class TestEvaluate:
    """The one evaluation kernel: every degree's sum in one pass of the family recurrence.

    The stated bound: on [-1, 1], a running sum at degree d is within
    2 (d + 1) u sum_{k <= d} |a_k| of the exact sum of the same series (u =
    2^-53), and a summed reconstruction error over n points within
    2 n (d + 1) u (L / 2) sum_k (|x_k| + |y_k|) + n u E, L the trace's length
    and E the error.  It is measured, not proven: the worst share of it seen
    here is about 0.47, at d = 1, where (d + 1) u sum |a_k| is proven.
    """

    @pytest.mark.parametrize("degree", [40, 100])
    @pytest.mark.parametrize("kind", BASIS_KINDS)
    def test_within_the_stated_bound_of_mpmath(self, kind, degree):
        rng = np.random.default_rng(degree)
        basis = build_named_basis(kind, degree)
        trace = make_random_trace(rng, 30, 30)
        n = arc_length_normalize(trace)
        projected = project(n.curve, basis)
        # a projection's decaying coefficients, and coefficients that do not decay
        for rows in (projected, rng.uniform(-1.0, 1.0, (2, degree + 1))):
            s = np.r_[-1.0, -1.0 + 2.0**-30, np.sort(rng.uniform(-1.0, 1.0, 24)), 1.0]
            exact = mpmath_series_sums(rows, basis, s)
            got = evaluated(rows, basis, s, range(degree + 1))
            for d in range(degree + 1):
                bound = 2 * (d + 1) * U * np.abs(rows[:, : d + 1]).sum(axis=1)
                error = np.abs(got[d] - exact[d].astype(float))
                assert (error <= bound[:, None]).all(), (d, (error / bound[:, None]).max())
        # the summed error of the reconstruction at the knots, for the top degree and a prefix
        exact = mpmath_series_sums(projected, basis, n.knots)
        c = to_coeffs(n, basis)
        half = mpmath.mpf(n.total_length) / 2
        for d in (degree // 2, degree):
            prefix = dataclasses.replace(c, xs=c.xs[:d], ys=c.ys[:d])
            got = representation_error(trace, n, prefix, basis)
            want = mpmath.fsum(mpmath.sqrt((mpmath.mpf(px) - x * half) ** 2
                                           + (mpmath.mpf(py) - y * half) ** 2)
                               for (px, py), x, y in zip(trace.points.tolist(), *exact[d]))
            size, terms = len(trace.points), np.abs(projected[:, : d + 1]).sum()
            bound = size * (2 * (d + 1) * U * n.total_length / 2 * terms + U * got)
            assert abs(got - want) <= bound, (d, float(abs(got - want) / bound))

    @pytest.mark.parametrize("kind", BASIS_KINDS)
    def test_a_prefix_has_the_bits_of_the_lower_degree_basis(self, kind):
        rng = np.random.default_rng(3)
        rows = rng.uniform(-1.0, 1.0, (3, 2, 41))
        s = np.sort(rng.uniform(-1.0, 1.0, (3, 1, 60)))
        every = evaluated(rows, build_named_basis(kind, 40), s, range(41))
        assert sorted(every) == list(range(41))
        for d in range(41):
            (_, top, own), = _evaluate(rows[..., : d + 1], build_named_basis(kind, d), s)
            assert top == d and np.array_equal(every[d], own), d

    @pytest.mark.parametrize("kind", BASIS_KINDS)
    def test_a_bucket_has_the_bits_of_each_curve_alone(self, kind):
        # curves of 300 points: 27 per block, so 55 curves cross two block boundaries
        rng = np.random.default_rng(4)
        block = poly._BLOCK_BYTES // (8 * 2 * 300)
        rows = rng.uniform(-1.0, 1.0, (2 * block + 1, 2, 21))
        s = np.sort(rng.uniform(-1.0, 1.0, (2 * block + 1, 1, 300)))
        basis = build_named_basis(kind, 20)
        parts = [(part, values) for part, _, values in _evaluate(rows, basis, s)]
        assert [p.start for p, _ in parts] == [0, block, 2 * block]
        assert max(values.nbytes for _, values in parts) <= poly._BLOCK_BYTES
        bucket = evaluated(rows, basis, s, range(21))
        for i in range(len(rows)):
            alone = evaluated(rows[i], basis, s[i, 0], range(21))
            assert all(np.array_equal(bucket[d][i], alone[d]) for d in range(21)), i
        # points shared by every curve sum as each curve's own copy of them
        shared, copies = s[0, 0], np.broadcast_to(s[0], s.shape)
        assert np.array_equal(evaluated(rows, basis, shared)[20],
                              evaluated(rows, basis, copies)[20])

    @pytest.mark.parametrize("kind", ["legendre", "chebyshev"])
    def test_a_plain_family_sums_as_densepoly_evaluates(self, kind):
        # both sum over poly's one classical walk, in the same order, up to MAX_DEGREE
        rng = np.random.default_rng(5)
        c = rng.uniform(-1.0, 1.0, MAX_DEGREE + 1)
        s = np.r_[-1.0, np.sort(rng.uniform(-1.0, 1.0, 80)), 1.0]
        every = evaluated(c[None], build_named_basis(kind, MAX_DEGREE), s, range(MAX_DEGREE + 1))
        for d in range(MAX_DEGREE + 1):
            assert np.array_equal(every[d][0], DensePoly(kind, c[: d + 1])(s)), d

    def test_bits_do_not_depend_on_numpy_simd_loops(self):
        # only +, -, * and / run, which round exactly on every CPU
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES="X86_V3 X86_V4 AVX512_ICL AVX512_SPR")
        code = ("import json, sys; sys.path.insert(0, 'tests'); import test_bases; "
                "print(json.dumps(test_bases.evaluation_digests()))")
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=Path(__file__).parents[1],
                             capture_output=True, text=True)
        assert out.returncode == 0, out.stderr[-2000:]
        assert json.loads(out.stdout) == evaluation_digests()


def identity_document(degree: int) -> dict:
    """A chebyshev basis document of any degree: identity expansion, textbook norms."""
    n = degree + 1
    return {
        "spec": {"weight": "inverse_sqrt", "lambda": 0.0, "order": 0},
        "degree": degree,
        "expansion": np.eye(n).ravel().tolist(),
        "sq_norms": [math.pi] + [math.pi / 2] * degree,
    }


def saved_document(basis, tmp_path) -> dict:
    """The JSON document that save_basis writes for basis."""
    path = tmp_path / "saved.json"
    save_basis(basis, path)
    return json.loads(path.read_text(encoding="utf-8"))


class TestBasisJson:
    def test_round_trip(self, tmp_path):
        b = build_basis(CS, 6)
        path = tmp_path / "basis.json"
        save_basis(b, path)
        b2 = load_basis(path)
        assert b2.spec == b.spec
        assert b2.degree == b.degree
        np.testing.assert_array_equal(b2.expansion, b.expansion)
        np.testing.assert_array_equal(b2.sq_norms, b.sq_norms)

    def test_golden_file(self, tmp_path):
        golden_path = Path(__file__).parent / "data" / "golden_chebyshev_sobolev_d5.json"
        golden = json.loads(golden_path.read_text())
        doc = saved_document(build_basis(CS, 5), tmp_path)
        assert doc["spec"] == golden["spec"]
        assert doc["degree"] == golden["degree"]
        assert doc["normalization"] == golden["normalization"]
        np.testing.assert_allclose(doc["expansion"], golden["expansion"], atol=1e-15, rtol=0)
        np.testing.assert_allclose(doc["sq_norms"], golden["sq_norms"], rtol=1e-15)

    @pytest.mark.parametrize("kind, degree, digest", [
        ("chebyshev-sobolev", 5,
         "8556b3360efc00f1d2e60e7e17fd95111abb3833487b916497855f1dd200587c"),
        ("legendre", 0, "689e1318a631833ab18cc7d7e02aa80097b58dffd8c22701876a1c3505284f35"),
    ])
    def test_saved_file_keeps_its_bytes(self, tmp_path, kind, degree, digest):
        path = tmp_path / "basis.json"
        save_basis(build_named_basis(kind, degree), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_saving_a_non_basis_refuses_before_the_file_is_opened(self, tmp_path):
        new, old = tmp_path / "new.json", tmp_path / "old.json"
        old.write_bytes(b"kept")
        for path in (new, old):
            with pytest.raises(InvalidParameterError,
                               match="^basis must be an OrthoBasis, got NoneType$"):
                save_basis(None, path)
        assert not new.exists() and old.read_bytes() == b"kept"

    def test_loaded_basis_is_the_built_one(self, tmp_path):
        built = build_basis(CS, 5)
        golden = load_basis(Path(__file__).parent / "data" / "golden_chebyshev_sobolev_d5.json")
        # a document within the tolerance loads as the rebuilt basis, not as its own arrays
        doc = saved_document(built, tmp_path)
        doc["expansion"] = [x * (1 + 1e-14) for x in doc["expansion"]]
        path = tmp_path / "basis.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        for loaded in (golden, load_basis(path)):
            assert loaded.spec == built.spec and loaded.degree == built.degree
            assert np.array_equal(loaded.expansion, built.expansion)
            assert np.array_equal(loaded.sq_norms, built.sq_norms)

    @pytest.mark.parametrize(
        "edit, error, message",
        [
            (lambda d: d.pop("spec"), InvalidDataError, "lacks 'spec'"),
            (lambda d: d["expansion"].pop(), InvalidDataError, "cannot reshape"),
            (lambda d: d["spec"].update(weight="cosh"), InvalidDataError, "'cosh'"),
            (lambda d: d.update(degree=float("inf")), InvalidParameterError,
             "^degree must be an integer, got inf$"),
            (lambda d: d.update(sq_norms="abc"), InvalidDataError, "malformed"),
            (lambda d: d["sq_norms"].__setitem__(0, -1.0), InvalidDataError,
             r"^sq_norms is not that of chebyshev-sobolev\(lam=0.125,order=1,degree=3\)$"),
            (lambda d: d.update(degree=-1, expansion=[], sq_norms=[]), InvalidParameterError,
             "^degree must be non-negative$"),
            (lambda d: d["spec"].update(order=2), InvalidParameterError,
             "^order 2 not implemented$"),
            (None, ParseError, "line 3: malformed JSON"),
            (lambda d: d["spec"].update({"lambda": 0.5}), InvalidDataError,
             r"^expansion is not that of chebyshev-sobolev\(lam=0.5,order=1,degree=3\)$"),
            (lambda d: d["spec"].update(order=True), InvalidParameterError,
             "^order must be an integer, got True$"),
            (lambda d: d["spec"].update(order=1.9), InvalidParameterError,
             "^order must be an integer, got 1.9$"),
            (lambda d: d.update(degree=3.9), InvalidParameterError,
             "^degree must be an integer, got 3.9$"),
            (lambda d: d["spec"].update({"lambda": True}), InvalidParameterError,
             "^lam must be a real number, got True$"),
            (lambda d: d.update(identity_document(150)), InvalidParameterError,
             "^degree 150 exceeds the verified limit 100$"),
        ],
        ids=["no-spec", "short-expansion", "unknown-weight", "infinite-degree",
             "string-norms", "negative-norm", "negative-degree", "order-2", "bad-json",
             "edited-lambda", "bool-order", "fractional-order", "fractional-degree",
             "bool-lambda", "identity-degree-150"],
    )
    def test_malformed_file_raises_typed_error(self, tmp_path, edit, error, message):
        doc = saved_document(build_basis(CS, 3), tmp_path)
        path = tmp_path / "basis.json"
        if edit is None:
            path.write_text('{\n  "spec":\n', encoding="utf-8")
        else:
            edit(doc)
            path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(error, match=message):
            load_basis(path)

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int digit limit")
    def test_integer_past_digit_limit_raises_parse_error(self, tmp_path):
        doc = saved_document(build_basis(CS, 3), tmp_path)
        path = tmp_path / "basis.json"
        path.write_text(json.dumps(doc).replace('"degree": 3', '"degree": ' + "1" * 5001))
        with pytest.raises(ParseError, match="^malformed JSON: Exceeds the limit"):
            load_basis(path)

    def test_not_utf8_raises_parse_error(self, tmp_path):
        path = tmp_path / "basis.json"
        path.write_bytes(b'{\n  "spec": {"weight": "unit\xe9"}\n}\n')
        with pytest.raises(ParseError, match="line 2: not UTF-8 text: invalid continuation byte"):
            load_basis(path)
