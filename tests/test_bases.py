"""Inner products, orthogonal family construction, projection, synthesis."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial import chebyshev as npcheb
from numpy.polynomial import polynomial as nppoly

from inkbasis import (
    BasisKind,
    BasisMismatchError,
    DensePoly,
    InkBasisError,
    InnerProductSpec,
    InvalidDataError,
    InvalidParameterError,
    ParseError,
    PiecewisePoly,
    Weight,
    basis_from_json_dict,
    basis_to_json_dict,
    build_basis,
    build_named_basis,
    inner_closed_form,
    load_basis,
    project,
    spec_for_kind,
    synthesize,
)
from conftest import make_random_trace
from inkbasis import BASIS_KINDS, OrthoBasis, arc_length_normalize, bases, poly, symbol_coeffs
from inkbasis.bases import MAX_DEGREE, _project
from inkbasis.poly import _BLOCK_BYTES
from oracles import (
    closed_form_sobolev_gram,
    global_segments,
    gram_schmidt_by_quadrature,
    gram_schmidt_closed_form,
    mpmath_sobolev_basis,
    piecewise_derivative_eval,
    project_by_rows,
    quad_inner_piecewise,
    quad_inner_series,
)

CS = spec_for_kind("chebyshev-sobolev", 0.125)
LS = spec_for_kind("legendre-sobolev", 0.125)
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
        spec = spec_for_kind("chebyshev")
        assert inner_closed_form(cheb(1), cheb(1), spec) == pytest.approx(math.pi)

    def test_p1_norm(self):
        spec = spec_for_kind("legendre")
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
            inner_closed_form(f, f, spec_for_kind("chebyshev-sobolev", 1e308))
        assert not recwarn.list

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
        assert spec_for_kind(kind, 0.5) == spec_for_kind(kind) == InnerProductSpec(
            Weight.INVERSE_SQRT if kind == "chebyshev" else Weight.UNIT, 0.0, 0)

    def test_lam_past_float_range_is_typed(self):
        with pytest.raises(InvalidParameterError, match="^lam must be finite and non-negative"):
            InnerProductSpec(Weight.UNIT, 10**400, 1)

    def test_lambda_whose_gram_overflows_is_refused(self, recwarn):
        # the banded Gram diagonal at degree 100 is lam * 200^2 * pi/2 + O(1): finite
        # up to about 2.86e303
        with pytest.raises(InvalidParameterError,
                           match=r"^lambda 3e\+303 is too large at degree 100: the Gram matrix"):
            build_basis(spec_for_kind("chebyshev-sobolev", 3e303), 100)
        build_basis(spec_for_kind("chebyshev-sobolev", 2e303), 100)
        basis = build_basis(spec_for_kind("chebyshev-sobolev", 1e303), 100)
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
        for spec in (CS, LS, spec_for_kind("chebyshev"), spec_for_kind("legendre")):
            b = build_basis(spec, 9)
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


def projection_digests() -> dict[str, str]:
    """sha256 of every kind's projections of fixed curves and buckets."""
    rng = np.random.default_rng(20)
    curves = {}
    for spline in ("linear", "cubic"):
        curves[spline] = arc_length_normalize(make_random_trace(rng, 50, 50), spline).curve
        curves[f"{spline} bucket"] = PiecewisePoly(*equal_shape_curves(spline, 5))
    digests = {}
    for kind in BASIS_KINDS:
        for d in (10, 40, 100):
            basis = build_named_basis(kind, d)
            for name, f in curves.items():
                digest = hashlib.sha256(project(f, basis).tobytes()).hexdigest()
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
        # bucket sizes around the block size, for both weights
        block = curves_per_block(spline, degree)
        knots, local = equal_shape_curves(spline, block + 1)
        for kind in BASIS_KINDS:
            basis = build_named_basis(kind, degree)
            alone = np.stack([project(PiecewisePoly(knots[i : i + 1], local[i : i + 1]), basis)[0]
                              for i in range(block + 1)])
            assert np.array_equal(alone[0], project(PiecewisePoly(knots[0], local[0]), basis))
            for size in sorted({1, 2, block - 1, block, block + 1}):
                got = project(PiecewisePoly(knots[:size], local[:size]), basis)
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
            alone = [project(PiecewisePoly(knots[i : i + 1], local[i : i + 1]), basis)[0]
                     for i in range(size)]
            monkeypatch.setattr(poly, "_antiderivative_steps", spy)
            tables.clear()
            got = project(PiecewisePoly(knots, local), basis)
            monkeypatch.undo()
            assert len(tables) == 4 and max(t.nbytes for t in tables) <= _BLOCK_BYTES
            assert np.array_equal(got, alone), kind

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

    def test_segments_are_every_curves_rows(self):
        knots, local = equal_shape_curves("cubic", 3)
        bucket = PiecewisePoly(knots, local)
        assert len(bucket.segments) == 3 * 7
        np.testing.assert_array_equal(bucket.segments, local.reshape(21, 2, 4))

    def test_first_discontinuous_curve_is_named(self):
        knots, local = equal_shape_curves("linear", 4)
        local = local.copy()
        local[3, 5, 1, 0] += 1.0  # y of curve 3 jumps at its breakpoint 5
        local[1, 2, 0, 0] += 1.0  # x of curve 1 jumps at its breakpoint 2
        with pytest.raises(InvalidDataError,
                           match=rf"^discontinuity at breakpoint {knots[1, 2]} in curve 1$"):
            PiecewisePoly(knots, local)

    def test_first_non_finite_curve_is_named(self):
        knots, local = equal_shape_curves("cubic", 4)
        local = local.copy()
        local[3, 0, 1, 3] = np.inf
        local[2, 6, 0, 2] = np.nan
        with pytest.raises(InvalidDataError, match="^local coefficients must be finite in curve 2$"):
            PiecewisePoly(knots, local)

    def test_first_non_increasing_curve_is_named(self):
        knots, local = equal_shape_curves("linear", 3)
        knots = knots.copy()
        knots[2, 4] = knots[2, 3]
        with pytest.raises(InvalidDataError,
                           match="^breakpoints must be strictly increasing in curve 2$"):
            PiecewisePoly(knots, local)

    def test_curve_counts_must_agree(self):
        knots, local = equal_shape_curves("linear", 3)
        with pytest.raises(InvalidDataError, match="^segment count must be breakpoint count - 1$"):
            PiecewisePoly(knots[:2], local)

    def test_a_bucket_is_evaluated_curve_by_curve(self):
        knots, local = equal_shape_curves("linear", 2)
        with pytest.raises(InvalidParameterError):
            PiecewisePoly(knots, local)(0.0)


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
        curves += [PiecewisePoly(knots[0], local[0]), PiecewisePoly(knots, local)]
        for kind in BASIS_KINDS:
            bases = [build_named_basis(kind, d) for d in SHARED_DEGREES]
            for f in curves:
                per_degree = [project(f, basis) for basis in bases]
                for top in (2, 40, 100):  # the degree the moments are taken at
                    family = [b for b in bases if b.degree <= top]
                    for basis, got, want in zip(family, _project(f, family), per_degree):
                        assert got.shape == want.shape
                        assert np.array_equal(got, want), (
                            f"{kind}, d = {basis.degree} from {top}, {f.local.shape}")

    @pytest.mark.parametrize("spline", ["linear", "cubic"])
    def test_one_call_serves_every_kind_lambda_and_degree(self, spline, monkeypatch):
        knots, local = equal_shape_curves(spline, 5)
        mixed = [build_named_basis(kind, d) for kind in BASIS_KINDS for d in (3, 10, 40)]
        mixed += [build_named_basis("chebyshev-sobolev", d, 1.5) for d in (3, 10, 40)]
        weights = []
        real = bases._moments
        for f in (PiecewisePoly(knots[0], local[0]), PiecewisePoly(knots, local)):
            monkeypatch.setattr(bases, "_moments", lambda *a: weights.append(a[1]) or real(*a))
            weights.clear()
            rows = _project(f, mixed)
            monkeypatch.undo()
            assert sorted(weights) == sorted(BasisKind)  # one moment pass per weight
            for basis, got in zip(mixed, rows):
                assert np.array_equal(got, project(f, basis)), basis.basis_id

    @pytest.mark.parametrize("spline", ["linear", "cubic"])
    @pytest.mark.parametrize("kind", SOBOLEV_KINDS)
    def test_truncated_projection_is_the_projection_at_every_degree(self, kind, spline):
        knots, local = equal_shape_curves(spline, 5)
        for f in (PiecewisePoly(knots[0], local[0]), PiecewisePoly(knots, local)):
            full = project(f, build_named_basis(kind, MAX_DEGREE))
            for d in range(MAX_DEGREE + 1):
                got = project(f, build_named_basis(kind, d))
                assert np.array_equal(got, full[..., : d + 1]), (d, f.local.shape)

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

    def test_non_numeric_coefficients_are_typed(self):
        with pytest.raises(InvalidDataError, match="^coefficients must be numbers: could not"):
            synthesize(["a"], build_basis(CS, 3))

    @pytest.mark.parametrize("kind", BASIS_KINDS)
    def test_synthesis_inverts_the_expansion(self, kind, rng):
        b = build_named_basis(kind, 40)
        c = rng.uniform(-1, 1, 41)
        want = np.einsum("ij,i->j", b.expansion, c)
        np.testing.assert_allclose(synthesize(c, b).coeffs, want, rtol=0, atol=1e-14)
        np.testing.assert_array_equal(synthesize(c[:7], b).coeffs[7:], 0.0)


def identity_document(degree: int) -> dict:
    """A chebyshev basis document of any degree: identity expansion, textbook norms."""
    n = degree + 1
    return {
        "spec": {"weight": "inverse_sqrt", "lambda": 0.0, "order": 0},
        "degree": degree,
        "expansion": np.eye(n).ravel().tolist(),
        "sq_norms": [math.pi] + [math.pi / 2] * degree,
    }


class TestBasisJson:
    def test_round_trip(self):
        b = build_basis(CS, 6)
        doc = basis_to_json_dict(b)
        b2 = basis_from_json_dict(doc)
        assert b2.spec == b.spec
        assert b2.degree == b.degree
        np.testing.assert_array_equal(b2.expansion, b.expansion)
        np.testing.assert_array_equal(b2.sq_norms, b.sq_norms)

    def test_golden_file(self):
        import json
        from pathlib import Path

        golden_path = Path(__file__).parent / "data" / "golden_chebyshev_sobolev_d5.json"
        golden = json.loads(golden_path.read_text())
        doc = basis_to_json_dict(build_basis(CS, 5))
        assert doc["spec"] == golden["spec"]
        assert doc["degree"] == golden["degree"]
        assert doc["normalization"] == golden["normalization"]
        np.testing.assert_allclose(doc["expansion"], golden["expansion"], atol=1e-15, rtol=0)
        np.testing.assert_allclose(doc["sq_norms"], golden["sq_norms"], rtol=1e-15)

    def test_loaded_basis_is_the_built_one(self, tmp_path):
        from pathlib import Path

        built = build_basis(CS, 5)
        golden = load_basis(Path(__file__).parent / "data" / "golden_chebyshev_sobolev_d5.json")
        # a document within the tolerance loads as the rebuilt basis, not as its own arrays
        doc = basis_to_json_dict(built)
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
        doc = basis_to_json_dict(build_basis(CS, 3))
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
        doc = basis_to_json_dict(build_basis(CS, 3))
        path = tmp_path / "basis.json"
        path.write_text(json.dumps(doc).replace('"degree": 3', '"degree": ' + "1" * 5001))
        with pytest.raises(ParseError, match="^malformed JSON: Exceeds the limit"):
            load_basis(path)

    def test_not_utf8_raises_parse_error(self, tmp_path):
        path = tmp_path / "basis.json"
        path.write_bytes(b'{\n  "spec": {"weight": "unit\xe9"}\n}\n')
        with pytest.raises(ParseError, match="line 2: not UTF-8 text: invalid continuation byte"):
            load_basis(path)
