"""Polynomial core: evaluation, derivatives, moments, piecewise integrals."""

import math

import mpmath
import numpy as np
import pytest
from numpy.polynomial import chebyshev as npcheb
from numpy.polynomial import legendre as npleg

from inkbasis import (
    BasisKind,
    DensePoly,
    InvalidDataError,
    InvalidParameterError,
    PiecewisePoly,
    Weight,
    build_named_basis,
    poly,
    project,
    synthesize,
)
from oracles import (
    OracleDomainError,
    global_segments,
    inner_piecewise,
    naive_cheb_eval,
    quad_inner_piecewise,
    weighted_moment,
)


def cheb(*coeffs):
    return DensePoly(BasisKind.CHEBYSHEV, np.array(coeffs, dtype=float))


def leg(*coeffs):
    return DensePoly(BasisKind.LEGENDRE, np.array(coeffs, dtype=float))


# None, NaN and +-inf, alone and among finite points
NON_FINITE_POINTS = [None, np.nan, np.inf, -np.inf, [0.5, None], [0.5, np.nan],
                     np.array([0.5, np.inf]), [[0.0, -np.inf]]]


class TestClenshaw:
    def test_t2_at_half(self):
        assert cheb(0, 0, 1)(0.5) == pytest.approx(-0.5, abs=1e-15)

    def test_constant(self):
        for x in (-1.0, 0.0, 0.3, 1.0):
            assert cheb(1)(x) == 1.0

    def test_t3(self):
        assert cheb(0, 0, 0, 1)(0.3) == pytest.approx(-0.792, abs=1e-15)

    def test_scalar_gives_float(self):
        assert type(cheb(1, 2)(0.5)) is float
        assert type(leg(1, 2)(0.5)) is float

    def test_matches_naive_summation(self, rng):
        for _ in range(50):
            deg = int(rng.integers(0, 31))
            c = rng.uniform(-1, 1, size=deg + 1)
            x = rng.uniform(-1, 1, size=40)
            got = cheb(*c)(x)
            want = naive_cheb_eval(c, x)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_within_twice_the_evaluation_bound_of_chebval(self, rng):
        # the walk DensePoly sums with keeps bases._evaluate's bound, 2 (d + 1) u sum |c|, from
        # the exact sum, and so should chebval's Clenshaw: twice it covers both (the worst
        # share of it seen in 200 seeded runs of this loop was 0.48)
        for deg in range(0, 101, 5):
            c = rng.uniform(-1, 1, size=deg + 1)
            x = np.r_[-1.0, rng.uniform(-1, 1, size=40), 1.0]
            bound = 2 * 2 * (deg + 1) * 2.0**-53 * np.abs(c).sum()
            assert np.abs(cheb(*c)(x) - npcheb.chebval(x, c)).max() <= bound, deg


class TestLegendreEval:
    def test_p1(self):
        assert leg(0, 1)(0.7) == pytest.approx(0.7, abs=1e-15)

    def test_pn_at_one(self):
        assert leg(0, 0, 1)(1.0) == pytest.approx(1.0, abs=1e-15)

    def test_constant(self):
        assert leg(2, 0, 0)(-0.3) == 2.0

    def test_matches_numpy(self, rng):
        for _ in range(25):
            c = rng.uniform(-1, 1, size=int(rng.integers(1, 20)))
            x = rng.uniform(-1, 1, size=30)
            np.testing.assert_allclose(leg(*c)(x), npleg.legval(x, c), rtol=1e-13, atol=1e-13)


class TestDerivative:
    def test_t2(self):
        np.testing.assert_array_equal(cheb(0, 0, 1).derivative().coeffs, [0, 4])

    def test_t3(self):
        np.testing.assert_array_equal(cheb(0, 0, 0, 1).derivative().coeffs, [3, 0, 6])

    def test_constant_gives_zero(self):
        for p in (cheb(5), leg(5)):
            d = p.derivative()
            assert d.basis is p.basis
            np.testing.assert_array_equal(d.coeffs, [0.0])

    def test_keeps_basis_and_drops_degree(self, rng):
        c = rng.uniform(-1, 1, size=7)
        for kind in BasisKind:
            d = DensePoly(kind, c).derivative()
            assert d.basis is kind
            assert d.degree == 6 - 1

    def test_inverts_antiderivative(self, rng):
        # recover a random series from its numpy antiderivative, in each basis
        pairs = ((BasisKind.CHEBYSHEV, npcheb.chebint), (BasisKind.LEGENDRE, npleg.legint))
        for kind, integ in pairs:
            for _ in range(15):
                c = rng.uniform(-1, 1, size=int(rng.integers(1, 12)))
                got = DensePoly(kind, integ(c)).derivative().coeffs
                np.testing.assert_allclose(got[: len(c)], c, rtol=1e-12, atol=1e-12)
                assert np.all(np.abs(got[len(c):]) <= 1e-15)


class TestWeightedMoment:
    def test_full_interval_values(self):
        assert weighted_moment(0, -1, 1, Weight.INVERSE_SQRT) == pytest.approx(math.pi, abs=1e-14)
        assert weighted_moment(2, -1, 1, Weight.INVERSE_SQRT) == pytest.approx(math.pi / 2, abs=1e-14)
        assert weighted_moment(1, -1, 1, Weight.UNIT) == 0.0

    def test_odd_moments_vanish(self):
        for k in range(1, 13, 2):
            assert abs(weighted_moment(k, -1, 1, Weight.INVERSE_SQRT)) <= 1e-15

    def test_even_moments_double_factorial(self):
        # (k-1)!! / k!! * pi for even k
        for k in range(0, 13, 2):
            num = math.prod(range(k - 1, 0, -2)) or 1
            den = math.prod(range(k, 0, -2)) or 1
            want = num / den * math.pi
            assert weighted_moment(k, -1, 1, Weight.INVERSE_SQRT) == pytest.approx(
                want, rel=1e-13
            )

    def test_boundary_terms_vanish_at_endpoints(self):
        # splitting at an endpoint-adjacent interval must be consistent:
        # sum of sub-moments equals the full moment even with b = 1
        for k in range(0, 9):
            full = weighted_moment(k, 0, 1, Weight.INVERSE_SQRT)
            split = weighted_moment(k, 0, 0.9, Weight.INVERSE_SQRT) + weighted_moment(
                k, 0.9, 1, Weight.INVERSE_SQRT
            )
            assert full == pytest.approx(split, rel=1e-12, abs=1e-14)

    def test_domain_guard(self):
        interval = r"^moment intervals must satisfy -1 <= a <= b <= 1$"
        with pytest.raises(OracleDomainError, match=interval):
            weighted_moment(2, -1.5, 0.5, Weight.UNIT)
        with pytest.raises(OracleDomainError, match=interval):
            weighted_moment(2, 0.5, 1.5, Weight.INVERSE_SQRT)
        with pytest.raises(OracleDomainError, match=interval):
            weighted_moment(2, 0.7, 0.2, Weight.UNIT)


def identity_spline():
    return PiecewisePoly(np.array([-1.0, 1.0]), [[-1.0, 1.0]])


def constant_spline():
    return PiecewisePoly(np.array([-1.0, 1.0]), [[1.0]])


def random_linear_spline(rng, n_break=None):
    n = n_break or int(rng.integers(2, 9))
    breaks = np.sort(rng.uniform(-1, 1, size=n))
    breaks[0], breaks[-1] = -1.0, 1.0
    while np.any(np.diff(breaks) <= 1e-6):
        breaks = np.sort(rng.uniform(-1, 1, size=n))
        breaks[0], breaks[-1] = -1.0, 1.0
    vals = rng.uniform(-2, 2, size=n)
    slopes = np.diff(vals) / np.diff(breaks)
    return PiecewisePoly(breaks, np.column_stack([vals[:-1], slopes]))


class TestDensePolyBasics:
    def test_degree_counts_trailing_zeros(self):
        assert cheb(1, 2, 0, 0).degree == 3

    def test_rejects_empty_coeffs(self):
        with pytest.raises(InvalidDataError):
            DensePoly(BasisKind.CHEBYSHEV, [])

    @pytest.mark.parametrize(
        "coeffs", [["a"], ["2", False], [True], [1j], [b"1"], [10**400], [2.0, False]])
    def test_non_numeric_coeffs_are_typed(self, coeffs):
        with pytest.raises(InvalidDataError, match=r"^coeffs must be numbers \(real, not bool\)$"):
            DensePoly(BasisKind.LEGENDRE, coeffs)

    @pytest.mark.parametrize("coeffs", [None, [np.nan, 1.0], [np.inf], [1.0, 2.0, -np.inf]])
    def test_coeffs_that_are_not_finite_are_refused(self, coeffs):
        # None becomes NaN; a NaN or infinite coefficient would give NaN values and inners
        with pytest.raises(InvalidDataError, match="^coeffs must be finite$"):
            DensePoly("legendre", coeffs)

    def test_a_series_that_is_not_finite_synthesizes_nothing(self):
        basis = build_named_basis("chebyshev-sobolev", 3)
        with pytest.raises(InvalidDataError, match="^coeffs must be finite$"):
            synthesize([np.nan, 1.0], basis)

    @pytest.mark.parametrize("breakpoints, local, name", [
        (["a", "b"], [[1.0]], "breakpoints"), ([-1.0, 1.0], [["a"]], "local coefficients"),
        (["-1", "1"], [[True, "0.5"]], "breakpoints"),
        ([-1.0, 1.0], [[True, False]], "local coefficients"),
        ([-1.0, 1.0], [[1.5, True]], "local coefficients"),
        ([-1, True], [[1.5]], "breakpoints")])
    def test_non_numeric_splines_are_typed(self, breakpoints, local, name):
        with pytest.raises(InvalidDataError, match=rf"^{name} must be numbers \(real, not bool\)$"):
            PiecewisePoly(breakpoints, local)

    @pytest.mark.parametrize("basis", list(BasisKind))
    @pytest.mark.parametrize("points", ["abc", True, [0.5, True]])
    def test_non_numeric_points_are_typed(self, basis, points):
        with pytest.raises(InvalidDataError, match="^evaluation points must be numbers"):
            DensePoly(basis, [1.0, 2.0])(points)

    @pytest.mark.parametrize("basis", list(BasisKind))
    @pytest.mark.parametrize("points", NON_FINITE_POINTS)
    def test_points_that_are_not_finite_are_refused(self, basis, points):
        with pytest.raises(InvalidDataError, match="^evaluation points must be finite$"):
            DensePoly(basis, [1.0, 2.0])(points)

    def test_unknown_basis_is_typed(self):
        with pytest.raises(InvalidParameterError,
                           match=r"^unknown basis 'hermite'; expected one of \['legendre', 'chebyshev'\]$"):
            DensePoly("hermite", [1.0])


class TestRealArray:
    @pytest.mark.parametrize(
        "values",
        [[True, 1.5], [1.5, True], [(0, True), (1, 2)], [np.True_, 2.0],
         [np.array([1.0]), np.array([True])], np.array([1.0, True], dtype=object),
         [[1.0, 2.0], (3.0, False)]],
        ids=["bool-first", "bool-last", "bool-in-a-pair", "numpy-bool", "bool-array-in-a-list",
             "object-array", "bool-in-a-nested-tuple"],
    )
    def test_a_bool_among_numbers_is_refused(self, values):
        with pytest.raises(InvalidDataError, match="^not real$"):
            poly._real_array(values, "not real")

    @pytest.mark.parametrize(
        "values",
        [[1.5, 2], [(0, 1), (1, 2.5)], np.arange(3), np.float64(2.0), 3, [np.float64(1.0), 2],
         np.array([1.0, 2], dtype=object)],
        ids=["floats-and-ints", "pairs", "int-array", "numpy-scalar", "int", "numpy-floats",
             "object-array"],
    )
    def test_real_numbers_become_floats(self, values):
        out = poly._real_array(values, "not real")
        assert out.dtype == float and np.array_equal(out, np.asarray(values, dtype=float))


class TestPiecewisePoly:
    def test_eval_and_knots(self):
        f = identity_spline()
        assert f(0.25) == pytest.approx(0.25)
        np.testing.assert_allclose(f(np.array([-1, 0, 1])), [-1, 0, 1])

    def test_global_segments_padding(self):
        f = identity_spline()
        np.testing.assert_array_equal(global_segments(f), [[0.0, 1.0, 0.0, 0.0]])

    def test_segments_is_one_row_per_segment(self, rng):
        f = random_linear_spline(rng)
        assert len(f.segments) == len(f.local) == len(f.breakpoints) - 1
        np.testing.assert_array_equal(f.segments, f.local)

    def test_requires_continuity(self):
        with pytest.raises(InvalidDataError, match="discontinuity"):
            PiecewisePoly(np.array([-1.0, 0.0, 1.0]), [[0.0], [1.0]])

    def test_requires_increasing_breakpoints(self):
        with pytest.raises(InvalidDataError):
            PiecewisePoly(np.array([0.0, 0.0]), [[1.0]])

    def test_segment_count(self):
        with pytest.raises(InvalidDataError):
            PiecewisePoly(np.array([-1.0, 1.0]), [[1.0], [1.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_requires_finite_coefficients(self, bad):
        with pytest.raises(InvalidDataError, match="^local coefficients must be finite$"):
            PiecewisePoly(np.array([-1.0, 1.0]), [[bad, 1.0]])

    def test_value_axis_evaluates_every_function(self, rng):
        f = random_linear_spline(rng, 6)
        g = PiecewisePoly(f.breakpoints, f.local * -2.0 + [3.0, 0.0])  # 3 - 2f
        both = PiecewisePoly(f.breakpoints, np.stack([f.local, g.local], axis=1))
        s = rng.uniform(-1, 1, size=(3, 5))
        assert both(s).shape == (3, 5, 2)
        np.testing.assert_array_equal(both(s)[..., 0], f(s))
        np.testing.assert_array_equal(both(s)[..., 1], g(s))
        np.testing.assert_array_equal(both(0.3), [f(0.3), g(0.3)])
        assert len(both.segments) == 5

    def test_value_axis_continuity_reports_first_break(self):
        bp = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
        local = np.zeros((4, 2, 1))
        local[3:, 0] = 1.0  # x jumps at 0.5
        local[2:, 1] = 1.0  # y jumps at 0.0
        with pytest.raises(InvalidDataError, match="breakpoint 0.0"):
            PiecewisePoly(bp, local)

    def test_value_axis_single_segment(self):
        f = PiecewisePoly(np.array([-1.0, 1.0]), [[[0.0, 1.0], [2.0, 0.0]]])
        np.testing.assert_array_equal(f(1.0), [2.0, 2.0])

    @pytest.mark.parametrize("points", ["abc", True, [0.5, True]])
    def test_non_numeric_points_are_typed(self, points):
        f = PiecewisePoly([-1.0, 1.0], [[1.0, 2.0]])
        with pytest.raises(InvalidDataError,
                           match=r"^evaluation points must be numbers \(real, not bool\)$"):
            f(points)

    @pytest.mark.parametrize("points", NON_FINITE_POINTS)
    def test_points_that_are_not_finite_are_refused(self, points):
        f = PiecewisePoly([-1.0, 1.0], [[1.0, 2.0]])
        with pytest.raises(InvalidDataError, match="^evaluation points must be finite$"):
            f(points)

    def test_rejects_deeper_value_axes(self):
        with pytest.raises(InvalidDataError):
            PiecewisePoly(np.array([-1.0, 1.0]), np.zeros((1, 1, 1, 2)))


class TestInnerPiecewise:
    def test_constant_against_t0(self):
        got = inner_piecewise(constant_spline(), cheb(1), Weight.INVERSE_SQRT, 0)
        assert got == pytest.approx(math.pi, abs=1e-12)

    def test_identity_against_t0_first_order(self):
        # the derivative order applies to both arguments, so T0' = 0 kills it
        got = inner_piecewise(identity_spline(), cheb(1), Weight.INVERSE_SQRT, 1)
        assert got == pytest.approx(0.0, abs=1e-15)

    def test_identity_against_t1_first_order(self):
        got = inner_piecewise(identity_spline(), cheb(0, 1), Weight.INVERSE_SQRT, 1)
        assert got == pytest.approx(math.pi, abs=1e-12)

    @pytest.mark.parametrize("weight", [Weight.UNIT, Weight.INVERSE_SQRT])
    def test_against_quadrature_oracle(self, rng, weight):
        for _ in range(100):
            f = random_linear_spline(rng)
            i = int(rng.integers(0, 16))
            e = np.zeros(i + 1)
            e[i] = 1.0
            g = cheb(*e) if weight is Weight.INVERSE_SQRT else leg(*e)
            order = int(rng.integers(0, 2))
            got = inner_piecewise(f, g, weight, order)
            if weight is Weight.INVERSE_SQRT:
                gcall = (
                    lambda x: npcheb.chebval(x, e),
                    lambda x: npcheb.chebval(x, npcheb.chebder(e)) if i else np.zeros_like(x),
                )
            else:
                gcall = (
                    lambda x: npleg.legval(x, e),
                    lambda x: npleg.legval(x, npleg.legder(e)) if i else np.zeros_like(x),
                )
            want = quad_inner_piecewise(
                f.breakpoints, global_segments(f), gcall, weight.value, order
            )
            assert got == pytest.approx(want, abs=1e-9)

    def test_domain_error_propagates(self):
        f = PiecewisePoly(np.array([-1.5, 1.0]), [[-1.5, 1.0]])
        with pytest.raises(OracleDomainError, match=r"^moment intervals must satisfy"):
            inner_piecewise(f, cheb(0, 1), Weight.INVERSE_SQRT, 0)

    @pytest.mark.parametrize("breakpoints", [[-1.5, 1.0], [-1.0, 1.25]])
    def test_kernel_rejects_breakpoints_outside_the_interval(self, breakpoints):
        f = PiecewisePoly(np.array(breakpoints), [[0.0, 1.0]])
        with pytest.raises(InvalidDataError, match=r"^breakpoints must lie within \[-1, 1\]$"):
            project(f, build_named_basis("chebyshev-sobolev", 3, 0.125))


def _exact_antiderivative(basis: BasisKind, m: int, s):
    """A_m(s) of _antiderivative_steps in mpmath: the integral of B_m w up to s."""
    if basis is BasisKind.CHEBYSHEV:
        return -mpmath.acos(s) if m == 0 else -mpmath.sin(m * mpmath.acos(s)) / m
    return s if m == 0 else (mpmath.legendre(m + 1, s) - mpmath.legendre(m - 1, s)) / (2 * m + 1)


class TestAntiderivativeSteps:
    def test_atan_is_within_four_ulp_of_mpmath(self):
        t = np.r_[0.0, 1e-300, 1.0, np.random.default_rng(22).uniform(0.0, 1.0, 2000),
                  np.geomspace(1e-12, 1.0, 200)]
        got = poly._atan(t)
        assert got[0] == 0.0
        with mpmath.workdps(40):
            ulps = [abs(mpmath.mpf(float(g)) - mpmath.atan(float(x))) / np.spacing(float(g))
                    for x, g in zip(t[1:], got[1:])]
        assert float(max(ulps)) <= 4.0

    @pytest.mark.parametrize("basis", list(BasisKind))
    def test_steps_match_mpmath_on_short_and_end_segments(self, basis):
        # 40 rows, each to 1e-13 of the segment's weight integral (row 0), which bounds it
        ends = [(-1.0, 1.0), (-1.0, -1.0 + 1e-12), (1.0 - 2.0**-50, 1.0), (0.99999, 1.0),
                (0.3, 0.3 + 1e-9), (-0.5, -0.5 + 1e-15), (-0.999, 0.2), (0.7, 0.9)]
        steps = poly._antiderivative_steps(basis, 40, np.array(ends))
        with mpmath.workdps(60):
            for (a, b), got in zip(ends, steps):
                want = [_exact_antiderivative(basis, m, mpmath.mpf(b))
                        - _exact_antiderivative(basis, m, mpmath.mpf(a)) for m in range(40)]
                err = max(abs(mpmath.mpf(float(g)) - w) for g, w in zip(got[:, 0], want))
                assert err <= 1e-13 * want[0], (a, b)
