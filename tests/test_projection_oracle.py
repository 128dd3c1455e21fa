"""Projection against Gauss quadrature, up to the verified degree limit.

Every case normalizes a seeded random walk, projects its x and y with the
library in one call, and compares the coefficients with those of the
quadrature oracle, which rebuilds the spline from the normalized knots and
points on its own.  The same family (expansion rows and squared norms) is
used on both sides, so the check isolates the segment integrals.  At the
limit, one walk is also checked against 50-digit moments and families.
"""

import json
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from inkbasis import (
    InkTrace,
    InvalidParameterError,
    PiecewisePoly,
    Weight,
    arc_length_normalize,
    build_named_basis,
    project,
)
from inkbasis.bases import MAX_DEGREE
from conftest import make_random_trace
from oracles import mpmath_project_linear, quad_spline_inners

DEGREES = (1, 10, 30, 60, 100)

# (spline, point counts, absolute tolerance on coefficients)
CASES = (
    ("linear", (2, 8, 100, 1000), 1e-12),
    ("cubic", (3, 10, 40), 1e-12),
    ("cubic", (200, 1000), 1e-9),
)

KINDS = {
    Weight.UNIT: ("legendre", "legendre-sobolev"),
    Weight.INVERSE_SQRT: ("chebyshev", "chebyshev-sobolev"),
}


@lru_cache(maxsize=None)
def _basis(kind, degree):
    return build_named_basis(kind, degree)


@lru_cache(maxsize=None)
def _curves():
    rng = np.random.default_rng(2024)
    out = []
    for spline, counts, tol in CASES:
        for n in counts:
            trace = make_random_trace(rng, n, n)
            out.append((spline, n, tol, trace, arc_length_normalize(trace, spline)))
    return out


def test_oracle_covers_the_degree_limit():
    assert max(DEGREES) == MAX_DEGREE


@pytest.mark.parametrize("degree", DEGREES)
@pytest.mark.parametrize("weight", list(KINDS))
def test_project_matches_quadrature(weight, degree):
    classical = "chebyshev" if weight is Weight.INVERSE_SQRT else "legendre"
    failures = []
    for spline, n, tol, trace, norm in _curves():
        values = trace.points * (2.0 / norm.total_length)
        plain, deriv = quad_spline_inners(norm.knots, values, spline == "cubic", classical, degree)
        for kind in KINDS[weight]:
            basis = _basis(kind, degree)
            lam = basis.spec.lam if basis.spec.is_sobolev else 0.0
            want = (basis.expansion @ (plain + lam * deriv)) / basis.sq_norms[:, None]
            got = project(norm.curve, basis).T
            err = float(np.max(np.abs(got - want)))
            if not err <= tol:
                failures.append(f"{kind} d={degree} {spline} {n} points: {err:.2e} > {tol:g}")
    assert not failures, "\n".join(failures)


@pytest.mark.parametrize("degree", (1, 10, 40, 100))
@pytest.mark.parametrize("weight", list(KINDS))
def test_curve_projection_equals_per_coordinate_projection(weight, degree):
    # x and y on one breakpoint vector share one antiderivative table; each
    # row of the (2, d + 1) result must keep the bits of a lone coordinate
    for spline, n, _, _, norm in _curves():
        curve = norm.curve
        for kind in KINDS[weight]:
            basis = _basis(kind, degree)
            got = project(curve, basis)
            assert got.shape == (2, degree + 1)
            for i in (0, 1):
                alone = project(PiecewisePoly(curve.breakpoints, curve.local[:, i]), basis)
                assert np.array_equal(got[i], alone), f"{kind} {spline} {n} points, row {i}"


SOBOLEV_D100 = Path(__file__).parent / "data" / "sobolev_mpmath_d100.json"

# twice the worst error against 50 digits over eight 10-point walks, seeds 0..7: 1.5e-14,
# 9.7e-16, 2.8e-16 and 2.2e-16 (on seed 0, the walk below: 1.5e-14, 5.9e-16, 5.6e-17 and
# 2.8e-17).  A plain legendre coefficient is p_k (2k + 1) / 2, which multiplies the
# rounding of its moment by about 100 at k = 100
MPMATH_TOL = {"legendre": 3e-14, "chebyshev": 2e-15,
              "legendre-sobolev": 6e-16, "chebyshev-sobolev": 5e-16}


@pytest.mark.parametrize("kind", list(MPMATH_TOL))
def test_project_at_the_degree_limit_matches_50_digits(kind):
    # moments and family both in high precision: the sobolev families from the stored digits
    doc = json.loads(SOBOLEV_D100.read_text(encoding="utf-8"))
    basis = build_named_basis(kind, MAX_DEGREE, doc["lambda"])
    family = None
    if basis.spec.is_sobolev:  # row i stores the entries j = i % 2, i % 2 + 2, ..., i
        rows = [[0] * (i + 1) for i in range(MAX_DEGREE + 1)]
        for i, stored in enumerate(doc[kind]["expansion"]):
            rows[i][i % 2 :: 2] = stored
        family = rows, doc[kind]["sq_norms"]
    trace = make_random_trace(np.random.default_rng(0), 10, 10)
    norm = arc_length_normalize(trace)
    values = trace.points * (2.0 / norm.total_length)
    want = mpmath_project_linear(norm.knots, values, basis.spec.weight.value, MAX_DEGREE,
                                 basis.spec.lam, family)
    assert np.max(np.abs(project(norm.curve, basis) - want)) <= MPMATH_TOL[kind]


def _steps_spanning_decades(shortest: float, n: int = 200) -> InkTrace:
    """n points whose step lengths run geometrically from shortest up to 1 and back."""
    lengths = np.geomspace(shortest, 1.0, n // 2)
    lengths = np.r_[lengths, lengths[-2::-1]][: n - 1]
    angle = np.cumsum(np.random.default_rng(3).uniform(-1.0, 1.0, n - 1))
    steps = lengths[:, None] * np.column_stack([np.cos(angle), np.sin(angle)])
    return InkTrace(np.vstack([[0.0, 0.0], np.cumsum(steps, axis=0)]))


@pytest.mark.parametrize("family", ["legendre", "chebyshev"])
@pytest.mark.parametrize("spline, tol", [
    ("linear", 1e-12),
    # the cubic moments lose about two digits per two decades of step lengths: for
    # legendre 4e-11, 2e-9, 1e-7 and 7e-6 for shortest steps of 1e-3, 1e-5, 1e-7 and
    # 1e-9, and for chebyshev, whose shortest steps lie at s = +-1, 2e-10 up to 3e-2
    pytest.param("cubic", 1e-9, marks=pytest.mark.xfail(
        strict=True, reason="cubic projection loses accuracy on steps spanning many decades")),
])
def test_steps_spanning_nine_decades_match_quadrature(spline, tol, family):
    trace = _steps_spanning_decades(1e-9)
    norm = arc_length_normalize(trace, spline)
    values = trace.points * (2.0 / norm.total_length)
    plain, _ = quad_spline_inners(norm.knots, values, spline == "cubic", family, 10)
    basis = _basis(family, 10)
    want = (basis.expansion @ plain) / basis.sq_norms[:, None]
    assert float(np.max(np.abs(project(norm.curve, basis).T - want))) <= tol


def test_degree_limit():
    for kind in ("legendre", "chebyshev-sobolev"):
        with pytest.raises(InvalidParameterError, match="^degree 101 exceeds the verified limit 100$"):
            build_named_basis(kind, MAX_DEGREE + 1)
    assert build_named_basis("chebyshev", MAX_DEGREE).degree == MAX_DEGREE
