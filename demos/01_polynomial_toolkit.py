#!/usr/bin/env python3
"""Tour of the polynomial core: bases, evaluation, closed-form integrals.

Everything downstream rests on two facts demonstrated here:
  * series in the classical bases evaluate stably (Clenshaw / Bonnet),
  * weighted integrals of piecewise polynomials need no quadrature: each
    weighted basis element has a closed-form antiderivative.
"""

import numpy as np

from inkbasis import BasisKind, DensePoly, PiecewisePoly, build_named_basis, project

# --- dense polynomials in the two classical bases --------------------------
# The parabola 2x^2 - 1 is exactly T_2, and (4 P_2 - 1) / 3 in Legendre form.
p_cheb = DensePoly(BasisKind.CHEBYSHEV, [0, 0, 1])
p_leg = DensePoly(BasisKind.LEGENDRE, [-1 / 3, 0, 4 / 3])
xs = np.linspace(-1, 1, 5)
print("2x^2 - 1 at", xs)
print("  chebyshev:", p_cheb(xs))
print("  legendre :", p_leg(xs))
print("  direct   :", 2 * xs**2 - 1)

# --- Chebyshev evaluation ----------------------------------------------------
# A degree-30 series evaluates to full precision in one backward (Clenshaw)
# pass; compare the forward sum of T_k = cos(k theta).
rng = np.random.default_rng(1)
c = rng.uniform(-1, 1, 31)
series = DensePoly(BasisKind.CHEBYSHEV, c)
print("\ndegree-30 series at x=0.3:", series(0.3))
print("  sum of c_k cos(k arccos 0.3):", float(c @ np.cos(np.arange(31) * np.arccos(0.3))))

# --- derivatives stay in their basis --------------------------------------
print("\nd/dx in chebyshev coefficients:")
print("  T_3        ->", DensePoly(BasisKind.CHEBYSHEV, [0, 0, 0, 1]).derivative().coeffs)
print("  T_2        ->", DensePoly(BasisKind.CHEBYSHEV, [0, 0, 1]).derivative().coeffs)

# --- closed-form antiderivatives ---------------------------------------------
# Each weighted basis element integrates in closed form:
#   Legendre:   the integral of P_m is (P_{m+1} - P_{m-1}) / (2m + 1)
#   Chebyshev:  the integral of T_m / sqrt(1 - s^2) is -sin(m theta) / m, s = cos(theta)
m = 4
e = np.eye(m + 2)
antiderivative = DensePoly(BasisKind.LEGENDRE, (e[m + 1] - e[m - 1]) / (2 * m + 1))
print(f"\nd/ds of (P_{m + 1} - P_{m - 1}) / {2 * m + 1} in legendre coefficients:",
      antiderivative.derivative().coeffs)         # exactly P_4

theta = np.array([2.5, 0.4])                       # s from -0.80 to 0.92
closed = -np.sin(m * theta[1]) / m + np.sin(m * theta[0]) / m
edges = np.linspace(theta[1], theta[0], 100001)   # midpoint rule in theta
midpoint = np.sum(np.cos(m * (edges[1:] + edges[:-1]) / 2)) * (edges[1] - edges[0])
print(f"integral of T_{m} / sqrt(1 - s^2) over [{np.cos(theta[0]):.2f}, {np.cos(theta[1]):.2f}]:")
print(f"  closed form {closed:+.12f}   midpoint sum {midpoint:+.12f}")

# --- piecewise polynomials and their inner products -------------------------
# Segments are stored in local coordinates, coefficient u multiplying
# (s - s_j)^u.  A hat function on [-1, 0, 1]:
hat = PiecewisePoly(
    [-1.0, 0.0, 1.0],
    [[0.0, 1.0],     # 0 + (s + 1) on [-1, 0]
     [1.0, -1.0]],   # 1 - s       on [0, 1]
)
print("\nhat local coefficients:\n", hat.local)

# Against T_0, T_1, T_2 under the inverse-sqrt weight: the three-term
# recurrence s T_k = (T_{k+1} + T_{k-1}) / 2 turns each (s - s_j) factor into
# neighbouring antiderivative values, so no integration routine runs.  The
# plain Chebyshev basis is T_0, T_1, T_2 themselves, so project returns
# <hat, T_k> / <T_k, T_k>, and the squared norms give the integrals back.
chebyshev = build_named_basis("chebyshev", 2)
print("hat function against T_0, T_1, T_2 (inverse-sqrt weight):")
for i, v in enumerate(project(hat, chebyshev) * chebyshev.sq_norms):
    print(f"  <hat, T_{i}> = {v:+.12f}")
print("(T_1 vanishes by symmetry; the others are (pi-2) and -2/3.)")

# --- several functions on one set of breakpoints ----------------------------
# A plane curve keeps x and y on one breakpoint vector: local[j, i, u] is
# coefficient u of function i on segment j.  Here x is the hat and y = s.
curve = PiecewisePoly(
    [-1.0, 0.0, 1.0],
    [[[0.0, 1.0], [-1.0, 1.0]],     # x = 0 + (s + 1), y = -1 + (s + 1) on [-1, 0]
     [[1.0, -1.0], [0.0, 1.0]]],    # x = 1 - s,       y = s            on [0, 1]
)
print("\n(x, y) at s = -0.5, 0.5:\n", curve(np.array([-0.5, 0.5])))
# One call integrates both rows against T_0, T_1, T_2, sharing one table of
# antiderivative values: a (2, 3) array whose first row is the hat's.
both = project(curve, chebyshev) * chebyshev.sq_norms
print("curve against T_0, T_1, T_2:\n", np.array2string(both, precision=12, suppress_small=True))
print("(the second row is <s, T_1> = pi/2 and zeros.)")
