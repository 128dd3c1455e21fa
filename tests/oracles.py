"""Independent reference computations used to check the library.

Everything here deliberately avoids the code paths under test: inner
products are evaluated by Gauss-Legendre quadrature on function values
(with the arccos substitution for the inverse-square-root weight),
orthogonal families are rebuilt by Gram-Schmidt over monomial seeds with
quadrature inner products (and, to high degree, by modified Gram-Schmidt
with closed-form inner products), Chebyshev series are summed naively by the
forward three-term recurrence, and the point-matching distance is an
exhaustive dynamic program, the kNN vote is counted label by label, the
nearest rows come from a full scan with a stable sort, a series on a
family is summed at 40 digits by mpmath, InkML points are read one
float() per channel, and pendigits samples one line and one int() per field
at a time.

One section keeps the earlier projection route as a second reference:
closed-form monomial moments contracted with the monomial expansion of
each basis element.  It is exact in exact arithmetic but loses accuracy
from about degree 29, so tests use it at low degree only.
"""

import math
from collections import Counter
from functools import lru_cache

import numpy as np
from numpy.polynomial import chebyshev as _cheb
from numpy.polynomial import legendre as _leg
from numpy.polynomial import polynomial as _poly

from inkbasis import Weight
from inkbasis.poly import BasisKind

GL_NODES = 240


class OracleDomainError(ValueError):
    """An oracle was asked to integrate outside [-1, 1]."""


@lru_cache(maxsize=4)
def _gl_reference(n):
    return np.polynomial.legendre.leggauss(n)


def _gl(a, b, n=GL_NODES):
    """Gauss-Legendre nodes and weights scaled to [a, b]."""
    x, w = _gl_reference(n)
    mid, half = (a + b) / 2.0, (b - a) / 2.0
    return mid + half * x, half * w


def quad_inner(f, g, weight, a=-1.0, b=1.0):
    """Integral of f(x) g(x) w(x) over [a, b] for callables f, g.

    weight is "unit" or "inverse_sqrt".  The inverse-square-root weight is
    handled by substituting x = cos(theta), which removes the endpoint
    singularity exactly.
    """
    if weight == "unit":
        x, w = _gl(a, b)
        return float(np.sum(w * f(x) * g(x)))
    if weight == "inverse_sqrt":
        ta, tb = np.arccos(np.clip(b, -1, 1)), np.arccos(np.clip(a, -1, 1))
        t, w = _gl(ta, tb)
        x = np.cos(t)
        return float(np.sum(w * f(x) * g(x)))
    raise ValueError(weight)


def _series_callables(coeffs, basis):
    """(value, derivative) callables for a coefficient vector in a basis."""
    c = np.asarray(coeffs, dtype=float)
    if basis == "chebyshev":
        return (lambda x: _cheb.chebval(x, c),
                lambda x: _cheb.chebval(x, _cheb.chebder(c)) if len(c) > 1 else np.zeros_like(x))
    if basis == "legendre":
        return (lambda x: _leg.legval(x, c),
                lambda x: _leg.legval(x, _leg.legder(c)) if len(c) > 1 else np.zeros_like(x))
    if basis == "monomial":
        return (lambda x: _poly.polyval(x, c),
                lambda x: _poly.polyval(x, _poly.polyder(c)) if len(c) > 1 else np.zeros_like(x))
    raise ValueError(basis)


def quad_inner_series(cf, cg, basis, weight, lam=0.0, order=0):
    """Sobolev inner product of two coefficient vectors, by quadrature."""
    f, fp = _series_callables(cf, basis)
    g, gp = _series_callables(cg, basis)
    out = quad_inner(f, g, weight)
    if order >= 1 and lam != 0.0:
        out += lam * quad_inner(fp, gp, weight)
    return out


def quad_inner_piecewise(breaks, seg_coeffs, g, weight, deriv_order=0):
    """Piecewise integral sum_i int f^(k) g^(k) w over [breaks[i], breaks[i+1]].

    seg_coeffs: list of global-parameter monomial coefficient arrays, one per
    segment.  g is a callable pair (value, derivative) or a plain callable
    (deriv_order must then be 0).
    """
    if callable(g):
        gv, gd = g, None
    else:
        gv, gd = g
    total = 0.0
    for i, c in enumerate(seg_coeffs):
        c = np.asarray(c, dtype=float)
        if deriv_order == 1:
            c = _poly.polyder(c) if len(c) > 1 else np.zeros(1)
            gg = gd
        else:
            gg = gv
        total += quad_inner(lambda x, c=c: _poly.polyval(x, c), gg,
                            weight, breaks[i], breaks[i + 1])
    return total


def global_segments(f):
    """Global-parameter monomial coefficients of f per segment, zero-padded to (nseg, 4).

    Each local row, a polynomial in t = s - s_j, is composed with
    t = s - s_j by numpy's Polynomial arithmetic.
    """
    out = np.zeros((len(f.local), 4))
    for j, (row, s0) in enumerate(zip(f.local, f.breakpoints)):
        coef = _poly.Polynomial(row)(_poly.Polynomial([-s0, 1.0])).coef
        out[j, : len(coef)] = coef
    return out


def piecewise_derivative_eval(f, x):
    """Evaluate the (possibly discontinuous) derivative of a piecewise poly."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    bp = f.breakpoints
    idx = np.clip(np.searchsorted(bp, xs, side="right") - 1, 0, len(f.local) - 1)
    c, t = f.local[idx], xs - bp[idx]
    out = np.zeros_like(xs)
    for u in range(1, c.shape[1]):
        out += u * c[:, u] * t ** (u - 1)
    return out


def naive_cheb_eval(coeffs, x):
    """Term-by-term Chebyshev sum via the forward recurrence (no Clenshaw)."""
    x = np.asarray(x, dtype=float)
    total = np.zeros_like(x)
    t_prev, t_cur = np.ones_like(x), x.copy()
    for n, c in enumerate(np.asarray(coeffs, dtype=float)):
        if n == 0:
            tn = t_prev
        elif n == 1:
            tn = t_cur
        else:
            tn = 2 * x * t_cur - t_prev
            t_prev, t_cur = t_cur, tn
        total = total + c * tn
    return total


def naive_legendre_eval(coeffs, x):
    """Term-by-term Legendre sum via the forward Bonnet recurrence."""
    x = np.asarray(x, dtype=float)
    total = np.zeros_like(x)
    p_prev, p_cur = np.ones_like(x), x.copy()
    for n, c in enumerate(np.asarray(coeffs, dtype=float)):
        if n == 0:
            pn = p_prev
        elif n == 1:
            pn = p_cur
        else:
            pn = ((2 * n - 1) * x * p_cur - (n - 1) * p_prev) / n
            p_prev, p_cur = p_cur, pn
        total = total + c * pn
    return total


def gram_schmidt_by_quadrature(weight, lam, order, degree):
    """Rebuild the orthogonal family independently.

    Classical Gram-Schmidt over monomial seeds {1, x, x^2, ...} with the
    quadrature inner product, with one re-orthogonalization sweep.  Returns
    (expansion, sq_norms) where expansion row i holds the coefficients of the
    i-th family member in the classical basis matching the weight (Chebyshev
    for inverse_sqrt, Legendre for unit), scaled so the diagonal is 1.
    """
    def ip(ca, cb):
        return quad_inner_series(ca, cb, "monomial", weight, lam, order)

    vecs = []
    for i in range(degree + 1):
        v = np.zeros(i + 1)
        v[i] = 1.0
        for _ in range(2):
            for u in vecs:
                uu = np.zeros(i + 1)
                uu[: len(u)] = u
                v = v - (ip(v, uu) / ip(uu, uu)) * uu
        vecs.append(v)

    to_classical = _cheb.poly2cheb if weight == "inverse_sqrt" else _leg.poly2leg
    expansion = np.zeros((degree + 1, degree + 1))
    sq_norms = np.zeros(degree + 1)
    for i, v in enumerate(vecs):
        c = to_classical(v)
        c = c / c[-1]
        expansion[i, : len(c)] = c
        back = _cheb.cheb2poly(c) if weight == "inverse_sqrt" else _leg.leg2poly(c)
        sq_norms[i] = ip(back, back)
    return expansion, sq_norms


def _classical_sq_norms(weight, n):
    if weight == "inverse_sqrt":
        return np.r_[np.pi, np.full(n - 1, np.pi / 2.0)]
    return 2.0 / (2 * np.arange(n) + 1)


def closed_form_sobolev_gram(weight, lam, rows):
    """Pairwise <f, g> + lam <f', g'> of the classical series in rows.

    Each term is the diagonal classical form, applied to the rows and to
    their numpy derivatives.
    """
    der = _cheb.chebder if weight == "inverse_sqrt" else _leg.legder

    def diag_form(a):
        return (a * _classical_sq_norms(weight, a.shape[1])) @ a.T

    rows = np.asarray(rows, dtype=float)
    return diag_form(rows) + lam * diag_form(der(rows, axis=1))


def gram_schmidt_closed_form(weight, lam, degree):
    """Rebuild a Sobolev family (order 1) by modified Gram-Schmidt.

    Works over the classical elements with the closed-form inner product
    <f, g> + lam <f', g'>, each term evaluated on the series and on their
    numpy derivatives by the diagonal classical form, never through a Gram
    matrix.  One re-orthogonalization pass; rows are scaled to a unit
    diagonal.  Returns (expansion, sq_norms) like gram_schmidt_by_quadrature.
    """
    der = _cheb.chebder if weight == "inverse_sqrt" else _leg.legder
    n = degree + 1
    expansion = np.zeros((n, n))
    derivs = np.zeros((n, max(n - 1, 1)))  # derivs[j] = der(expansion[j])
    sq_norms = np.zeros(n)
    h = _classical_sq_norms(weight, n)
    hd = h[: derivs.shape[1]]

    def ip(u, du, v, dv):
        return float(np.dot(h, u * v) + lam * np.dot(hd, du * dv))

    for i in range(n):
        v = np.zeros(n)
        v[i] = 1.0
        dv = der(v)
        for _ in range(2):  # second pass restores orthogonality lost to rounding
            for j in range(i):
                coef = ip(v, dv, expansion[j], derivs[j]) / sq_norms[j]
                v -= coef * expansion[j]
                dv -= coef * derivs[j]  # derivative is linear
        scale = v[i]
        expansion[i] = v / scale
        derivs[i] = dv / scale
        sq_norms[i] = ip(expansion[i], derivs[i], expansion[i], derivs[i])
    return expansion, sq_norms


def _mpmath_classical(weight, n):
    """(h, der) of the classical family of weight, at mpmath's working precision.

    h[k] = <B_k, B_k> for k < n, and B_k' = sum of der(k, m) B_m over
    m = k - 1, k - 3, ..., >= 0.
    """
    import mpmath

    if weight == "inverse_sqrt":  # T_k' = 2k (T_{k-1} + T_{k-3} + ...), the T_0 term halved
        return [mpmath.pi] + [mpmath.pi / 2] * (n - 1), lambda k, m: k if m == 0 else 2 * k
    # P_k' = sum of (2m + 1) P_m
    return [mpmath.mpf(2) / (2 * k + 1) for k in range(n)], lambda k, m: 2 * m + 1


def mpmath_sobolev_basis(weight, lam, degree, dps=50):
    """The Sobolev family (order 1) by an mpmath LDL^T of the classical Gram matrix.

    G = diag(h) + lam D diag(h) D^T over the classical elements, with D the
    exact derivative matrix (B_k' = sum_m D[k, m] B_m), is factored as
    L diag(s) L^T at dps decimal digits; the expansion is L^-1 and the
    squared norms are s.  This is the dense construction, not the library's
    coherent-pair recurrence.  Returns (expansion, sq_norms) as lists of mpf,
    expansion[i][j] for j <= i.
    """
    import mpmath

    with mpmath.workdps(dps):
        n = degree + 1
        lam = mpmath.mpf(lam)
        h, der = _mpmath_classical(weight, n)

        def gram(i, j):
            total = sum((der(i, m) * der(j, m) * h[m] for m in range(i - 1, -1, -2)
                         if m < j), mpmath.mpf(0))
            return (h[i] if i == j else 0) + lam * total

        # G[i][j] is zero unless i - j is even, and so are L and its inverse
        s, L = [], [[mpmath.mpf(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i % 2, i, 2):
                acc = gram(i, j) - sum((L[i][k] * L[j][k] * s[k] for k in range(j % 2, j, 2)),
                                       mpmath.mpf(0))
                L[i][j] = acc / s[j]
            s.append(gram(i, i) - sum((L[i][k] ** 2 * s[k] for k in range(i % 2, i, 2)),
                                      mpmath.mpf(0)))
        E = [[mpmath.mpf(0)] * n for _ in range(n)]
        for i in range(n):
            E[i][i] = mpmath.mpf(1)
            for j in range(i - 2, -1, -2):
                E[i][j] = -sum((L[i][k] * E[k][j] for k in range(j, i, 2)), mpmath.mpf(0))
        return E, s


def mpmath_project_linear(knots, values, weight, degree, lam=0.0, family=None, dps=50):
    """Projection coefficients (m, degree + 1) of a piecewise-linear curve, at dps digits.

    The curve interpolates values (n, m) at knots (n,) in [-1, 1], both read
    as the exact values of their doubles.  Its moments p_k (of f B_k w) and
    q_k (of f' B_k w) are closed forms: for the inverse-sqrt weight, in
    t = arccos s, where a segment's a + b s against T_k is (a + b cos t)
    cos kt, integrated by sin; for the unit weight by the integral of P_k,
    (P_{k+1} - P_{k-1}) / (2k + 1), and Bonnet's identity for s P_k, with P_k
    from mpmath.legendre.  A coefficient is <f, S_i> / <S_i, S_i>, <f, S_i> =
    sum_j E[i][j] (p_j + lam sum_m der(j, m) q_m), with E and <S_i, S_i> of
    family, (expansion rows j <= i, sq_norms) as numbers or digit strings, or
    the classical elements and their norms when family is None.  Returns floats.
    """
    import mpmath

    n = degree + 1
    with mpmath.workdps(dps):
        h, der = _mpmath_classical(weight, n)
        s = [mpmath.mpf(float(k)) for k in knots]
        v = [[mpmath.mpf(float(x)) for x in row] for row in np.asarray(values)]
        if weight == "inverse_sqrt":
            t = [mpmath.acos(x) for x in s]

            def ints(j, a, b):  # integral of T_j w over [s_a, s_b], j >= -1
                if j == 0:
                    return t[a] - t[b]
                return (mpmath.sin(abs(j) * t[a]) - mpmath.sin(abs(j) * t[b])) / abs(j)

            def times_s(i, k):  # integral of s T_k w, by s T_k = (T_{k-1} + T_{k+1}) / 2
                return (i[k - 1] + i[k + 1]) / 2
        else:
            P = [[mpmath.legendre(j, x) for j in range(n + 2)] for x in s]

            def ints(j, a, b):  # integral of P_j over [s_a, s_b]
                if j <= 0:
                    return s[b] - s[a] if j == 0 else mpmath.mpf(0)
                g = [(P[c][j + 1] - P[c][j - 1]) / (2 * j + 1) for c in (a, b)]
                return g[1] - g[0]

            def times_s(i, k):  # integral of s P_k, by Bonnet's (k + 1) P_{k+1} + k P_{k-1}
                return ((k + 1) * i[k + 1] + k * i[k - 1]) / (2 * k + 1)
        E, norms = [[0] * i + [1] for i in range(n)], h
        if family is not None:
            E = [list(map(mpmath.mpf, row)) for row in family[0]]
            norms = list(map(mpmath.mpf, family[1]))
        out = np.empty((len(v[0]), n))
        for c in range(len(v[0])):
            p, q = [mpmath.mpf(0)] * n, [mpmath.mpf(0)] * n
            for a in range(len(s) - 1):
                slope = (v[a + 1][c] - v[a][c]) / (s[a + 1] - s[a])
                i = {j: ints(j, a, a + 1) for j in range(-1, n + 1)}  # i[-1]: T_1's, or 0
                for k in range(n):
                    p[k] += (v[a][c] - slope * s[a]) * i[k] + slope * times_s(i, k)
                    q[k] += slope * i[k]
            u = [p[j] + lam * sum((der(j, m) * q[m] for m in range(j - 1, -1, -2)),
                                  mpmath.mpf(0)) for j in range(n)]
            for r in range(n):
                out[c, r] = float(mpmath.fsum(e * x for e, x in zip(E[r], u)) / norms[r])
    return out


def mpmath_series_sums(rows, basis, s, dps=40):
    """Every running sum sum_{k <= d} rows[c, k] S_k(s_j) of a series on basis, at dps digits.

    rows is (m, D + 1) and s (n,); the result is a (D + 1, m, n) object array
    of mpf.  The family is the one basis's doubles define: B_k by its
    three-term recurrence, Q_k = B_k - b_k B_{k-2} and S_k = Q_k - ell_k
    S_{k-2}, with b, ell, the coefficients and the points read as the exact
    values of their doubles, so only the double rounding of a sum is measured.
    """
    import mpmath

    legendre = basis.classical_basis is BasisKind.LEGENDRE
    top = rows.shape[-1] - 1
    with mpmath.workdps(dps):
        b, ell = ([mpmath.mpf(float(v)) for v in arr] for arr in (basis.b, basis.ell))
        a = [[mpmath.mpf(float(v)) for v in row] for row in rows]
        out = np.empty((top + 1, len(rows), len(s)), dtype=object)
        for j, x in enumerate(map(mpmath.mpf, map(float, s))):
            B, S, total = [], [], [mpmath.mpf(0)] * len(rows)
            for k in range(top + 1):
                if k < 2:
                    B.append(x if k else mpmath.mpf(1))
                elif legendre:
                    B.append(((2 * k - 1) * x * B[k - 1] - (k - 1) * B[k - 2]) / k)
                else:
                    B.append(2 * x * B[k - 1] - B[k - 2])
                q = B[k] - b[k] * B[k - 2] if k >= 2 else B[k]
                S.append(q - ell[k] * S[k - 2] if k >= 2 else q)
                total = [t + row[k] * S[k] for t, row in zip(total, a)]
                out[k, :, j] = total
    return out


def inkml_points(text):
    """The (n, 2) points of an InkML trace element's text, one float() per channel.

    Comma-separated points of whitespace-separated channels, of which the
    first two are read; a blank point is skipped.  The first point with one
    channel, or with a first or second channel float() refuses, raises
    ParseError with the message parse_inkml gives.
    """
    from inkbasis import ParseError

    pts = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        channels = chunk.split()
        if len(channels) < 2:
            raise ParseError(f"trace point needs x and y: {chunk!r}")
        try:
            pts.append((float(channels[0]), float(channels[1])))
        except ValueError:
            raise ParseError(f"non-numeric coordinate in {chunk!r}") from None
    return np.array(pts, dtype=float).reshape(-1, 2)


def pendigits_traces(source):
    """The traces of pendigits text or lines, read line by line: the reference for parse_pendigits.

    Blank lines are skipped; each other line is 17 fields, stripped and read
    by int(), the first 16 as float (x, y) pairs and the last as the label.
    The first line that is not a string or not such a sample raises
    ParseError with its line number and the message parse_pendigits gives.
    """
    from inkbasis import InkTrace, InvalidDataError, ParseError

    lines = source.splitlines() if isinstance(source, str) else source
    traces = []
    for lineno, raw in enumerate(lines, start=1):
        if not isinstance(raw, str):
            raise ParseError(f"a line must be a string, got {type(raw).__name__}", lineno)
        line = raw.strip()
        if not line:
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != 17:
            raise ParseError(f"expected 17 fields, got {len(fields)}", lineno)
        try:
            values = [int(f) for f in fields]
            pts = np.array(values[:16], dtype=float).reshape(8, 2)
        except ValueError as exc:
            raise ParseError(f"non-integer field: {exc}", lineno) from None
        except OverflowError:
            raise ParseError("coordinate too large for a float", lineno) from None
        try:
            traces.append(InkTrace(pts, label=str(values[16])))
        except InvalidDataError as exc:
            raise ParseError(str(exc), lineno) from None
    return traces


def dp_match_distance_sq(points_a, points_b):
    """Minimum summed squared distance over monotone point correspondences.

    Matches every index i of the longer sequence to phi(i) in the shorter
    one, phi non-decreasing with phi(0) = 0 and phi(m) = n, by exhaustive
    dynamic programming.  Intended for tiny traces only.
    """
    A = np.asarray(points_a, dtype=float)
    B = np.asarray(points_b, dtype=float)
    if len(A) < len(B):
        A, B = B, A
    m, n = len(A), len(B)
    d = ((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=2)

    cost = np.full((m, n), np.inf)
    cost[0, 0] = d[0, 0]
    for i in range(1, m):
        best_prefix = np.minimum.accumulate(cost[i - 1])
        cost[i] = d[i] + best_prefix
    return float(cost[m - 1, n - 1])


# --- monomial-moment projection (reference only) ----------------------------


def _vote(labels, dists):
    """Majority label; a count tie goes to the smaller summed distance, then the smaller label.

    The reference for the vote in inkbasis.classify: each tied label's
    distances are added in neighbour order, starting from 0.0.
    """
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


def nearest_rows(xy, queries, w, k):
    """The unscreened reference for classify._nearest_rows: a full scan per query.

    Every row's distance comes from the library's own kernel,
    classify._weighted_sq, since the point is bit-identical neighbours and
    distances; the k nearest are then a stable argsort's first k, so equal
    distances keep dataset order and NaNs sort last.
    """
    from inkbasis.classify import _weighted_sq

    near = np.empty((len(queries), k), dtype=np.intp)
    near_dists = np.empty((len(queries), k))
    for r, q in enumerate(queries):
        dist = _weighted_sq(xy, q, w)
        near[r] = np.argsort(dist, kind="stable")[:k]
        near_dists[r] = dist[near[r]]
    return near, near_dists


def weighted_moment(k, a, b, weight):
    """Closed-form weighted moment of x^k over [a, b] within [-1, 1].

    Unit weight gives the plain integral of x^k.  The inverse-square-root
    weight integrates x^k / sqrt(1 - x^2), using the recurrence

        I_k = ((k - 1) I_{k-2} - [x^{k-1} sqrt(1 - x^2)]_a^b) / k

    seeded with I_0 = arcsin(b) - arcsin(a) and I_1 = sqrt(1-a^2) - sqrt(1-b^2).
    """
    if k < 0:
        raise ValueError("moment order must be non-negative")
    return float(moment_table(k, np.array([a]), np.array([b]), weight)[k, 0])


def moment_table(kmax, lo, hi, weight):
    """M[k, j] = weighted moment of x^k over [lo[j], hi[j]], k = 0..kmax."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if np.any(lo < -1.0) or np.any(hi > 1.0) or np.any(lo > hi):
        raise OracleDomainError("moment intervals must satisfy -1 <= a <= b <= 1")
    weight = Weight(weight)
    out = np.empty((kmax + 1, len(lo)))
    if weight is Weight.UNIT:
        pl, ph = lo.copy(), hi.copy()  # lo^(k+1), hi^(k+1)
        for k in range(kmax + 1):
            out[k] = (ph - pl) / (k + 1)
            pl *= lo
            ph *= hi
        return out
    ra = np.sqrt(np.maximum(0.0, 1.0 - lo * lo))
    rb = np.sqrt(np.maximum(0.0, 1.0 - hi * hi))
    out[0] = np.arcsin(hi) - np.arcsin(lo)
    if kmax >= 1:
        out[1] = ra - rb
    pa, pb = lo.copy(), hi.copy()  # lo^(k-1), hi^(k-1)
    for k in range(2, kmax + 1):
        out[k] = ((k - 1) * out[k - 2] - (pb * rb - pa * ra)) / k
        pa *= lo
        pb *= hi
    return out


def _segment_coeffs(f, deriv_order):
    """Global-parameter monomial coefficients of f or f' per segment."""
    c = global_segments(f)
    if deriv_order == 0:
        return c
    return c[:, 1:] * np.arange(1, 4)


def inner_piecewise(f, g, weight, deriv_order=0):
    """Sum over segments of the integral of f^(k) g^(k) w, k = deriv_order.

    g is a DensePoly; numpy's leg2poly / cheb2poly convert it to monomials
    and every segment integral expands through the moment table.
    """
    if deriv_order not in (0, 1):
        raise ValueError("deriv_order must be 0 or 1")
    to_monomial = _cheb.cheb2poly if g.basis is BasisKind.CHEBYSHEV else _leg.leg2poly
    gc = to_monomial(g.coeffs)
    if deriv_order == 1:
        gc = _poly.polyder(gc)
    segc = _segment_coeffs(f, deriv_order)
    lo, hi = f.breakpoints[:-1], f.breakpoints[1:]
    kmax = (segc.shape[1] - 1) + (len(gc) - 1)
    table = moment_table(kmax, lo, hi, weight)
    total = 0.0
    for j in range(len(lo)):
        prod = np.convolve(segc[j], gc)
        total += math.fsum(prod * table[: len(prod), j])  # exactly rounded, with no BLAS
    return total


def project_by_rows(f, basis):
    """Projection with one scalar inner_piecewise call per family member."""
    spec = basis.spec
    out = np.zeros(basis.degree + 1)
    for i in range(basis.degree + 1):
        row = basis.member(i)
        val = inner_piecewise(f, row, spec.weight, 0)
        if spec.is_sobolev:
            val += spec.lam * inner_piecewise(f, row, spec.weight, 1)
        out[i] = val / basis.sq_norms[i]
    return out



def quad_spline_inners(knots, values, cubic, basis, degree, chunk=64):
    """Reference for projection: Gauss quadrature segment by segment.

    The spline through (knots, values) is rebuilt here: per-segment linear
    interpolation, or scipy's natural CubicSpline.  values may hold several
    columns.  Returns (plain, deriv), each of shape (degree + 1, ncols):
    the integrals of f B_k w and of f' B_k' w for the classical family
    named by basis ("legendre" or "chebyshev") under its own weight.
    Unit-weight integrands are polynomials, integrated exactly; the
    Chebyshev weight is integrated in theta = arccos(x) with enough nodes
    for the highest frequency on the widest segment.
    """
    from scipy.interpolate import CubicSpline

    knots = np.asarray(knots, dtype=float)
    values = np.asarray(values, dtype=float).reshape(len(knots), -1)
    # the mean is integrated exactly (only B_0 sees a constant), which keeps
    # the rounding of the quadrature sums proportional to the curve's size
    mean = values.mean(axis=0)
    values = values - mean
    cheb = basis == "chebyshev"
    if cheb:
        lo_all, hi_all = np.arccos(knots[1:]), np.arccos(knots[:-1])
        n = int(0.5 * (degree + 4) * np.max(hi_all - lo_all) / 2.0) + 40
    else:
        lo_all, hi_all = knots[:-1], knots[1:]
        n = degree // 2 + 4
    gx, gw = np.polynomial.legendre.leggauss(n)
    spline = CubicSpline(knots, values, bc_type="natural") if cubic else None
    slopes = np.diff(values, axis=0) / np.diff(knots)[:, None]
    j = np.arange(degree + 1)
    dmat = _leg.legder(np.eye(degree + 1), axis=1)
    plain = np.zeros((degree + 1, values.shape[1]))
    deriv = np.zeros_like(plain)
    for start in range(0, len(knots) - 1, chunk):
        seg = slice(start, start + chunk)
        lo, hi = lo_all[seg], hi_all[seg]
        half = (hi - lo) / 2.0
        nodes = ((hi + lo) / 2.0)[:, None] + half[:, None] * gx
        weights = half[:, None] * gw
        x = np.cos(nodes) if cheb else nodes
        if cubic:
            f, fp = spline(x), spline(x, 1)
        else:
            fp = np.broadcast_to(slopes[seg, None, :], x.shape + (values.shape[1],))
            f = values[:-1][seg, None, :] + (x - knots[:-1][seg, None])[..., None] * fp
        if cheb:
            B = np.cos(j * nodes[..., None])
            dB = j * np.sin(j * nodes[..., None]) / np.sin(nodes[..., None])
        else:
            B = _leg.legvander(nodes, degree)
            dB = B[..., :-1] @ dmat.T
        plain += np.einsum("sn,snc,snj->jc", weights, f, B)
        deriv += np.einsum("sn,snc,snj->jc", weights, fp, dB)
    plain[0] += mean * (np.pi if cheb else 2.0)
    return plain, deriv
