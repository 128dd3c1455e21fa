"""Weighted and derivative-augmented inner products, and the orthogonal
polynomial families they induce.

Four named families are supported on [-1, 1]:

  ``legendre``            unit weight
  ``chebyshev``           inverse-square-root weight
  ``legendre-sobolev``    unit weight plus a first-derivative term
  ``chebyshev-sobolev``   inverse-sqrt weight plus a first-derivative term

Each weight forms a coherent pair with itself: with B_k its classical
elements, Q_k = B_k - b_k B_{k-2} has derivative c_k B_{k-1}, so the Gram
matrix of the Q_k has only the diagonals |i - j| in {0, 2} and its LDL^T
factor is the recurrence S_k = Q_k - ell_k S_{k-2}.  That recurrence, in a
fixed elementwise order, builds, projects, evaluates and synthesizes.  Each
S_k has leading classical coefficient one, so the families become the
classical ones as lam goes to zero, and a family is a prefix of any of
higher degree: the first d + 1 coefficients of a projection, the polynomial
that synthesize makes of them on the higher basis, and their sum at any
points, are bit for bit those of the basis of degree d.  One kernel,
_evaluate, sums a series at points: a single walk over k gives the running
sum at every degree, for one set of coefficients or a bucket, within
2 (d + 1) u sum |a_k| of the exact sum on [-1, 1] (u = 2^-53; a bound
checked against mpmath, not proven).
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    BasisMismatchError, InvalidDataError, InvalidParameterError, ParseError, _enum_member,
    open_utf8,
)
from .poly import (
    BasisKind, DensePoly, PiecewisePoly, Weight, _blocks, _classical, _frozen, _moments,
    _real_array,
)

DEFAULT_LAMBDA = 0.125
MAX_DEGREE = 100  # largest degree the projection is verified at against quadrature

BASIS_KINDS = ("legendre", "chebyshev", "legendre-sobolev", "chebyshev-sobolev")


def _integer(value, name: str) -> int:
    """value as an int; a bool or a value of a non-integral type raises InvalidParameterError."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    raise InvalidParameterError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class InnerProductSpec:
    """Weight, derivative weight, and derivative order of an inner product.

    lam = 0 means the plain weighted inner product regardless of order, and
    order = 0 drops the derivative term regardless of lam.  The order is 0 or 1.
    """

    weight: Weight
    lam: float = 0.0
    order: int = 1

    def __post_init__(self):
        if isinstance(self.lam, bool) or not isinstance(self.lam, numbers.Real):
            raise InvalidParameterError(f"lam must be a real number, got {self.lam!r}")
        object.__setattr__(self, "weight", _enum_member(Weight, self.weight, "weight"))
        try:
            object.__setattr__(self, "lam", float(self.lam))
        except OverflowError:  # an integer past float's range
            raise InvalidParameterError("lam must be finite and non-negative, got an integer "
                                        "too large for a float") from None
        object.__setattr__(self, "order", _integer(self.order, "order"))
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise InvalidParameterError(f"lam must be finite and non-negative, got {self.lam}")
        if not 0 <= self.order <= 1:
            raise InvalidParameterError(f"order {self.order} not implemented")

    @property
    def is_sobolev(self) -> bool:
        return self.order >= 1 and self.lam > 0.0

    @property
    def classical_basis(self) -> BasisKind:
        return (
            BasisKind.CHEBYSHEV
            if self.weight is Weight.INVERSE_SQRT
            else BasisKind.LEGENDRE
        )

    @property
    def kind_name(self) -> str:
        base = "chebyshev" if self.weight is Weight.INVERSE_SQRT else "legendre"
        return f"{base}-sobolev" if self.is_sobolev else base


def spec_for_kind(kind: str, lam: float = DEFAULT_LAMBDA) -> InnerProductSpec:
    """Inner-product spec for one of the four named basis kinds.

    Every kind refuses a lam that InnerProductSpec refuses; the plain kinds then drop it.
    """
    if kind not in BASIS_KINDS:
        raise InvalidParameterError(f"unknown basis kind {kind!r}; expected one of {BASIS_KINDS}")
    weight = Weight.INVERSE_SQRT if kind.startswith("chebyshev") else Weight.UNIT
    spec = InnerProductSpec(weight, lam, 1)
    return spec if kind.endswith("-sobolev") else InnerProductSpec(weight, 0.0, 0)


def _coherent_pair(spec: InnerProductSpec, n: int) -> tuple[np.ndarray, ...]:
    """(h, b, c, g) for k < n: h_k = <B_k, B_k>, Q_k = B_k - b_k B_{k-2} with Q_k' = c_k
    B_{k-1}, and g_k = <Q_k, Q_k> = h_k + b_k^2 h_{k-2} + lam c_k^2 h_{k-1}.

    A lam for which g is not finite raises InvalidParameterError.
    """
    k = np.arange(n, dtype=float)
    b, c = np.zeros(n), np.zeros(n)
    if spec.weight is Weight.INVERSE_SQRT:
        h = np.r_[math.pi, np.full(n - 1, math.pi / 2.0)]
        if spec.is_sobolev:  # (T_k - k/(k-2) T_{k-2})' = 2k T_{k-1} (k >= 3), T_2' = 4 T_1
            b[3:] = k[3:] / (k[3:] - 2.0)
            c[1:] = 2.0 * k[1:]
            c[1:2] = 1.0
    else:
        h = 2.0 / (2.0 * k + 1.0)
        if spec.is_sobolev:  # (P_k - P_{k-2})' = (2k - 1) P_{k-1}
            b[2:] = 1.0
            c[1:] = 2.0 * k[1:] - 1.0
    g = h.copy()
    g[2:] += b[2:] * b[2:] * h[:-2]
    with np.errstate(over="ignore"):  # an overflow is refused below
        g[1:] += spec.lam * (c[1:] * c[1:] * h[:-1])
    if not np.isfinite(g).all():
        raise InvalidParameterError(f"lambda {spec.lam!r} is too large at degree {n - 1}: "
                                    "the Gram matrix is not finite")
    return h, b, c, g


def _check_spec(spec) -> None:
    """Refuse a spec that is not an InnerProductSpec, before any work that would read it."""
    if not isinstance(spec, InnerProductSpec):
        raise InvalidParameterError(f"spec must be an InnerProductSpec, got {type(spec).__name__}")


def inner_closed_form(f: DensePoly, g: DensePoly, spec: InnerProductSpec) -> float:
    """sum_k h_k f_k g_k + lam sum_k h_k f'_k g'_k for series in the weight's classical basis.

    No integration is performed; a lam that a basis of the operands' degree
    refuses is refused here too.
    """
    for name, value in (("f", f), ("g", g)):
        if not isinstance(value, DensePoly):
            raise InvalidDataError(f"{name} must be a DensePoly, got {type(value).__name__}")
    _check_spec(spec)
    cb = spec.classical_basis
    if f.basis is not cb or g.basis is not cb:
        raise BasisMismatchError(
            f"operands must both be in the {cb.value} basis for this weight"
        )
    h = _coherent_pair(spec, max(f.degree, g.degree) + 1)[0]
    m = min(f.degree, g.degree) + 1
    total = float((h[:m] * f.coeffs[:m] * g.coeffs[:m]).sum())
    if spec.is_sobolev and m > 1:
        df, dg = f.derivative().coeffs, g.derivative().coeffs
        total += spec.lam * float((h[: m - 1] * df[: m - 1] * dg[: m - 1]).sum())
    return total


@dataclass(frozen=True)
class OrthoBasis:
    """The orthogonal family S_0..S_degree of spec, by the recurrence of its coherent pair.

    ell_k = <Q_k, Q_{k-2}> / sq_norms[k - 2] and sq_norms[k] = <S_k, S_k>; a
    plain spec has b = c = ell = 0.  Entry k of each array depends only on
    entries below k, so a basis is a prefix of one of a higher degree.
    """

    spec: InnerProductSpec
    degree: int
    b: np.ndarray = field(init=False, repr=False, compare=False)
    c: np.ndarray = field(init=False, repr=False, compare=False)
    ell: np.ndarray = field(init=False, repr=False, compare=False)
    sq_norms: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_spec(self.spec)
        degree = _integer(self.degree, "degree")
        if degree < 0:
            raise InvalidParameterError("degree must be non-negative")
        if degree > MAX_DEGREE:
            raise InvalidParameterError(f"degree {degree} exceeds the verified limit {MAX_DEGREE}")
        h, b, c, g = _coherent_pair(self.spec, degree + 1)
        off = (-b[2:] * h[:-2]).tolist()  # <Q_k, Q_{k-2}>
        ell, s = [0.0, 0.0][: degree + 1], g[:2].tolist()
        for k in range(2, degree + 1):
            ell.append(off[k - 2] / s[k - 2])
            s.append(g[k] - ell[k] * off[k - 2])
        object.__setattr__(self, "degree", degree)
        for name, value in (("b", b), ("c", c), ("ell", np.array(ell)), ("sq_norms", np.array(s))):
            object.__setattr__(self, name, _frozen(value))

    @property
    def classical_basis(self) -> BasisKind:
        return self.spec.classical_basis

    @cached_property
    def basis_id(self) -> str:
        s = self.spec
        if s.is_sobolev:
            return f"{s.kind_name}(lam={s.lam!r},order={s.order},degree={self.degree})"
        return f"{s.kind_name}(degree={self.degree})"

    @cached_property
    def expansion(self) -> np.ndarray:
        """Row i: the classical-basis coefficients of S_i (lower triangular, unit diagonal)."""
        rows = np.eye(self.degree + 1)
        rows[2:, :-2] -= np.diag(self.b[2:])
        _forward(rows.T, self.ell)
        return _frozen(rows)

    def member(self, i: int) -> DensePoly:
        """The i-th family member as a classical-basis polynomial, 0 <= i <= degree."""
        if not 0 <= _integer(i, "member index") <= self.degree:
            raise InvalidParameterError(f"member index must be in [0, {self.degree}], got {i}")
        return DensePoly(self.classical_basis, self.expansion[i, : i + 1])


def _check_basis(basis) -> None:
    """Refuse a basis that is not an OrthoBasis, before any work that would read it."""
    if not isinstance(basis, OrthoBasis):
        raise InvalidParameterError(f"basis must be an OrthoBasis, got {type(basis).__name__}")


def _forward(v: np.ndarray, ell: np.ndarray) -> None:
    """v[..., k] -= ell[k] * v[..., k - 2] in place, for k = 2, 3, ... in turn."""
    vt = v.T
    for k in range(2, v.shape[-1]):
        vt[k] -= ell[k] * vt[k - 2]


def build_basis(spec: InnerProductSpec, degree: int) -> OrthoBasis:
    """OrthoBasis(spec, degree); a degree or lam it refuses raises InvalidParameterError."""
    return OrthoBasis(spec, degree)


def build_named_basis(kind: str, degree: int, lam: float = DEFAULT_LAMBDA) -> OrthoBasis:
    return build_basis(spec_for_kind(kind, lam), degree)


def project(f: PiecewisePoly, basis: OrthoBasis) -> np.ndarray:
    """Expansion coefficients of the best approximation to f in the family.

    c[..., i] = <f, S_i> / <S_i, S_i>, one row per function of f: (2, degree + 1)
    for a curve's x and y.  A row has the same bits at a degree as truncated
    from any higher degree, and as the curve's row of a bucket in _project.
    """
    _check_basis(basis)
    if not isinstance(f, PiecewisePoly):
        raise InvalidDataError(f"f must be a PiecewisePoly, got {type(f).__name__}")
    return _project(f.breakpoints, f.local, [basis])[0]


def _project(bp: np.ndarray, c: np.ndarray, bases: list[OrthoBasis]) -> list[np.ndarray]:
    """project for each of bases, bit for bit, in one moment pass per weight.

    bp and c are a curve's arrays or a bucket's, as poly._moments takes them.
    The moments are taken once per weight, at the largest degree that needs
    them, and each basis combines their prefix: rows ([T,] m, degree + 1).
    """
    moments = {}
    for weight in dict.fromkeys(b.classical_basis for b in bases):
        family = [b for b in bases if b.classical_basis is weight]
        moments[weight] = _moments(bp, c, weight, max(b.degree for b in family),
                                   any(b.spec.is_sobolev for b in family))
    out = []
    for basis in bases:
        # <f, Q_k> = p_k - b_k p_{k-2} + lam c_k q_{k-1}, then the S_k by _forward
        p, q = moments[basis.classical_basis]
        n = basis.degree + 1
        v = p[..., :n].copy()
        v[..., 2:] -= basis.b[2:] * p[..., : n - 2]
        if q is not None:
            v[..., 1:] += basis.spec.lam * basis.c[1:] * q[..., : n - 1]
        _forward(v, basis.ell)
        out.append(v / basis.sq_norms)
    return out


def _evaluate(rows: np.ndarray, basis: OrthoBasis, s: np.ndarray, degrees=None):
    """Yield (part, d, sum_{k <= d} rows[part, ..., k] S_k(s)) for each d in degrees, ascending.

    rows holds series coefficients on the family, (m, D + 1) for one set or
    (T, m, D + 1) for a bucket, with D at most basis.degree; degrees default
    to (D,).  s holds points shared by every set, (n,), or, for a bucket, the
    points of each curve, (T, 1, n); the sums are (m, n) or (block, m, n),
    and part is the slice of the bucket axis they cover.  poly owns the
    classical walk and the byte budget: one walk over its B_k, k = 0..D,
    carries Q_k = B_k - b_k B_{k-2}, S_k = Q_k - ell_k S_{k-2} and the
    running sum, with +, -, * and / alone, elementwise, in a fixed order,
    and a bucket passes in its _blocks of curves.  Entry k depends only on
    entries below k: the sum at d has the bits of the basis of degree d,
    and a curve's sums have the same bits in a bucket as alone.
    """
    top = rows.shape[-1] - 1
    wanted = frozenset([top] if degrees is None else degrees)
    parts = [slice(None)]  # one table of the family serves every set
    if s.ndim == rows.ndim:  # or each curve has its own points: blocks of curves
        parts = _blocks(len(rows), rows[0, ..., 0].size * s.shape[-1])
    for part in parts:
        a = rows[part]
        b_prev = b_prev2 = s_prev = s_prev2 = None
        for k, b_k in enumerate(_classical(basis.classical_basis, s[part], top)):
            q_k = b_k - basis.b[k] * b_prev2 if basis.b[k] else b_k
            s_k = q_k - basis.ell[k] * s_prev2 if basis.ell[k] else q_k
            term = a[..., k, None] * s_k
            total = term if k == 0 else total + term
            if k in wanted:
                yield part, k, total
            b_prev2, b_prev, s_prev2, s_prev = b_prev, b_k, s_prev, s_k


def synthesize(coeffs, basis: OrthoBasis) -> DensePoly:
    """Sum of coeffs[i] * S_i as a classical-basis polynomial of degree len(coeffs) - 1.

    The Q-basis coefficients u solve u_k + ell_{k+2} u_{k+2} = coeffs[k]
    from the top down, and the classical ones are u_k - b_{k+2} u_{k+2}.
    Only the first len(coeffs) entries of ell and b are read, so a prefix of
    a projection synthesizes, bit for bit, as it would on the basis of its
    own degree.
    """
    _check_basis(basis)
    u = _real_array(coeffs, "coefficients must be numbers (real, not bool)")
    n = basis.degree + 1
    if u.ndim != 1 or len(u) > n:
        raise InvalidDataError(f"expected at most {n} coefficients, got {u.shape}")
    for k in range(len(u) - 3, -1, -1):
        u[k] -= basis.ell[k + 2] * u[k + 2]
    u[:-2] -= basis.b[2 : len(u)] * u[2:]
    return DensePoly(basis.classical_basis, u)


NORMALIZATION = "unit-leading-classical-coefficient"


def basis_to_json_dict(basis: OrthoBasis) -> dict:
    """JSON document for export: spec, degree, row-major expansion, norms."""
    _check_basis(basis)
    return {
        "spec": {
            "weight": basis.spec.weight.value,
            "lambda": basis.spec.lam,
            "order": basis.spec.order,
        },
        "degree": basis.degree,
        "normalization": NORMALIZATION,
        "expansion": [float(x) for x in basis.expansion.ravel(order="C")],
        "sq_norms": [float(x) for x in basis.sq_norms],
    }


def basis_from_json_dict(doc: dict) -> OrthoBasis:
    """build_basis of a document's spec and degree.

    A spec or degree that build_basis refuses raises what build_basis
    raises.  A document whose expansion or sq_norms differ from the rebuilt
    ones by more than 1e-12 relative (absolute below 1), or that is
    otherwise malformed, raises InvalidDataError.
    """
    try:
        s = doc["spec"]
        weight, lam, order, degree = Weight(s["weight"]), s["lambda"], s["order"], doc["degree"]
        stored = {name: doc[name] for name in ("expansion", "sq_norms")}
    except KeyError as exc:
        raise InvalidDataError(f"basis document lacks {exc}") from None
    except (TypeError, ValueError) as exc:
        raise InvalidDataError(f"malformed basis document: {exc}") from None
    basis = build_basis(InnerProductSpec(weight, lam, order), degree)
    for name, values in stored.items():
        rebuilt = getattr(basis, name)
        try:
            values = np.array(values, dtype=float).reshape(rebuilt.shape)
        except (OverflowError, TypeError, ValueError) as exc:
            raise InvalidDataError(f"malformed basis document: {exc}") from None
        if not np.all(np.abs(values - rebuilt) <= 1e-12 * np.maximum(1.0, np.abs(rebuilt))):
            raise InvalidDataError(f"{name} is not that of {basis.basis_id}")
    return basis


def save_basis(basis: OrthoBasis, path) -> None:
    doc = basis_to_json_dict(basis)  # checks basis before the file is opened, and so emptied
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_basis(path) -> OrthoBasis:
    try:
        doc = json.load(open_utf8(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON: {exc.msg}", exc.lineno) from None
    except ValueError as exc:  # an integer past int's digit limit
        raise ParseError(f"malformed JSON: {exc}") from None
    return basis_from_json_dict(doc)
