"""Weighted and derivative-augmented inner products, and the orthogonal
polynomial families they induce.

Four named families are supported on [-1, 1]:

  ``legendre``            unit weight
  ``chebyshev``           inverse-square-root weight
  ``legendre-sobolev``    unit weight plus a first-derivative term
  ``chebyshev-sobolev``   inverse-sqrt weight plus a first-derivative term

The derivative-augmented (Sobolev) families come from the LDL^T factor of
one Gram matrix G of the classical elements: the family's expansion is
L^-1, so each member has leading classical-basis coefficient one, which
makes the families degenerate exactly to the classical ones as the
derivative weight goes to zero.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    BasisMismatchError, InvalidDataError, InvalidParameterError, ParseError, _enum_member,
    open_utf8,
)
from .poly import BasisKind, DensePoly, PiecewisePoly, Weight, _derivative_matrix, _moments

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


def _classical_sq_norms(weight: Weight, n: int) -> np.ndarray:
    """Squared norms of the classical elements 0..n-1 under their own weight."""
    if weight is Weight.INVERSE_SQRT:
        return np.r_[math.pi, np.full(n - 1, math.pi / 2.0)]
    return 2.0 / (2 * np.arange(n) + 1.0)


def _gram(spec: InnerProductSpec, degree: int) -> np.ndarray:
    """G[i, j] = <B_i, B_j> under spec, over the classical elements up to degree.

    The derivative term is the classical form applied to the derivatives:
    with D the derivative matrix (B_k' = sum_m D[k, m] B_m), G = diag(h) +
    lam * D diag(h) D^T.  A lam for which G is not finite at this degree
    raises InvalidParameterError.
    """
    h = _classical_sq_norms(spec.weight, degree + 1)
    G = np.diag(h)
    if spec.is_sobolev:
        D = _derivative_matrix(spec.classical_basis, degree)[:, :degree]
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
            G += spec.lam * (D * h[:degree]) @ D.T
        if not np.isfinite(G).all():
            raise InvalidParameterError(f"lambda {spec.lam!r} is too large at degree {degree}: "
                                        "the Gram matrix is not finite")
    return G


def inner_closed_form(f: DensePoly, g: DensePoly, spec: InnerProductSpec) -> float:
    """Inner product of two series in the weight's classical basis, by formula.

    Evaluates c_f^T G c_g with the Gram matrix G of the classical elements:
    the diagonal classical norms, plus lam times the same form applied to
    the derivatives at order 1.  No integration is performed.
    """
    cb = spec.classical_basis
    if f.basis is not cb or g.basis is not cb:
        raise BasisMismatchError(
            f"operands must both be in the {cb.value} basis for this weight"
        )
    nf, ng = len(f.coeffs), len(g.coeffs)
    G = _gram(spec, max(nf, ng) - 1)
    return float(f.coeffs @ G[:nf, :ng] @ g.coeffs)


@dataclass(frozen=True)
class OrthoBasis:
    """A constructed degree-graded orthogonal family.

    expansion row i holds the classical-basis coefficients of the i-th
    family member (lower triangular, unit diagonal); sq_norms[i] is its
    squared norm under the defining inner product.
    """

    spec: InnerProductSpec
    degree: int
    expansion: np.ndarray
    sq_norms: np.ndarray

    def __post_init__(self):
        expansion = np.array(self.expansion, dtype=float)
        sq_norms = np.array(self.sq_norms, dtype=float)
        n = self.degree + 1
        if n < 1 or expansion.shape != (n, n) or sq_norms.shape != (n,):
            raise InvalidDataError("expansion/sq_norms shapes do not match degree")
        if not (np.isfinite(expansion).all() and np.isfinite(sq_norms).all()):
            raise InvalidDataError("expansion and sq_norms must be finite")
        if np.any(sq_norms <= 0.0):
            raise InvalidDataError("squared norms must be strictly positive")
        expansion.setflags(write=False)
        sq_norms.setflags(write=False)
        object.__setattr__(self, "expansion", expansion)
        object.__setattr__(self, "sq_norms", sq_norms)

    @property
    def classical_basis(self) -> BasisKind:
        return self.spec.classical_basis

    @property
    def basis_id(self) -> str:
        s = self.spec
        if s.is_sobolev:
            return f"{s.kind_name}(lam={s.lam!r},order={s.order},degree={self.degree})"
        return f"{s.kind_name}(degree={self.degree})"

    def member(self, i: int) -> DensePoly:
        """The i-th family member as a classical-basis polynomial."""
        return DensePoly(self.classical_basis, self.expansion[i, : i + 1])


def build_basis(spec: InnerProductSpec, degree: int) -> OrthoBasis:
    """Construct the orthogonal family of the given spec up to degree.

    For a plain inner product the classical family is already orthogonal,
    so the expansion is exactly the identity and the squared norms are the
    textbook values.  Otherwise the family comes from the LDL^T factor of the
    Gram matrix G of the classical elements (same span as the monomials,
    better conditioned): G = L D L^T with L unit lower triangular, the
    expansion is L^-1 and the squared norms are diag(D).
    """
    degree = _integer(degree, "degree")
    if degree < 0:
        raise InvalidParameterError("degree must be non-negative")
    if degree > MAX_DEGREE:
        raise InvalidParameterError(f"degree {degree} exceeds the verified limit {MAX_DEGREE}")
    n = degree + 1
    if not spec.is_sobolev:
        return OrthoBasis(spec, degree, np.eye(n), _classical_sq_norms(spec.weight, n))

    # G = L diag(r^2) L^T with L unit lower triangular, so the rows of L^-1
    # are G-orthogonal with squared norms r^2; forward substitution keeps
    # L^-1 exactly lower triangular with an exact unit diagonal
    R = np.linalg.cholesky(_gram(spec, degree))
    r = np.diag(R)
    L = R / r
    expansion = np.eye(n)
    for i in range(1, n):
        expansion[i, :i] = -L[i, :i] @ expansion[:i, :i]
    return OrthoBasis(spec, degree, expansion, r * r)


def build_named_basis(kind: str, degree: int, lam: float = DEFAULT_LAMBDA) -> OrthoBasis:
    return build_basis(spec_for_kind(kind, lam), degree)


def project(f: PiecewisePoly, basis: OrthoBasis) -> np.ndarray:
    """Expansion coefficients of the best approximation to f in the family.

    c[..., i] = <f, S_i> / <S_i, S_i>, one row per function of f: (2, degree + 1)
    for a curve's x and y, and (T, 2, degree + 1) for a bucket of T curves.
    The inner products come from the moments of f (poly's closed-form
    segment kernel, run once per call for the whole bucket) at the basis's
    degree; each row is one expansion @ vector, so a curve's row has the
    same bits in a bucket as alone.
    """
    return _project(f, [basis])[0]


def _project(f: PiecewisePoly, bases: list[OrthoBasis]) -> list[np.ndarray]:
    """project(f, basis) for each of bases, bit for bit, in one moment pass per weight.

    The bases may mix weights, kinds, lambdas and degrees.  The moments of f
    are taken once per weight, at the largest degree among that weight's
    bases, and each basis combines their prefix into its inner products
    p + lam * D q at its own lambda and degree, D the legder/chebder matrix.
    """
    out = [None] * len(bases)
    for weight in dict.fromkeys(b.classical_basis for b in bases):
        family = [i for i, b in enumerate(bases) if b.classical_basis is weight]
        p, q = _moments(f, weight, max(bases[i].degree for i in family),
                        any(bases[i].spec.is_sobolev for i in family))
        for i in family:
            b = bases[i]
            d, lam = b.degree, b.spec.lam
            v = np.ascontiguousarray(p[..., : d + 1])
            if b.spec.is_sobolev and lam and d >= 1 and q is not None:
                # one matrix-vector product per function, on a contiguous vector as
                # at degree itself, keeps the bits of a lone function
                dq = np.ascontiguousarray(q[..., :d])
                v = v + lam * (_derivative_matrix(weight, d) @ dq[..., None])[..., 0]
            out[i] = (b.expansion @ v[..., None])[..., 0] / b.sq_norms
    return out


def synthesize(coeffs: np.ndarray, basis: OrthoBasis) -> DensePoly:
    """Sum of coeffs[i] * S_i as a classical-basis polynomial."""
    c = np.asarray(coeffs, dtype=float)
    if c.ndim != 1 or len(c) > basis.degree + 1:
        raise InvalidDataError(
            f"expected at most {basis.degree + 1} coefficients, got {c.shape}"
        )
    full = np.zeros(basis.degree + 1)
    full[: len(c)] = c
    return DensePoly(basis.classical_basis, basis.expansion.T @ full)


NORMALIZATION = "unit-leading-classical-coefficient"


def basis_to_json_dict(basis: OrthoBasis) -> dict:
    """JSON document for export: spec, degree, row-major expansion, norms."""
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

    A document whose spec or degree build_basis refuses, or whose expansion
    or sq_norms differ from the rebuilt ones by more than 1e-12 relative
    (absolute below 1), raises InvalidDataError.
    """
    try:
        s = doc["spec"]
        basis = build_basis(InnerProductSpec(Weight(s["weight"]), s["lambda"], s["order"]),
                            doc["degree"])
        for name in ("expansion", "sq_norms"):
            rebuilt = getattr(basis, name)
            stored = np.array(doc[name], dtype=float).reshape(rebuilt.shape)
            if not np.all(np.abs(stored - rebuilt) <= 1e-12 * np.maximum(1.0, np.abs(rebuilt))):
                raise InvalidDataError(f"{name} is not that of {basis.basis_id}")
    except KeyError as exc:
        raise InvalidDataError(f"basis document lacks {exc}") from None
    except (OverflowError, TypeError, ValueError) as exc:  # the typed errors are ValueErrors
        raise InvalidDataError(f"malformed basis document: {exc}") from None
    return basis


def save_basis(basis: OrthoBasis, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(basis_to_json_dict(basis), fh, indent=2)
        fh.write("\n")


def load_basis(path) -> OrthoBasis:
    try:
        doc = json.load(open_utf8(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON: {exc.msg}", exc.lineno) from None
    except ValueError as exc:  # an integer past int's digit limit
        raise ParseError(f"malformed JSON: {exc}") from None
    return basis_from_json_dict(doc)
