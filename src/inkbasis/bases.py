"""Weighted and derivative-augmented inner products, and the orthogonal
polynomial families they induce.

Four named families are supported on [-1, 1]:

  ``legendre``            unit weight
  ``chebyshev``           inverse-square-root weight
  ``legendre-sobolev``    unit weight plus a first-derivative term
  ``chebyshev-sobolev``   inverse-sqrt weight plus a first-derivative term

The derivative-augmented (Sobolev) families are built by modified
Gram-Schmidt and normalized so the leading classical-basis coefficient is
one, which makes them degenerate exactly to the classical family as the
derivative weight goes to zero.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BasisMismatchError, DegreeTooLargeError, LengthMismatchError, UnsupportedOrderError
)
from .poly import BasisKind, DensePoly, PiecewisePoly, Weight, piecewise_classical_inners

DEFAULT_LAMBDA = 0.125
MAX_DEGREE = 100  # largest degree the projection is verified at against quadrature

BASIS_KINDS = ("legendre", "chebyshev", "legendre-sobolev", "chebyshev-sobolev")


@dataclass(frozen=True)
class InnerProductSpec:
    """Weight, derivative weight, and derivative order of an inner product.

    lam = 0 means the plain weighted inner product regardless of order, and
    order = 0 drops the derivative term regardless of lam.  Only orders 0
    and 1 are implemented; the field is an integer so higher-order variants
    have a place to live, but they raise UnsupportedOrderError.
    """

    weight: Weight
    lam: float = 0.0
    order: int = 1

    def __post_init__(self):
        object.__setattr__(self, "weight", Weight(self.weight))
        object.__setattr__(self, "lam", float(self.lam))
        object.__setattr__(self, "order", int(self.order))
        if self.lam < 0:
            raise ValueError("derivative weight lam must be non-negative")
        if self.order < 0:
            raise ValueError("order must be non-negative")

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
    """Inner-product spec for one of the four named basis kinds."""
    if kind == "legendre":
        return InnerProductSpec(Weight.UNIT, 0.0, 0)
    if kind == "chebyshev":
        return InnerProductSpec(Weight.INVERSE_SQRT, 0.0, 0)
    if kind == "legendre-sobolev":
        return InnerProductSpec(Weight.UNIT, lam, 1)
    if kind == "chebyshev-sobolev":
        return InnerProductSpec(Weight.INVERSE_SQRT, lam, 1)
    raise ValueError(f"unknown basis kind {kind!r}; expected one of {BASIS_KINDS}")


def classical_sq_norm(weight: Weight, i: int) -> float:
    """Squared norm of the degree-i classical element under its own weight."""
    if Weight(weight) is Weight.INVERSE_SQRT:
        return math.pi if i == 0 else math.pi / 2.0
    return 2.0 / (2 * i + 1)


def _plain_closed(cf: np.ndarray, cg: np.ndarray, weight: Weight) -> float:
    n = max(len(cf), len(cg))
    f = np.zeros(n)
    g = np.zeros(n)
    f[: len(cf)] = cf
    g[: len(cg)] = cg
    if Weight(weight) is Weight.INVERSE_SQRT:
        return float(math.pi / 2.0 * (2.0 * f[0] * g[0] + np.dot(f[1:], g[1:])))
    i = np.arange(n)
    return float(np.dot(2.0 / (2 * i + 1), f * g))


def inner_closed_form(f: DensePoly, g: DensePoly, spec: InnerProductSpec) -> float:
    """Inner product of two series in the weight's classical basis, by formula.

    Order 0 uses the diagonal closed form of the classical weight; order 1
    adds lam times the same form applied to the derivatives.  No
    integration is performed.
    """
    if spec.order not in (0, 1):
        raise UnsupportedOrderError(f"order {spec.order} not implemented")
    cb = spec.classical_basis
    if f.basis is not cb or g.basis is not cb:
        raise BasisMismatchError(
            f"operands must both be in the {cb.value} basis for this weight"
        )
    out = _plain_closed(f.coeffs, g.coeffs, spec.weight)
    if spec.order >= 1 and spec.lam != 0.0:
        out += spec.lam * _plain_closed(
            f.derivative().coeffs, g.derivative().coeffs, spec.weight
        )
    return out


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
        if expansion.shape != (n, n) or sq_norms.shape != (n,):
            raise ValueError("expansion/sq_norms shapes do not match degree")
        if np.any(sq_norms <= 0.0):
            raise ValueError("squared norms must be strictly positive")
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
    textbook values.  Otherwise the family comes from modified Gram-Schmidt
    over the classical elements (same span as the monomials, better
    conditioned), with one re-orthogonalization pass, normalized to unit
    leading classical coefficient.
    """
    if degree < 0:
        raise ValueError("degree must be non-negative")
    if degree > MAX_DEGREE:
        raise DegreeTooLargeError(f"degree {degree} exceeds the verified limit {MAX_DEGREE}")
    if spec.order not in (0, 1):
        raise UnsupportedOrderError(f"order {spec.order} not implemented")
    n = degree + 1
    if not spec.is_sobolev:
        expansion = np.eye(n)
        sq_norms = np.array([classical_sq_norm(spec.weight, i) for i in range(n)])
        return OrthoBasis(spec, degree, expansion, sq_norms)

    cb = spec.classical_basis

    def ip(u: np.ndarray, v: np.ndarray) -> float:
        return inner_closed_form(DensePoly(cb, u), DensePoly(cb, v), spec)

    expansion = np.zeros((n, n))
    sq_norms = np.zeros(n)
    for i in range(n):
        v = np.zeros(n)
        v[i] = 1.0
        for _ in range(2):  # second pass restores orthogonality lost to rounding
            for j in range(i):
                v -= (ip(v, expansion[j]) / sq_norms[j]) * expansion[j]
        v /= v[i]
        expansion[i] = v
        sq_norms[i] = ip(v, v)
    return OrthoBasis(spec, degree, expansion, sq_norms)


def build_named_basis(kind: str, degree: int, lam: float = DEFAULT_LAMBDA) -> OrthoBasis:
    return build_basis(spec_for_kind(kind, lam), degree)


def project(f: PiecewisePoly, basis: OrthoBasis) -> np.ndarray:
    """Expansion coefficients of the best approximation to f in the family.

    c[i] = <f, S_i> / <S_i, S_i>.  The inner products with the classical
    elements come from the closed-form segment kernel in poly; the family's
    expansion rows combine them.
    """
    spec = basis.spec
    lam = spec.lam if spec.is_sobolev else 0.0
    v = piecewise_classical_inners(f, basis.classical_basis, basis.degree, lam)
    return (basis.expansion @ v) / basis.sq_norms


def synthesize(coeffs: np.ndarray, basis: OrthoBasis) -> DensePoly:
    """Sum of coeffs[i] * S_i as a classical-basis polynomial."""
    c = np.asarray(coeffs, dtype=float)
    if c.ndim != 1 or len(c) > basis.degree + 1:
        raise LengthMismatchError(
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
    spec = InnerProductSpec(
        Weight(doc["spec"]["weight"]), doc["spec"]["lambda"], doc["spec"]["order"]
    )
    n = int(doc["degree"]) + 1
    expansion = np.array(doc["expansion"], dtype=float).reshape(n, n)
    sq_norms = np.array(doc["sq_norms"], dtype=float)
    return OrthoBasis(spec, int(doc["degree"]), expansion, sq_norms)


def save_basis(basis: OrthoBasis, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(basis_to_json_dict(basis), fh, indent=2)
        fh.write("\n")


def load_basis(path) -> OrthoBasis:
    with open(path, encoding="utf-8") as fh:
        return basis_from_json_dict(json.load(fh))
