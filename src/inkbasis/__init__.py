"""Truncated orthogonal-series representation of digital ink.

Handwritten traces become short coefficient vectors over Legendre,
Chebyshev, or their derivative-augmented (Sobolev) variants; those vectors
support fast curve distances, reconstruction-error analysis, and nearest
neighbour symbol classification.
"""

from .bases import (
    BASIS_KINDS,
    DEFAULT_LAMBDA,
    InnerProductSpec,
    OrthoBasis,
    build_basis,
    build_named_basis,
    inner_closed_form,
    load_basis,
    project,
    save_basis,
    synthesize,
)
from .classify import (
    LabeledDataset,
    accuracy_sweep,
    coeff_distance_sq,
    knn_accuracy,
    knn_classify,
    match_symbol,
    representation_error,
)
from .errors import (
    BasisMismatchError,
    InkBasisError,
    InvalidDataError,
    InvalidParameterError,
    ParseError,
)
from .ink import (
    CoeffTable,
    InkTrace,
    SplineKind,
    SymbolCoeffs,
    arc_length_normalize,
    load_inkml,
    load_pendigits,
    merge_strokes,
    parse_inkml,
    parse_pendigits,
    read_coeffs_jsonl,
    reconstruct,
    symbol_coeffs,
    to_coeffs,
    write_coeffs_jsonl,
)
from .poly import (
    DensePoly,
    PiecewisePoly,
    Weight,
)

__version__ = "0.1.0"

__all__ = [
    "BASIS_KINDS",
    "DEFAULT_LAMBDA",
    "BasisMismatchError",
    "CoeffTable",
    "DensePoly",
    "InkBasisError",
    "InkTrace",
    "InnerProductSpec",
    "InvalidDataError",
    "InvalidParameterError",
    "LabeledDataset",
    "OrthoBasis",
    "ParseError",
    "PiecewisePoly",
    "SplineKind",
    "SymbolCoeffs",
    "Weight",
    "accuracy_sweep",
    "arc_length_normalize",
    "build_basis",
    "build_named_basis",
    "coeff_distance_sq",
    "inner_closed_form",
    "knn_accuracy",
    "knn_classify",
    "load_basis",
    "load_inkml",
    "load_pendigits",
    "match_symbol",
    "merge_strokes",
    "parse_inkml",
    "parse_pendigits",
    "project",
    "read_coeffs_jsonl",
    "reconstruct",
    "representation_error",
    "save_basis",
    "symbol_coeffs",
    "synthesize",
    "to_coeffs",
    "write_coeffs_jsonl",
]
