"""Write the mpmath reference digits of both Sobolev families at degree 100.

    PYTHONPATH=src python tests/mpmath_reference.py

rewrites tests/data/sobolev_mpmath_d100.json from
oracles.mpmath_sobolev_basis (an LDL^T of the dense classical Gram matrix
at 50 digits, lambda = 1/8): per kind, the squared norms and the expansion
rows, row i listing the entries j = i % 2, i % 2 + 2, ..., i (the others
are zero), each to 20 significant digits.  test_bases.TestMpmathReference
compares the library's families with them.
"""

import json
from pathlib import Path

import mpmath

from oracles import mpmath_sobolev_basis

DEGREE = 100
LAMBDA = 0.125
DPS = 50
OUT = Path(__file__).parent / "data" / "sobolev_mpmath_d100.json"


def digits(x) -> str:
    return mpmath.nstr(x, 20, min_fixed=0, max_fixed=0)


def main() -> None:
    doc = {"degree": DEGREE, "lambda": LAMBDA, "dps": DPS}
    for kind, weight in (("legendre-sobolev", "unit"), ("chebyshev-sobolev", "inverse_sqrt")):
        expansion, sq_norms = mpmath_sobolev_basis(weight, LAMBDA, DEGREE, DPS)
        doc[kind] = {
            "sq_norms": [digits(x) for x in sq_norms],
            "expansion": [[digits(x) for x in row[i % 2 : i + 1 : 2]]
                          for i, row in enumerate(expansion)],
        }
    OUT.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
