#!/usr/bin/env python3
"""The four orthogonal families and how the derivative weight reshapes them.

Adding lam * <f', g'> to the plain weighted inner product produces a new
degree-graded orthogonal family.  With the normalization used here the
family degenerates exactly to the classical one at lam = 0, so the
derivative weight can be dialed in continuously.
"""

from pathlib import Path

import numpy as np

from inkbasis import (
    BASIS_KINDS,
    InnerProductSpec,
    Weight,
    build_basis,
    build_named_basis,
    inner_closed_form,
    save_basis,
)

np.set_printoptions(precision=6, suppress=True)

# --- the four named kinds ---------------------------------------------------
for kind in BASIS_KINDS:
    b = build_named_basis(kind, 5)
    print(f"{b.basis_id:55s} h_0..h_5 = {b.sq_norms}")

# --- what the derivative term does to the family ----------------------------
# At lam = 0 the rows are the identity (classical family).  As lam grows,
# higher-degree members acquire lower-degree corrections of equal parity.
print("\nexpansion rows (coefficients over T_j) at several lam values:")
for lam in (0.0, 0.125, 1.0, 8.0):
    b = build_basis(InnerProductSpec(Weight.INVERSE_SQRT, lam, 1), 5)
    print(f"\n  lam = {lam}")
    for i in range(6):
        print(f"    degree {i}: {b.expansion[i]}")

# The degree-3 member at lam = 1/8 is T_3 - (3/5) T_1: the correction ratio
# is 3*lam / (1/2 + lam), which -> 0 as lam -> 0 and -> 3 as lam -> inf.

# --- orthogonality check, straight from the closed forms --------------------
b = build_basis(InnerProductSpec(Weight.INVERSE_SQRT, 0.125, 1), 8)
gram = np.empty((9, 9))
for i in range(9):
    for j in range(9):
        gram[i, j] = inner_closed_form(b.member(i), b.member(j), b.spec)
off = np.abs(gram - np.diag(np.diag(gram))).max()
print(f"\nlargest off-diagonal Gram entry at lam=1/8, d=8: {off:.2e}")

# --- export ------------------------------------------------------------------
# save_basis writes the spec, degree, expansion and norms; load_basis rebuilds
# the family from the spec and degree and checks the stored arrays against it.
out = Path(__file__).parent / "out"
out.mkdir(exist_ok=True)
path = out / "chebyshev_sobolev_d4.json"
save_basis(build_named_basis("chebyshev-sobolev", 4), path)
print(f"\nJSON export of the lam=1/8 family at degree 4, {path.name}:")
print(path.read_text(encoding="utf-8")[:400] + " ...")
