#!/usr/bin/env python3
"""From sampled pen trace to resolution-independent curve and back.

A figure-eight squiggle is normalized to an arc-length parameterized curve
of standard size, projected onto the lam=1/8 derivative-weighted Chebyshev
family at several truncation degrees, and reconstructed.  Watching the
pointwise error fall with degree shows how few numbers the shape really
needs.  CSV files for plotting land in demos/out/.
"""

from pathlib import Path

import numpy as np

from inkbasis import (
    InkTrace,
    arc_length_normalize,
    build_named_basis,
    reconstruct,
    representation_error,
    to_coeffs,
)

OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

# --- a synthetic handwritten squiggle ---------------------------------------
# Sixteen samples of a lissajous-like figure eight, in tablet units.
t = np.linspace(0.0, 2 * np.pi, 16)
points = np.column_stack([60 + 40 * np.sin(t), 50 + 45 * np.sin(t) * np.cos(t)])
trace = InkTrace(points, label="eight")
normalized = arc_length_normalize(trace)
print(f"trace: {len(points)} points, arc length {normalized.total_length:.2f} units")
print(f"knots run from {normalized.knots[0]} to {normalized.knots[-1]}")

# --- project at increasing degree --------------------------------------------
print("\ndegree  stored numbers  pointwise reconstruction error")
for d in (3, 7, 10, 15):
    basis = build_named_basis("chebyshev-sobolev", d)
    coeffs = to_coeffs(normalized, basis, label=trace.label)
    err = representation_error(trace, normalized, coeffs, basis)
    print(f"  {d:>2}        {2 * d:>3}            {err:10.5f}")

# --- dump curve samples for external plotting --------------------------------
basis = build_named_basis("chebyshev-sobolev", 10)
coeffs = to_coeffs(normalized, basis, label=trace.label)
s_dense = np.linspace(-1, 1, 200)
x_dense, y_dense = reconstruct(coeffs, basis, s_dense)
lines = ["s,x,y,kind"]
for s, (x, y) in zip(normalized.knots, trace.points):
    lines.append(f"{s!r},{x!r},{y!r},original")
for s, x, y in zip(s_dense, x_dense, y_dense):
    lines.append(f"{s!r},{float(x)!r},{float(y)!r},approx")
csv_path = OUT / "figure_eight_degree10.csv"
csv_path.write_text("\n".join(lines) + "\n")
print(f"\nwrote {csv_path} (original points + 200 curve samples)")

# The 2d coefficients are the whole representation: the reconstruction
# above used only these numbers plus the dropped constants and the length.
print(f"\nx coefficients: {np.round(coeffs.xs, 4)}")
print(f"y coefficients: {np.round(coeffs.ys, 4)}")
