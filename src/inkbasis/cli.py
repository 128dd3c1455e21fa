"""Command-line front end.

Subcommands cover the whole pipeline: exporting a constructed basis,
sampling reconstructed curves, reconstructing the original sample points,
sweeping reconstruction error over degrees, and the four-way kNN accuracy
table.  All data goes to CSV/JSON output files; diagnostics go to stderr.
Re-running a command with the same configuration produces byte-identical
files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .bases import BASIS_KINDS, DEFAULT_LAMBDA, MAX_DEGREE, build_named_basis, save_basis
from .classify import DEFAULT_SPLIT_RATIO, DEFAULT_SPLIT_SEED, accuracy_sweep, representation_error
from .errors import InkBasisError, InvalidParameterError
from .ink import (
    InkTrace,
    SplineKind,
    _family_coeffs,
    arc_length_normalize,
    load_pendigits,
    merge_strokes,
    parse_inkml,
    reconstruct,
    to_coeffs,
)

DATA_DIR_ENV = "INKBASIS_DATA_DIR"


def _fmt(x: float) -> str:
    return repr(float(x))


def _resolve_path(raw: str) -> Path:
    p = Path(raw)
    if p.exists():
        return p
    data_dir = os.environ.get(DATA_DIR_ENV)
    if not p.is_absolute() and data_dir:
        candidate = Path(data_dir) / p
        if candidate.exists():
            return candidate
    raise InvalidParameterError(f"input path not found: {raw}")


def _default_inputs() -> list[Path]:
    data_dir = os.environ.get(DATA_DIR_ENV)
    if not data_dir:
        raise InvalidParameterError(f"no input given and {DATA_DIR_ENV} is not set")
    found = [
        p
        for name in ("pendigits.tra", "pendigits.tes")
        if (p := Path(data_dir) / name).exists()
    ]
    if not found:
        raise InvalidParameterError(f"no input given and no pendigits files under {data_dir}")
    return found


def _load_traces(paths: list[str]) -> list[InkTrace]:
    resolved = [_resolve_path(p) for p in paths] if paths else _default_inputs()
    traces: list[InkTrace] = []
    for path in resolved:
        if path.is_dir():
            files = sorted(path.glob("*.inkml"))
            if not files:
                raise InvalidParameterError(f"directory contains no .inkml files: {path}")
        elif path.suffix.lower() in (".inkml", ".xml"):
            files = [path]
        else:
            traces.extend(load_pendigits(path))
            continue
        traces.extend(merge_strokes(parse_inkml(f.read_bytes())) for f in files)
    return traces


def _trace_file_name(index: int, label: str | None) -> str:
    stem = f"trace_{index:05d}"
    if label:
        safe = "".join(ch for ch in label if ch.isalnum())
        if safe:
            stem += f"_{safe}"
    return stem + ".csv"


def cmd_build_basis(args) -> int:
    basis = build_named_basis(args.basis, args.degree, args.lam)
    save_basis(basis, args.out)
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


def cmd_approximate(args) -> int:
    traces = _load_traces(args.input)
    basis = build_named_basis(args.basis, args.degree, args.lam)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    samples = np.linspace(-1.0, 1.0, 200)
    for i, trace in enumerate(traces):
        normalized = arc_length_normalize(trace, args.spline)
        coeffs = to_coeffs(normalized, basis, label=trace.label)
        xhat, yhat = reconstruct(coeffs, basis, samples)
        lines = ["s,x,y,kind"]
        for s, (x, y) in zip(normalized.knots, trace.points):
            lines.append(f"{_fmt(s)},{_fmt(x)},{_fmt(y)},original")
        for s, x, y in zip(samples, xhat, yhat):
            lines.append(f"{_fmt(s)},{_fmt(x)},{_fmt(y)},approx")
        (outdir / _trace_file_name(i, trace.label)).write_text(
            "\n".join(lines) + "\n", encoding="utf-8"
        )
    print(f"wrote {len(traces)} files to {outdir}", file=sys.stderr)
    return 0


def cmd_reconstruct(args) -> int:
    traces = _load_traces(args.input)
    basis = build_named_basis(args.basis, args.degree, args.lam)
    lines = ["trace_id,point_index,kind,x,y"]
    for i, trace in enumerate(traces):
        normalized = arc_length_normalize(trace, args.spline)
        coeffs = to_coeffs(normalized, basis, label=trace.label)
        xhat, yhat = reconstruct(coeffs, basis, normalized.knots)
        for j, (x, y) in enumerate(trace.points):
            lines.append(f"{i},{j},original,{_fmt(x)},{_fmt(y)}")
        for j, (x, y) in enumerate(zip(xhat, yhat)):
            lines.append(f"{i},{j},reconstructed,{_fmt(x)},{_fmt(y)}")
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


def cmd_error_sweep(args) -> int:
    traces = _load_traces(args.input)
    bases = [build_named_basis(args.basis, d, args.lam) for d in range(args.d_min, args.d_max + 1)]
    lines = ["trace_id,degree,error"]
    for i, trace in enumerate(traces):
        normalized = arc_length_normalize(trace, args.spline)
        # one projection per trace: every degree truncates the moments taken at --d-max
        for basis, coeffs in zip(bases, _family_coeffs(normalized, bases, trace.label)):
            err = representation_error(trace, normalized, coeffs, basis)
            lines.append(f"{i},{basis.degree},{_fmt(err)}")
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


def cmd_knn_eval(args) -> int:
    traces = _load_traces(args.input)
    ks = list(range(args.k_min, args.k_max + 1))
    rows = accuracy_sweep(
        traces,
        list(BASIS_KINDS),
        ks,
        degree=args.degree,
        lam=args.lam,
        spline=args.spline,
        split_seed=args.seed,
        split_ratio=args.split,
    )
    lines = ["basis,k,accuracy,error_rate"]
    for r in rows:
        lines.append(f"{r['basis']},{r['k']},{_fmt(r['accuracy'])},{_fmt(r['error_rate'])}")
    out = Path(args.out)
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")

    best = {}
    for k in ks:
        cand = [r for r in rows if r["k"] == k]
        top = max(cand, key=lambda r: (r["accuracy"], -BASIS_KINDS.index(r["basis"])))
        best[str(k)] = {"basis": top["basis"], "accuracy": top["accuracy"]}
    summary = {
        "degree": args.degree,
        "lambda": args.lam,
        "split_seed": args.seed,
        "split_ratio": args.split,
        "n_traces": len(traces),
        "best_basis_per_k": best,
    }
    summary_path = out.with_suffix(".summary.json")
    summary_path.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out} and {summary_path}", file=sys.stderr)
    return 0


def _add_common(p: argparse.ArgumentParser, omit: tuple[str, ...] = ()) -> None:
    """Register the shared options, except the ones the command does not read."""
    if "input" not in omit:
        p.add_argument(
            "input", nargs="*", help="input file(s): InkML if .inkml or .xml, else pendigits"
        )
    if "basis" not in omit:
        p.add_argument(
            "--basis",
            choices=BASIS_KINDS,
            default="chebyshev-sobolev",
            help="basis kind (default chebyshev-sobolev)",
        )
    p.add_argument(
        "--lambda",
        dest="lam",
        type=float,
        default=DEFAULT_LAMBDA,
        help="derivative weight for the sobolev kinds (default %(default)s)",
    )
    if "degree" not in omit:
        p.add_argument("--degree", type=int, default=10, help="truncation degree (default 10)")
    if "spline" not in omit:
        p.add_argument(
            "--spline",
            type=SplineKind,
            choices=list(SplineKind),
            default=SplineKind.LINEAR,
            help="interpolating spline order (default linear)",
        )
    p.add_argument("--out", required=True, help="output file (or directory for approximate)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="inkbasis",
        description="Orthogonal-series representation and classification of digital ink.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-basis", help="construct a basis and export it as JSON")
    _add_common(p, omit=("input", "spline"))
    p.set_defaults(func=cmd_build_basis)

    p = sub.add_parser("approximate", help="sample reconstructed curves (one CSV per trace)")
    _add_common(p)
    p.set_defaults(func=cmd_approximate)

    p = sub.add_parser("reconstruct", help="reconstruct sample points at the knots (CSV)")
    _add_common(p)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("error-sweep", help="reconstruction error per trace and degree (CSV)")
    _add_common(p, omit=("degree",))
    p.add_argument("--d-min", type=int, default=3, help="smallest degree (default 3)")
    p.add_argument("--d-max", type=int, default=20, help="largest degree (default 20)")
    p.set_defaults(func=cmd_error_sweep)

    p = sub.add_parser("knn-eval", help="kNN accuracy table over the four basis kinds")
    _add_common(p, omit=("basis",))
    p.add_argument("--k-min", type=int, default=1)
    p.add_argument("--k-max", type=int, default=10)
    p.add_argument("--seed", type=int, default=DEFAULT_SPLIT_SEED, help="split seed (default 0)")
    p.add_argument(
        "--split",
        type=float,
        default=DEFAULT_SPLIT_RATIO,
        help="training fraction (default 2/3)",
    )
    p.set_defaults(func=cmd_knn_eval)

    return parser


def _validate(args, parser: argparse.ArgumentParser) -> None:
    if not (math.isfinite(args.lam) and args.lam >= 0):
        parser.error("--lambda must be finite and non-negative")
    # only projection needs degree 1: build-basis builds degree 0
    if args.func is not cmd_build_basis and getattr(args, "degree", 1) < 1:
        parser.error("--degree must be at least 1")
    if hasattr(args, "k_min") and not 1 <= args.k_min <= args.k_max:
        parser.error("need 1 <= --k-min <= --k-max")
    if hasattr(args, "split") and not 0.0 < args.split < 1.0:
        parser.error("--split must lie strictly between 0 and 1")
    if hasattr(args, "d_min") and not 1 <= args.d_min <= args.d_max:
        parser.error("need 1 <= --d-min <= --d-max")
    if getattr(args, "d_max", 0) > MAX_DEGREE:
        parser.error(f"--d-max must be at most {MAX_DEGREE}, the verified degree limit")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate(args, parser)
    try:
        return args.func(args)
    except (InkBasisError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
