"""Command-line front end: a declared shell over the library.

Subcommands cover the whole pipeline: exporting a constructed basis,
sampling reconstructed curves, reconstructing the original sample points,
sweeping reconstruction error over degrees, and the four-way kNN accuracy
table.  _COMMANDS declares each command once: its handler, its help and the
options it reads, from one table of options.  All data goes to CSV/JSON
output files, every CSV through _write_csv; diagnostics go to stderr.
Re-running a command with the same configuration produces byte-identical
files.

The CLI checks only the ranges it builds itself: --k-min <= --k-max and
--d-min <= --d-max.  Every other value goes to the library as given, and
the library refuses it: approximate, reconstruct and error-sweep build
their basis, and check the degree of 1 or more that a projection needs
(error-sweep's at --d-min), before they read any input, and knn-eval's
accuracy_sweep builds and checks its bases, codes the labels and draws its
split before it normalizes any trace.  The CLI holds no numerics of its
own: approximate, reconstruct and error-sweep read their traces back in the
input frame from ink._input_frame, and error-sweep sums each degree's error
with ink._point_errors, as representation_error does.  The corpus path
under _input_frame normalizes every trace before it projects any, and
approximate drains it before it makes its directory, so a failing trace
stops a command before it writes a file.  An InkBasisError or OSError
prints one "error: <message>" line and exits 2.

A process that runs the CLI, by `python -m inkbasis.cli` or the inkbasis
script, ends through run: it freezes the garbage collector once main has
returned, so that interpreter shutdown does not sweep the tens of thousands
of objects numpy and the package hold, which are freed with the process
anyway.  Every output file is closed before main returns, and atexit
handlers and stream flushes still run.  main itself leaves the collector
alone, as it also serves callers that stay alive.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from pathlib import Path

import numpy as np

from .bases import BASIS_KINDS, DEFAULT_LAMBDA, build_named_basis, save_basis
from .classify import DEFAULT_SPLIT_RATIO, DEFAULT_SPLIT_SEED, accuracy_sweep
from .errors import InkBasisError, InvalidParameterError
from .ink import (
    InkTrace, SplineKind, _check_degree, _input_frame, _point_errors, load_pendigits,
    merge_strokes, parse_inkml,
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


def _write_csv(path, header: str, rows: list[str]) -> Path:
    """Write the header and rows as one CSV file and return its path, which main reports."""
    path = Path(path)
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    return path


def cmd_build_basis(args) -> str:
    save_basis(build_named_basis(args.basis, args.degree, args.lam), args.out)
    return args.out


def cmd_approximate(args) -> str:
    basis = build_named_basis(args.basis, args.degree, args.lam)
    _check_degree(basis.degree)
    traces = _load_traces(args.input)
    samples = np.linspace(-1.0, 1.0, 200)
    frames = list(_input_frame(traces, args.spline, basis, samples))  # every trace, then files
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for idx, knots, _, values in frames:
        for i, s, (xhat, yhat) in zip(idx.tolist(), knots, values):
            rows = [f"{_fmt(k)},{_fmt(x)},{_fmt(y)},original"
                    for k, (x, y) in zip(s, traces[i].points)]
            rows += [f"{_fmt(k)},{_fmt(x)},{_fmt(y)},approx"
                     for k, x, y in zip(samples, xhat, yhat)]
            _write_csv(outdir / _trace_file_name(i, traces[i].label), "s,x,y,kind", rows)
    return f"{len(traces)} files to {outdir}"


def cmd_reconstruct(args) -> Path:
    basis = build_named_basis(args.basis, args.degree, args.lam)
    _check_degree(basis.degree)
    traces = _load_traces(args.input)
    hats = [None] * len(traces)
    for idx, _, _, values in _input_frame(traces, args.spline, basis):
        for i, hat in zip(idx.tolist(), values):
            hats[i] = hat
    rows = []
    for i, (trace, (xhat, yhat)) in enumerate(zip(traces, hats)):
        rows += [f"{i},{j},original,{_fmt(x)},{_fmt(y)}" for j, (x, y) in enumerate(trace.points)]
        rows += [f"{i},{j},reconstructed,{_fmt(x)},{_fmt(y)}"
                 for j, (x, y) in enumerate(zip(xhat, yhat))]
    return _write_csv(args.out, "trace_id,point_index,kind,x,y", rows)


def cmd_error_sweep(args) -> Path:
    _check_degree(args.d_min)  # as for the other commands: degree 0 leaves no coefficient
    basis = build_named_basis(args.basis, args.d_max, args.lam)
    traces = _load_traces(args.input)
    errors = np.empty((len(traces), args.d_max + 1 - args.d_min))
    degrees = range(args.d_min, args.d_max + 1)
    for idx, _, d, values in _input_frame(traces, args.spline, basis, degrees=degrees):
        if d == args.d_min:  # a block's first degree
            points = np.stack([traces[i].points for i in idx.tolist()])
        errors[idx, d - args.d_min] = _point_errors(points, values)
    rows = [f"{i},{d},{_fmt(e)}" for i, per_degree in enumerate(errors.tolist())
            for d, e in enumerate(per_degree, start=args.d_min)]
    return _write_csv(args.out, "trace_id,degree,error", rows)


def cmd_knn_eval(args) -> str:
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
    out = _write_csv(args.out, "basis,k,accuracy,error_rate",
                     [f"{r['basis']},{r['k']},{_fmt(r['accuracy'])},{_fmt(r['error_rate'])}"
                      for r in rows])
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
    return f"{out} and {summary_path}"


# every option a command may read, by its flag, with its argparse keywords
_OPTIONS = {
    "input": dict(nargs="*", help="input file(s): InkML if .inkml or .xml, else pendigits"),
    "--basis": dict(choices=BASIS_KINDS, default="chebyshev-sobolev",
                    help="basis kind (default chebyshev-sobolev)"),
    "--lambda": dict(dest="lam", type=float, default=DEFAULT_LAMBDA,
                     help="derivative weight for the sobolev kinds (default %(default)s)"),
    "--degree": dict(type=int, default=10, help="truncation degree (default 10)"),
    "--d-min": dict(type=int, default=3, help="smallest degree (default 3)"),
    "--d-max": dict(type=int, default=20, help="largest degree (default 20)"),
    "--spline": dict(choices=[k.value for k in SplineKind], default=SplineKind.LINEAR.value,
                     help="interpolating spline order (default linear)"),
    "--k-min": dict(type=int, default=1),
    "--k-max": dict(type=int, default=10),
    "--seed": dict(type=int, default=DEFAULT_SPLIT_SEED, help="split seed (default 0)"),
    "--split": dict(type=float, default=DEFAULT_SPLIT_RATIO, help="training fraction (default 2/3)"),
    "--out": dict(required=True, help="output file (or directory for approximate)"),
}

# each command once: its handler, its help and the options it reads
_COMMANDS = {
    "build-basis": (cmd_build_basis, "construct a basis and export it as JSON",
                    ("--basis", "--lambda", "--degree", "--out")),
    "approximate": (cmd_approximate, "sample reconstructed curves (one CSV per trace)",
                    ("input", "--basis", "--lambda", "--degree", "--spline", "--out")),
    "reconstruct": (cmd_reconstruct, "reconstruct sample points at the knots (CSV)",
                    ("input", "--basis", "--lambda", "--degree", "--spline", "--out")),
    "error-sweep": (cmd_error_sweep, "reconstruction error per trace and degree (CSV)",
                    ("input", "--basis", "--lambda", "--d-min", "--d-max", "--spline", "--out")),
    "knn-eval": (cmd_knn_eval, "kNN accuracy table over the four basis kinds",
                 ("input", "--lambda", "--degree", "--spline", "--k-min", "--k-max", "--seed",
                  "--split", "--out")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="inkbasis",
        description="Orthogonal-series representation and classification of digital ink.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for option in options:
            p.add_argument(option, **_OPTIONS[option])
        p.set_defaults(func=func)
    return parser


def _validate(args, parser: argparse.ArgumentParser) -> None:
    """The ranges the CLI builds itself; the library checks every value it is given."""
    if hasattr(args, "k_min") and args.k_min > args.k_max:
        parser.error("need --k-min <= --k-max")
    if hasattr(args, "d_min") and args.d_min > args.d_max:
        parser.error("need --d-min <= --d-max")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate(args, parser)
    try:
        written = args.func(args)
    except (InkBasisError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {written}", file=sys.stderr)
    return 0


def run() -> int:
    """main's exit status, for a process that exits next: the collector is frozen once main ends."""
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
