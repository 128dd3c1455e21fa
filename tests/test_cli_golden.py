"""Byte-level golden files for CLI data outputs.

Each case runs one CLI command on the small inputs under
tests/data/cli_golden/ and compares every file it writes with the
committed copy, byte for byte.  The inputs come from inkbench/gen.py:
60 pendigits lines (seed 1) and two InkML random walks of 100 and 1000
points (seed 2).  reconstruct_mixed.txt holds the first 21 of those lines
with some points repeated in place, so that its lines hold 2 to 8 distinct
points, three lines of each count in shuffled order: seven buckets, crossed.

An intended change of output bytes is re-baselined with

    PYTHONPATH=src python tests/test_cli_golden.py

which rewrites the expected files; the diff then shows every changed row.
"""

from pathlib import Path

import pytest

from inkbasis.cli import main

DATA = Path(__file__).parent / "data" / "cli_golden"
PENDIGITS = DATA / "pendigits.txt"
MIXED = DATA / "reconstruct_mixed.txt"
WALKS = [DATA / "walk_0.inkml", DATA / "walk_1.inkml"]

# name -> (argv without --out, the files the command writes, relative to --out's parent);
# --out is the first file, or the directory that holds it
CASES = {
    "approximate": (
        ["approximate", *map(str, WALKS)],
        ["approximate/trace_00000_w.csv", "approximate/trace_00001_w.csv"],
    ),
    "knn_eval": (
        ["knn-eval", str(PENDIGITS)],
        ["knn_eval.csv", "knn_eval.summary.json"],
    ),
    "knn_eval_cubic": (
        ["knn-eval", str(PENDIGITS), "--spline", "cubic"],
        ["knn_eval_cubic.csv", "knn_eval_cubic.summary.json"],
    ),
    "error_sweep": (
        ["error-sweep", *map(str, WALKS), "--basis", "chebyshev-sobolev",
         "--d-min", "3", "--d-max", "12"],
        ["error_sweep.csv"],
    ),
    "error_sweep_chebyshev": (
        ["error-sweep", *map(str, WALKS), "--basis", "chebyshev", "--d-min", "3", "--d-max", "40"],
        ["error_sweep_chebyshev.csv"],
    ),
    "error_sweep_legendre": (
        ["error-sweep", *map(str, WALKS), "--basis", "legendre", "--d-min", "3", "--d-max", "40"],
        ["error_sweep_legendre.csv"],
    ),
    "error_sweep_cubic": (
        ["error-sweep", *map(str, WALKS), "--basis", "chebyshev-sobolev", "--spline", "cubic",
         "--d-min", "3", "--d-max", "40"],
        ["error_sweep_cubic.csv"],
    ),
    "error_sweep_legendre_sobolev": (
        ["error-sweep", *map(str, WALKS), "--basis", "legendre-sobolev",
         "--d-min", "3", "--d-max", "40"],
        ["error_sweep_legendre_sobolev.csv"],
    ),
    "reconstruct_cubic": (
        ["reconstruct", str(PENDIGITS), "--spline", "cubic"],
        ["reconstruct_cubic.csv"],
    ),
    "reconstruct_mixed": (
        ["reconstruct", str(MIXED), "--basis", "chebyshev-sobolev", "--degree", "10",
         "--spline", "linear"],
        ["reconstruct_mixed.csv"],
    ),
}


def run_case(name: str, outdir: Path) -> list[str]:
    """Run one case with its output under outdir; return the files it wrote, relative to outdir."""
    argv, files = CASES[name]
    assert main([*argv, "--out", str(outdir / Path(files[0]).parts[0])]) == 0
    return files


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bytes_match_golden(name, tmp_path):
    for file in run_case(name, tmp_path):
        expected = (DATA / file).read_bytes()
        assert (tmp_path / file).read_bytes() == expected, f"{file} differs from the golden copy"


if __name__ == "__main__":
    for case in CASES:
        run_case(case, DATA)
