"""Command-line interface: files in, CSV/JSON out, exit codes."""

import dataclasses
import gc
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from inkbasis import arc_length_normalize, bases, classify, cli, load_basis, reconstruct, to_coeffs
from inkbasis.cli import main

INKML_DOC = """<ink xmlns="http://www.w3.org/2003/InkML">
  <annotation type="truth">a</annotation>
  <trace>0 0, 10 2, 20 8, 30 18</trace>
  <trace>30 18, 40 30, 50 45</trace>
</ink>
"""

# 8-point integer prototypes in pendigits layout (16 coords + class)
_PROTO = {
    0: [(30, 90), (10, 60), (10, 30), (30, 5), (70, 5), (90, 30), (90, 60), (70, 90)],
    1: [(50, 95), (50, 80), (50, 65), (50, 50), (50, 35), (50, 20), (50, 10), (50, 0)],
    7: [(10, 90), (50, 90), (90, 90), (75, 65), (60, 45), (50, 30), (42, 15), (35, 0)],
}


def write_pendigits(path, per_class=12, seed=0):
    rng = np.random.default_rng(seed)
    lines = []
    for label, proto in _PROTO.items():
        for _ in range(per_class):
            pts = np.array(proto) + rng.integers(-2, 3, size=(8, 2))
            pts = np.clip(pts, 0, 100)
            flat = ",".join(str(int(v)) for v in pts.ravel())
            lines.append(f"{flat},{label}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return len(lines)


def mixed_pendigits(path):
    """Pendigits lines of 3, 5 and 8 distinct points, mixed: three buckets; returns the traces."""
    write_pendigits(path, per_class=2)
    lines = path.read_text().splitlines()
    for at, keep in ((1, 3), (4, 5), (2, 3)):  # repeated points drop
        pts = _PROTO[7][:keep] + _PROTO[7][keep - 1 : keep] * (8 - keep)
        lines.insert(at, ",".join(str(v) for xy in pts for v in xy) + ",7")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return cli._load_traces([str(path)])


def straight_line_pendigits(path):
    pts = [(10 * i, 10 * i) for i in range(8)]
    flat = ",".join(str(v) for xy in pts for v in xy)
    path.write_text(f"{flat},1\n", encoding="utf-8")


class TestBuildBasis:
    def test_writes_loadable_json(self, tmp_path):
        out = tmp_path / "basis.json"
        rc = main(["build-basis", "--basis", "chebyshev-sobolev", "--degree", "6",
                   "--out", str(out)])
        assert rc == 0
        basis = load_basis(out)
        assert basis.degree == 6
        assert basis.spec.lam == 0.125

    @pytest.mark.parametrize("kind", bases.BASIS_KINDS)
    def test_degree_zero_builds(self, tmp_path, kind):
        # only the commands that project need degree 1
        out, want = tmp_path / "d0.json", tmp_path / "want.json"
        assert main(["build-basis", "--basis", kind, "--degree", "0", "--out", str(out)]) == 0
        bases.save_basis(bases.build_named_basis(kind, 0), want)
        assert out.read_bytes() == want.read_bytes()
        assert load_basis(out).degree == 0

    def test_degree_above_limit_exits_2(self, tmp_path, capsys):
        out = tmp_path / "basis.json"
        assert main(["build-basis", "--degree", "101", "--out", str(out)]) == 2
        assert "exceeds" in capsys.readouterr().err
        assert not out.exists()

    def test_lambda_flag(self, tmp_path):
        out = tmp_path / "basis.json"
        assert main(["build-basis", "--basis", "legendre-sobolev", "--lambda", "0.5",
                     "--degree", "4", "--out", str(out)]) == 0
        assert load_basis(out).spec.lam == 0.5

    def test_lambda_whose_gram_overflows_exits_2(self, tmp_path, capsys):
        out = tmp_path / "big.json"
        assert main(["build-basis", "--basis", "chebyshev-sobolev", "--lambda", "1e308",
                     "--degree", "10", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "lambda 1e+308 is too large at degree 10" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("lam", ["nan", "inf", "-inf"])
    def test_non_finite_lambda_exits_2(self, tmp_path, capsys, lam):
        out = tmp_path / "basis.json"
        assert main(["build-basis", f"--lambda={lam}", "--degree", "3", "--out", str(out)]) == 2
        assert "lam must be finite and non-negative" in capsys.readouterr().err
        assert not out.exists()


class TestApproximate:
    def test_one_csv_per_trace(self, tmp_path):
        data = tmp_path / "digits.txt"
        n = write_pendigits(data, per_class=2)
        outdir = tmp_path / "approx"
        rc = main(["approximate", str(data), "--degree", "5", "--out", str(outdir)])
        assert rc == 0
        files = sorted(outdir.glob("*.csv"))
        assert len(files) == n
        header, *rows = files[0].read_text().strip().splitlines()
        assert header == "s,x,y,kind"
        kinds = {r.rsplit(",", 1)[1] for r in rows}
        assert kinds == {"original", "approx"}
        assert sum(r.endswith("approx") for r in rows) == 200

    def test_samples_are_the_library_reconstruction(self, tmp_path):
        # one table of the family at the shared samples serves every trace
        data = tmp_path / "digits.txt"
        traces = mixed_pendigits(data)
        outdir = tmp_path / "approx"
        assert main(["approximate", str(data), "--degree", "7", "--out", str(outdir)]) == 0
        basis = bases.build_named_basis("chebyshev-sobolev", 7)
        samples = np.linspace(-1.0, 1.0, 200)
        for i, trace in enumerate(traces):
            n = arc_length_normalize(trace)
            xhat, yhat = reconstruct(to_coeffs(n, basis), basis, samples)
            rows = (outdir / f"trace_{i:05d}_{trace.label}.csv").read_text().splitlines()
            assert [r for r in rows if r.endswith(",approx")] == [
                f"{s!r},{x!r},{y!r},approx"
                for s, x, y in zip(samples.tolist(), xhat.tolist(), yhat.tolist())]

    def test_missing_input_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("INKBASIS_DATA_DIR", raising=False)
        rc = main(["approximate", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "not found" in capsys.readouterr().err

    def test_degree_zero_rejected(self, tmp_path, capsys):
        data = tmp_path / "digits.txt"
        write_pendigits(data, per_class=2)
        outdir = tmp_path / "o"
        assert main(["approximate", str(data), "--degree", "0", "--out", str(outdir)]) == 2
        assert "error: basis degree must be at least 1" in capsys.readouterr().err.splitlines()
        assert not list(outdir.glob("*"))

    @pytest.mark.parametrize("spline", ["linear", "cubic"])
    def test_a_failing_trace_stops_the_run_before_any_file(self, tmp_path, capsys, spline):
        # every trace is normalized before the first file is written
        ok, far = tmp_path / "ok.inkml", tmp_path / "far.inkml"
        ok.write_text(INKML_DOC, encoding="utf-8")
        far.write_text('<ink xmlns="http://www.w3.org/2003/InkML">'
                       "<trace>1e308 0, 1e308 1, 1e308 2</trace></ink>", encoding="utf-8")
        outdir = tmp_path / "o"
        argv = ["approximate", str(ok), str(ok), str(far), str(ok), "--spline", spline]
        assert main([*argv, "--out", str(outdir)]) == 2
        assert capsys.readouterr().err.startswith("error: rescaled coordinates too large: ")
        assert not outdir.exists()

    def test_inkml_input(self, tmp_path):
        doc = tmp_path / "sym.inkml"
        doc.write_text(INKML_DOC, encoding="utf-8")
        outdir = tmp_path / "approx"
        assert main(["approximate", str(doc), "--out", str(outdir)]) == 0
        # strokes merge into one symbol, labeled from the annotation
        assert len(list(outdir.glob("*.csv"))) == 1
        assert list(outdir.glob("*_a.csv"))


class TestReconstruct:
    def test_row_counts(self, tmp_path):
        data = tmp_path / "digits.txt"
        straight_line_pendigits(data)
        out = tmp_path / "recon.csv"
        assert main(["reconstruct", str(data), "--degree", "4", "--out", str(out)]) == 0
        header, *rows = out.read_text().strip().splitlines()
        assert header == "trace_id,point_index,kind,x,y"
        assert sum(",original," in r for r in rows) == 8
        assert sum(",reconstructed," in r for r in rows) == 8

    @pytest.mark.parametrize("spline", ["linear", "cubic"])
    def test_rows_are_the_library_reconstruction(self, tmp_path, spline):
        data = tmp_path / "digits.txt"
        traces = mixed_pendigits(data)
        out = tmp_path / "recon.csv"
        assert main(["reconstruct", str(data), "--spline", spline, "--out", str(out)]) == 0
        basis = bases.build_named_basis("chebyshev-sobolev", 10)
        want = []
        for i, trace in enumerate(traces):
            n = arc_length_normalize(trace, spline)
            xhat, yhat = reconstruct(to_coeffs(n, basis), basis, n.knots)
            want += [f"{i},{j},reconstructed,{x!r},{y!r}"
                     for j, (x, y) in enumerate(zip(xhat.tolist(), yhat.tolist()))]
        assert [r for r in out.read_text().splitlines() if ",reconstructed," in r] == want

    def test_line_reconstructs_exactly(self, tmp_path):
        data = tmp_path / "digits.txt"
        straight_line_pendigits(data)
        out = tmp_path / "recon.csv"
        main(["reconstruct", str(data), "--degree", "4", "--out", str(out)])
        rows = out.read_text().strip().splitlines()[1:]
        orig = {r.split(",")[1]: r.split(",")[3:] for r in rows if ",original," in r}
        reco = {r.split(",")[1]: r.split(",")[3:] for r in rows if ",reconstructed," in r}
        for idx, (x, y) in orig.items():
            rx, ry = reco[idx]
            assert float(rx) == pytest.approx(float(x), abs=1e-8)
            assert float(ry) == pytest.approx(float(y), abs=1e-8)


class TestErrorSweep:
    @pytest.mark.parametrize("spline", ["linear", "cubic"])
    @pytest.mark.parametrize("kind", bases.BASIS_KINDS)
    def test_each_degree_is_the_representation_error_of_its_prefix(self, tmp_path, kind, spline):
        # one pass of the family recurrence per bucket gives every degree the bits of
        # representation_error on the prefix record, one trace at a time
        data = tmp_path / "digits.txt"
        traces = mixed_pendigits(data)
        out = tmp_path / "err.csv"
        assert main(["error-sweep", str(data), "--basis", kind, "--spline", spline,
                     "--d-min", "1", "--d-max", "12", "--out", str(out)]) == 0
        basis = bases.build_named_basis(kind, 12)
        want = []
        for i, trace in enumerate(traces):
            n = arc_length_normalize(trace, spline)
            c = to_coeffs(n, basis)
            for d in range(1, 13):
                prefix = dataclasses.replace(c, xs=c.xs[:d], ys=c.ys[:d])
                want.append(f"{i},{d},{classify.representation_error(trace, n, prefix, basis)!r}")
        assert out.read_text().splitlines()[1:] == want

    def test_straight_line_errors_are_tiny(self, tmp_path):
        data = tmp_path / "line.txt"
        straight_line_pendigits(data)
        out = tmp_path / "err.csv"
        rc = main(["error-sweep", str(data), "--d-min", "1", "--d-max", "8",
                   "--out", str(out)])
        assert rc == 0
        rows = out.read_text().strip().splitlines()[1:]
        assert len(rows) == 8
        assert all(float(r.split(",")[2]) <= 1e-8 for r in rows)

    def test_default_degree_range(self, tmp_path):
        data = tmp_path / "line.txt"
        straight_line_pendigits(data)
        out = tmp_path / "err.csv"
        assert main(["error-sweep", str(data), "--out", str(out)]) == 0
        degrees = [int(r.split(",")[1]) for r in out.read_text().strip().splitlines()[1:]]
        assert degrees == list(range(3, 21))

    def test_empty_input_gives_header_only(self, tmp_path):
        data = tmp_path / "empty.txt"
        data.write_text("", encoding="utf-8")
        out = tmp_path / "err.csv"
        assert main(["error-sweep", str(data), "--out", str(out)]) == 0
        assert out.read_text() == "trace_id,degree,error\n"

    @pytest.mark.parametrize("kind", bases.BASIS_KINDS)
    def test_degree_zero_builds(self, tmp_path, kind):
        # only the commands that project need degree 1
        out, want = tmp_path / "d0.json", tmp_path / "want.json"
        assert main(["build-basis", "--basis", kind, "--degree", "0", "--out", str(out)]) == 0
        bases.save_basis(bases.build_named_basis(kind, 0), want)
        assert out.read_bytes() == want.read_bytes()
        assert load_basis(out).degree == 0

    def test_degree_above_limit_exits_2(self, tmp_path, capsys):
        data = tmp_path / "line.txt"
        straight_line_pendigits(data)
        out = tmp_path / "err.csv"
        assert main(["error-sweep", str(data), "--d-max", "101", "--out", str(out)]) == 2
        assert "100" in capsys.readouterr().err
        assert not out.exists()

    def test_each_trace_is_projected_once(self, tmp_path, monkeypatch):
        # one moment pass per bucket of equal point counts, at --d-max, which
        # passes its curves in blocks; every degree truncates those moments
        data = tmp_path / "digits.txt"
        write_pendigits(data, per_class=2)
        lines = data.read_text().splitlines()
        for keep in (3, 5, 3):  # the repeated points drop: traces of 3 and 5 points
            pts = _PROTO[7][:keep] + _PROTO[7][keep - 1 : keep] * (8 - keep)
            lines.insert(2, ",".join(str(v) for xy in pts for v in xy) + ",7")
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
        calls = []
        real = bases._moments
        monkeypatch.setattr(bases, "_moments", lambda *a: calls.append(a[3]) or real(*a))
        out = tmp_path / "err.csv"
        assert main(["error-sweep", str(data), "--d-min", "2", "--d-max", "9",
                     "--out", str(out)]) == 0
        assert calls == [9] * 3
        rows = out.read_text().splitlines()[1:]
        assert [r.split(",")[:2] for r in rows] == [
            [str(i), str(d)] for i in range(len(lines)) for d in range(2, 10)]

    def test_one_basis_per_run(self, tmp_path, monkeypatch):
        # every degree is a prefix of the family at --d-max
        data = tmp_path / "digits.txt"
        write_pendigits(data, per_class=2)
        built = []
        real = cli.build_named_basis
        monkeypatch.setattr(cli, "build_named_basis",
                            lambda *a: built.append(real(*a)) or built[-1])
        out = tmp_path / "err.csv"
        assert main(["error-sweep", str(data), "--d-min", "2", "--d-max", "9",
                     "--out", str(out)]) == 0
        assert [b.degree for b in built] == [9]
        degrees = [int(r.split(",")[1]) for r in out.read_text().splitlines()[1:]]
        assert degrees == list(range(2, 10)) * 2 * len(_PROTO)

    def test_d_min_below_one_is_refused_on_empty_input(self, tmp_path, capsys):
        data = tmp_path / "empty.txt"
        data.write_text("", encoding="utf-8")
        out = tmp_path / "err.csv"
        assert main(["error-sweep", str(data), "--d-min", "0", "--out", str(out)]) == 2
        assert "basis degree must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_byte_identical_rerun(self, tmp_path):
        data = tmp_path / "digits.txt"
        write_pendigits(data, per_class=2)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["error-sweep", str(data), "--d-max", "6", "--out", str(out1)])
        main(["error-sweep", str(data), "--d-max", "6", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()


class TestKnnEval:
    def test_table_and_summary(self, tmp_path):
        data = tmp_path / "digits.txt"
        write_pendigits(data, per_class=12)
        out = tmp_path / "knn.csv"
        rc = main(["knn-eval", str(data), "--degree", "6", "--k-min", "1",
                   "--k-max", "10", "--out", str(out)])
        assert rc == 0
        header, *rows = out.read_text().strip().splitlines()
        assert header == "basis,k,accuracy,error_rate"
        assert len(rows) == 4 * 10
        summary = json.loads((tmp_path / "knn.summary.json").read_text())
        assert set(summary["best_basis_per_k"]) == {str(k) for k in range(1, 11)}

    def test_k_bounds_validated(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["knn-eval", "x.txt", "--k-min", "5", "--k-max", "2",
                  "--out", str(tmp_path / "o.csv")])
        assert exc.value.code == 2

    def test_byte_identical_rerun(self, tmp_path):
        data = tmp_path / "digits.txt"
        write_pendigits(data, per_class=6)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            main(["knn-eval", str(data), "--degree", "5", "--k-max", "3",
                  "--out", str(out)])
        assert out1.read_bytes() == out2.read_bytes()


class TestLibraryErrorsExit2:
    """Input the library rejects gives exit 2 and one error line, no traceback."""

    def run(self, capsys, argv, message):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"error: {message}" in err.splitlines()
        assert "Traceback" not in err

    def test_unlabeled_inkml_knn_eval(self, tmp_path, capsys):
        doc = tmp_path / "sym.inkml"
        doc.write_text(INKML_DOC.replace('<annotation type="truth">a</annotation>', ""))
        self.run(capsys, ["knn-eval", str(doc), "--out", str(tmp_path / "k.csv")],
                 "every dataset item needs a label")

    def test_inkml_without_strokes(self, tmp_path, capsys):
        doc = tmp_path / "empty.inkml"
        doc.write_text("<ink></ink>", encoding="utf-8")
        self.run(capsys, ["approximate", str(doc), "--out", str(tmp_path / "o")],
                 "no strokes to merge")

    def test_k_max_above_training_size(self, tmp_path, capsys):
        data = tmp_path / "three.txt"
        write_pendigits(data, per_class=1)
        self.run(capsys, ["knn-eval", str(data), "--out", str(tmp_path / "k.csv")],
                 "k=10 exceeds training size 2")

    @pytest.mark.parametrize(
        "points, spline, message",
        [
            ("0 0, nan 1, 2 2, 3 5", "cubic", "trace coordinates must be finite"),
            ("0 0, inf 1, 2 2, 3 5", "cubic", "trace coordinates must be finite"),
            ("0 0, nan 1, 2 2, 3 5", "linear", "trace coordinates must be finite"),
            ("0 0, 1e300 1, 2 2", "cubic", "cubic fit is not finite: "),
        ],
        ids=["nan-cubic", "inf-cubic", "nan-linear", "overflow-cubic"],
    )
    def test_non_finite_or_overflowing_points(self, tmp_path, capsys, points, spline, message):
        doc = tmp_path / "bad.inkml"
        doc.write_text(f"<ink><trace>{points}</trace></ink>", encoding="utf-8")
        argv = ["reconstruct", str(doc), "--spline", spline, "--out", str(tmp_path / "r.csv")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert any(line.startswith(f"error: {message}") for line in err.splitlines())
        assert "Traceback" not in err and "Warning" not in err

    def test_pendigits_field_too_large_for_a_float(self, tmp_path, capsys):
        data = tmp_path / "huge.txt"
        write_pendigits(data, per_class=2)
        with open(data, "a", encoding="utf-8") as fh:
            fh.write(",".join(["1"] * 15 + ["9" * 400, "3"]) + "\n")
        self.run(capsys, ["knn-eval", str(data), "--out", str(tmp_path / "k.csv")],
                 "line 7: coordinate too large for a float")

    def test_pendigits_not_utf8(self, tmp_path, capsys):
        data = tmp_path / "latin1.txt"
        write_pendigits(data, per_class=2)
        with open(data, "ab") as fh:
            fh.write(b"1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,\xe93\n")
        self.run(capsys, ["knn-eval", str(data), "--out", str(tmp_path / "k.csv")],
                 "line 7: not UTF-8 text: invalid continuation byte")

    def test_negative_split_seed(self, tmp_path, capsys):
        data = tmp_path / "digits.txt"
        write_pendigits(data, per_class=2)
        self.run(capsys, ["knn-eval", str(data), "--seed", "-1", "--out", str(tmp_path / "k.csv")],
                 "split_seed must be a non-negative integer, got -1")

    def test_empty_pendigits_knn_eval(self, tmp_path, capsys):
        data = tmp_path / "empty.txt"
        data.write_text("", encoding="utf-8")
        self.run(capsys, ["knn-eval", str(data), "--out", str(tmp_path / "k.csv")],
                 "no traces supplied")


class TestDataDirResolution:
    def test_relative_path_resolves_through_env(self, tmp_path, monkeypatch):
        data = tmp_path / "digits.txt"
        write_pendigits(data, per_class=2)
        monkeypatch.setenv("INKBASIS_DATA_DIR", str(tmp_path))
        monkeypatch.chdir(tmp_path / "..")
        out = tmp_path / "err.csv"
        assert main(["error-sweep", "digits.txt", "--d-max", "4", "--out", str(out)]) == 0

    def test_default_pendigits_discovery(self, tmp_path, monkeypatch):
        write_pendigits(tmp_path / "pendigits.tra", per_class=2)
        monkeypatch.setenv("INKBASIS_DATA_DIR", str(tmp_path))
        out = tmp_path / "err.csv"
        assert main(["error-sweep", "--d-max", "4", "--out", str(out)]) == 0

    def test_no_input_no_env_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("INKBASIS_DATA_DIR", raising=False)
        rc = main(["error-sweep", "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        assert "INKBASIS_DATA_DIR" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, option",
    [
        ("knn-eval", ["--basis", "legendre"]),
        ("error-sweep", ["--degree", "5"]),
        ("build-basis", ["--spline", "cubic"]),
        ("knn-eval", ["--format", "inkml"]),
    ],
    ids=["knn-eval-basis", "error-sweep-degree", "build-basis-spline", "knn-eval-format"],
)
def test_option_the_command_does_not_read_exits_2(tmp_path, capsys, command, option):
    data = tmp_path / "digits.txt"
    write_pendigits(data, per_class=4)
    inputs = [] if command == "build-basis" else [str(data)]
    out = tmp_path / "o.csv"
    with pytest.raises(SystemExit) as exc:
        main([command, *inputs, *option, "--out", str(out)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option[0]}" in capsys.readouterr().err
    assert not out.exists()


def _refusals():
    """(command, options, message) for every refusal of a parameter the CLI is given."""
    for lam in ("nan", "inf", "-1"):
        for command in ("build-basis", "approximate", "reconstruct", "error-sweep", "knn-eval"):
            yield command, [f"--lambda={lam}"], "lam must be finite and non-negative"
            if command != "knn-eval":
                yield (command, ["--basis", "legendre", f"--lambda={lam}"],
                       "lam must be finite and non-negative")
    for command in ("approximate", "reconstruct", "knn-eval"):
        yield command, ["--degree", "0"], "basis degree must be at least 1"
    for command in ("build-basis", "approximate", "reconstruct", "knn-eval"):
        yield command, ["--degree", "101"], "degree 101 exceeds the verified limit 100"
    yield "error-sweep", ["--d-min", "0"], "basis degree must be at least 1"
    yield "error-sweep", ["--d-min", "-5"], "basis degree must be at least 1"
    yield "error-sweep", ["--d-max", "101"], "degree 101 exceeds the verified limit 100"
    yield "error-sweep", ["--d-min", "6", "--d-max", "5"], "need --d-min <= --d-max"
    yield "knn-eval", ["--split", "0"], "split_ratio must lie in (0, 1)"
    yield "knn-eval", ["--split", "1.5"], "split_ratio must lie in (0, 1)"
    yield "knn-eval", ["--k-min", "0"], "every k must be in [1, 12]"
    yield "knn-eval", ["--k-min", "5", "--k-max", "2"], "need --k-min <= --k-max"


@pytest.mark.parametrize(
    "command, options, message",
    [pytest.param(*case, id=" ".join([case[0], *case[1]])) for case in _refusals()],
)
def test_every_refusal_exits_2_with_one_error_line_and_no_data_file(
    tmp_path, capsys, command, options, message
):
    data = tmp_path / "digits.txt"
    write_pendigits(data, per_class=6)
    inputs = [] if command == "build-basis" else [str(data)]
    out = tmp_path / "out" / "o.csv"
    out.parent.mkdir()
    try:
        code = main([command, *inputs, *options, "--out", str(out)])
    except SystemExit as exc:  # the ranges the CLI checks itself, through argparse
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and message in errors[0]
    assert "Traceback" not in err
    assert not [p for p in (tmp_path / "out").rglob("*") if p.is_file()]


@pytest.mark.parametrize(
    "command, options, message",
    [pytest.param(command, options, message, id=" ".join([command, *options]))
     for command in ("approximate", "reconstruct", "error-sweep")
     for options, message in [
         (["--lambda=nan"], "lam must be finite"),
         (["--basis", "legendre", "--lambda=-1"], "lam must be finite"),
         (["--d-max" if command == "error-sweep" else "--degree", "101"],
          "degree 101 exceeds the verified limit 100"),
     ]]
    + [pytest.param(command, [option, "0"], "basis degree must be at least 1",
                    id=f"{command} {option} 0")
       for command, option in [("error-sweep", "--d-min"), ("approximate", "--degree"),
                               ("reconstruct", "--degree")]],
)
def test_parameter_errors_come_before_the_input_is_read(
    tmp_path, capsys, monkeypatch, command, options, message
):
    monkeypatch.delenv("INKBASIS_DATA_DIR", raising=False)
    argv = [command, str(tmp_path / "missing.txt"), *options, "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert message in err and "not found" not in err


@pytest.mark.parametrize(
    "options, message",
    [(["--lambda=nan"], "lam must be finite"), (["--degree", "101"], "exceeds the verified"),
     (["--split", "0"], "split_ratio must lie"), (["--split", "1.5"], "split_ratio must lie"),
     (["--degree", "0"], "basis degree must be at least 1")],
    ids=["nan-lambda", "degree-101", "split-0", "split-1.5", "degree-0"],
)
def test_knn_eval_refuses_parameters_before_any_trace_is_normalized(
    tmp_path, capsys, monkeypatch, options, message
):
    normalized = []
    real = classify._corpus
    monkeypatch.setattr(classify, "_corpus",
                        lambda *a: normalized.append(a) or real(*a))
    data = tmp_path / "digits.txt"
    write_pendigits(data, per_class=6)
    assert main(["knn-eval", str(data), *options, "--out", str(tmp_path / "k.csv")]) == 2
    assert message in capsys.readouterr().err
    assert normalized == []


@pytest.mark.parametrize("command", ["reconstruct", "knn-eval"])
def test_spline_choices_print_by_value(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "--spline {linear,cubic}" in out and "SplineKind" not in out


GOLDEN = Path(__file__).parent / "data" / "cli_golden"
GOLDEN_LINES = (GOLDEN / "pendigits.txt").read_text(encoding="utf-8").splitlines()


def cli_process(*argv, cwd):
    """Run python -m inkbasis.cli in a fresh process, as a user or the benchmark does."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "inkbasis.cli", *map(str, argv)], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=120)


class TestProcessExit:
    """A CLI process freezes the collector once main returns; main itself leaves it alone."""

    def test_main_leaves_the_collector_unfrozen(self, tmp_path):
        before = gc.get_freeze_count()
        assert main(["knn-eval", str(GOLDEN / "pendigits.txt"), "--out",
                     str(tmp_path / "k.csv")]) == 0
        assert gc.get_freeze_count() == before

    def test_module_run_writes_the_golden_bytes(self, tmp_path):
        done = cli_process("knn-eval", GOLDEN / "pendigits.txt", "--out", "knn_eval.csv",
                           cwd=tmp_path)
        assert done.returncode == 0, done.stderr
        assert done.stderr == "wrote knn_eval.csv and knn_eval.summary.json\n"
        for name in ("knn_eval.csv", "knn_eval.summary.json"):
            assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name

    def test_module_run_exits_2_on_a_malformed_file(self, tmp_path):
        lines = list(GOLDEN_LINES)
        lines[4] = lines[4].replace(",", ";", 1)
        (tmp_path / "bad.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
        done = cli_process("knn-eval", "bad.txt", "--out", "k.csv", cwd=tmp_path)
        assert done.returncode == 2
        assert done.stderr == "error: line 5: expected 17 fields, got 16\n"
        assert not (tmp_path / "k.csv").exists()


# field values a mutation writes: non-integer, huge and non-finite text among integers
_FIELDS = st.one_of(
    st.integers(-(10**6), 10**6).map(str),
    st.sampled_from(["", " ", "1.5", "1e3", "abc", "nan", "inf", "-inf", "0x10", "1_000",
                     "9" * 400, "-" + "9" * 400, "1" + "0" * 308, "-1" + "0" * 154,
                     "1" + "0" * 160, "7" * 20, "\u0663", "5,5", "1\n2"]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=4),
)


@st.composite
def mutated_pendigits(draw):
    """The golden pendigits lines with one to three lines truncated, or a field changed,
    dropped or added."""
    lines = list(GOLDEN_LINES)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        fields = lines[i].split(",")
        j = draw(st.integers(0, len(fields) - 1))
        kind = draw(st.sampled_from(["truncate", "replace", "drop", "add"]))
        if kind == "truncate":
            lines[i] = lines[i][: draw(st.integers(0, len(lines[i])))]
            continue
        if kind == "replace":
            fields[j] = draw(_FIELDS)
        elif kind == "drop":
            del fields[j]
        else:
            fields.insert(j, draw(_FIELDS))
        lines[i] = ",".join(fields)
    return "\n".join(lines) + "\n"


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutated_pendigits())
def test_knn_eval_on_mutated_pendigits_exits_0_or_2_without_a_traceback(tmp_path, capsys, text):
    # an exception main does not turn into exit 2 would end a process with exit 1
    # and a traceback; here it fails the test
    data = tmp_path / "digits.txt"
    data.write_text(text, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning on stderr would be wrong numbers
        code = main(["knn-eval", str(data), "--out", str(tmp_path / "k.csv")])
    err = capsys.readouterr().err
    assert code in (0, 2)
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1


GOLDEN_WALK = (GOLDEN / "walk_0.inkml").read_text(encoding="utf-8")

# channel values a mutation writes: text, non-finite and huge values among coordinates
_CHANNELS = st.one_of(
    st.floats(-1e3, 1e3).map(repr),
    st.floats(1e154, 1e308).map(repr),
    st.floats(-1e308, -1e154).map(repr),
    st.sampled_from(["", "nan", "-nan", "inf", "-inf", "1e309", "abc", "0x10", "1,5", "<", "&"]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=4),
)


@st.composite
def mutated_inkml(draw):
    """The golden walk_0.inkml truncated, or with one to three points given a channel
    changed, dropped or added; a point left with no channel can only gain one."""
    if draw(st.booleans()):
        return GOLDEN_WALK[: draw(st.integers(0, len(GOLDEN_WALK) - 1))]
    head, rest = GOLDEN_WALK.split("<trace>")
    points, tail = rest.split("</trace>")
    points = [p.split() for p in points.split(",")]
    for _ in range(draw(st.integers(1, 3))):
        channels = points[draw(st.integers(0, len(points) - 1))]
        kind = draw(st.sampled_from(["replace", "drop", "add"] if channels else ["add"]))
        j = draw(st.integers(0, len(channels) - (kind != "add")))  # add may also append
        if kind == "replace":
            channels[j] = draw(_CHANNELS)
        elif kind == "drop":
            del channels[j]
        else:
            channels.insert(j, draw(_CHANNELS))
    return f"{head}<trace>{', '.join(map(' '.join, points))}</trace>{tail}"


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutated_inkml())
def test_inkml_commands_on_mutated_walks_exit_0_or_2_without_a_traceback(tmp_path, capsys, text):
    data = tmp_path / "walk.inkml"
    data.write_text(text, encoding="utf-8")
    for command, out in (("error-sweep", "e.csv"), ("approximate", "approx")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning on stderr would be wrong numbers
            code = main([command, str(data), "--out", str(tmp_path / out)])
        err = capsys.readouterr().err
        assert code in (0, 2), command
        assert "Traceback" not in err
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, command
