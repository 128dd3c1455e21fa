"""inkbasis benchmark: one workload, one run, one JSON line.

    python3 inkbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ./src.  The
workloads, metrics and checks are described in inkbench/README.md.  With
--trace 0 the last stdout line carries the end-to-end metrics, with
--trace 1 the per-layer metrics of a traced run.  Everything the run writes
goes under .inkbench-work/ and is removed at the end.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".inkbench-work"

WORKLOADS = ("pendigits-knn", "long-sweep", "query-stream")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Input sizes: "full" is what the benchmark measures, "small" is the self-test.
SIZES = {
    "full": {"pen_traces": 1000, "sweep_traces": 6, "models": 5000},
    "small": {"pen_traces": 90, "sweep_traces": 2, "models": 300},
}
SETUP_REPS = 3        # fresh set-up processes per run; setup_s is their median
MIN_REPS = 2          # CLI repetitions per run, at least (byte-identity check)
COEFF_SAMPLE = 64     # pendigits traces whose coefficients are checked, per kind
SPLIT_SEED, SPLIT_RATIO = 0, 2.0 / 3.0
KS = list(range(1, 11))
SWEEP_REL_TOL = 1e-6  # relative tolerance on error-sweep's reconstruction errors
CHILD_TIMEOUT_S = 150.0
QUERY_WINDOW = 20     # consecutive queries per throughput window
QUERY_RATE = 12       # query-stream queries per --seconds (about 75 ms each)

UNITS = {"calls": "count", "self_s": "s", "us_p50": "us", "failed": "count", "bytes": "bytes"}


@dataclass
class Outcome:
    """What a run checked and measured."""

    attempted: int = 0
    reasons: Counter = field(default_factory=Counter)  # failed operations by reason
    errors: list = field(default_factory=list)         # run-level failures
    metrics: dict = field(default_factory=dict)        # name -> (value, unit)
    notes: list = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(self.reasons.values())


# ------------------------------------------------------------------ processes


def child_env(cap: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    env.update({v: str(cap) for v in BLAS_VARS})
    return env


def run_process(argv: list[str], env: dict, log: Path) -> tuple[float, int, float]:
    """Run a fresh process to completion: (wall s, exit code, peak RSS MB)."""
    with open(log, "wb") as out:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=out)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def child_argv(*args) -> list[str]:
    return [sys.executable, str(HERE / "child.py"), *map(str, args)]


def cli_argv(*args) -> list[str]:
    return [sys.executable, "-m", "inkbasis.cli", *map(str, args)]


def log_tail(path: Path) -> str:
    text = path.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return text[-1] if text else "(no output)"


# -------------------------------------------------------------- statistics


def tail_stat(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its value.

    With ten samples or fewer there is no such percentile; the maximum
    (p100) is reported instead.
    """
    v = sorted(values)
    n = len(v)
    if n <= 10:
        return 100.0, v[-1]
    return 100.0 * (n - 10) / n, v[n - 11]


def setup_probes(workload: str, work: Path, env: dict, out: Outcome) -> None:
    walls = []
    for r in range(SETUP_REPS):
        d = work / f"setup{r}"
        d.mkdir()
        if (work / "models.npz").exists():
            shutil.copy(work / "models.npz", d / "models.npz")
        wall, code, _ = run_process(child_argv("setup", workload, d), env, d / "log.txt")
        if code != 0:
            out.errors.append(f"set-up process exited {code}: {log_tail(d / 'log.txt')}")
            return
        walls.append(wall)
    out.metrics["setup_s"] = (statistics.median(walls), "s")
    out.notes.append(f"setup_s {statistics.median(walls):.4f} s (median of {len(walls)} fresh processes)")


# --------------------------------------------------------------- workloads


class Workload:
    """Inputs, CLI arguments (argv) and output checks (check) of a CLI workload.

    check(files, out) counts failed operations into out and returns the
    completed share of the work.
    """

    outputs: tuple[str, ...] = ()

    def __init__(self, seed: int, size: dict, work: Path, inject: str):
        self.seed, self.size, self.work, self.inject = seed, size, work, inject


class PendigitsKnn(Workload):
    outputs = ("knn.csv", "knn.summary.json")

    def __init__(self, *a):
        super().__init__(*a)
        import gen

        self.points, self.labels = gen.pendigits_traces(self.seed, self.size["pen_traces"])
        self.n_traces = len(self.labels)
        self.input = self.work / "digits.tra"
        gen.write_pendigits(self.input, self.points, self.labels)

    def argv(self, outdir):
        return [
            "knn-eval", self.input, "--degree", 10, "--spline", "linear", "--k-min", KS[0],
            "--k-max", KS[-1], "--seed", SPLIT_SEED, "--split", repr(SPLIT_RATIO),
            "--out", outdir / "knn.csv",
        ]

    def check(self, files, out):
        import numpy as np

        import inkbasis
        import oracle
        from child import LAMBDA, PEN_DEGREE

        n = len(self.labels)
        out.attempted = n
        lines = files["knn.csv"].decode().splitlines()
        acc = {(b, int(k)): float(a) for b, k, a, _ in (l.split(",") for l in lines[1:])}
        n_test = n - int(n * SPLIT_RATIO)
        if self.inject == "wrong":  # one test trace more counted correct than there was
            key = next(iter(acc))
            acc[key] += 1.0 / n_test
        traces = [p.astype(float) for p in self.points]
        sample = np.random.default_rng([self.seed, 9]).choice(n, min(COEFF_SAMPLE, n), replace=False)
        bad_coeffs: set[int] = set()
        knn_off = 0
        for kind in inkbasis.BASIS_KINDS:
            basis = inkbasis.build_named_basis(kind, PEN_DEGREE, LAMBDA)
            ref = oracle.linear_coeffs(traces, basis)
            correct = oracle.knn_correct_counts(ref, self.labels, basis.sq_norms[1:], KS, SPLIT_SEED, SPLIT_RATIO)
            for k in KS:
                if (kind, k) not in acc:
                    out.errors.append(f"knn.csv lacks the row {kind},{k}")
                    continue
                knn_off = max(knn_off, abs(round(acc[kind, k] * n_test) - correct[k]))
            for i in sample:
                c = inkbasis.symbol_coeffs(inkbasis.InkTrace(traces[i], label=self.labels[i]), basis)
                if oracle.coeff_error(c.xs, c.ys, ref[i]) > oracle.COEFF_ATOL:
                    bad_coeffs.add(int(i))
        summary = json.loads(files["knn.summary.json"])
        if summary.get("n_traces") != n:
            out.errors.append(f"summary n_traces {summary.get('n_traces')} != {n}")
        if bad_coeffs:
            out.reasons[f"coefficients off by more than {oracle.COEFF_ATOL:g} (sample of {len(sample)})"] += len(bad_coeffs)
        if knn_off:
            out.reasons["kNN accuracy differs from the brute-force reference (traces)"] += knn_off
        return 1.0 - out.failed / n


class LongSweep(Workload):
    outputs = ("err.csv",)

    def __init__(self, *a):
        super().__init__(*a)
        import gen

        self.traces = gen.sweep_traces(self.seed, self.size["sweep_traces"])
        self.n_traces = len(self.traces)
        self.input = self.work / "inkml"
        gen.write_sweep(self.input, self.traces)

    def argv(self, outdir):
        from child import LAMBDA, SWEEP_BASIS, SWEEP_DEGREES

        return [
            "error-sweep", self.input, "--basis", SWEEP_BASIS, "--lambda", LAMBDA,
            "--d-min", SWEEP_DEGREES[0], "--d-max", SWEEP_DEGREES[-1], "--spline", "linear",
            "--out", outdir / "err.csv",
        ]

    def check(self, files, out):
        import numpy as np
        from numpy.polynomial import chebyshev, legendre

        import inkbasis
        import oracle
        from child import LAMBDA, SWEEP_BASIS, SWEEP_DEGREES

        rows = {}
        for line in files["err.csv"].decode().splitlines()[1:]:
            i, d, e = line.split(",")
            rows[int(i), int(d)] = float(e)
        if self.inject == "wrong":
            rows[0, SWEEP_DEGREES[0]] *= 1.5
        out.attempted = len(self.traces) * len(SWEEP_DEGREES)
        normalized = [inkbasis.arc_length_normalize(inkbasis.InkTrace(p)) for p in self.traces]
        points = [oracle.collapse(p) for p in self.traces]
        knots = [oracle.linear_curve(p)[0] for p in points]
        lengths = [float(np.sum(np.hypot(*np.diff(p, axis=0).T))) for p in points]
        coeff_bad, err_bad, missing = [], [], 0
        for d in SWEEP_DEGREES:
            basis = inkbasis.build_named_basis(SWEEP_BASIS, d, LAMBDA)
            ref = oracle.linear_coeffs(self.traces, basis)
            vander = chebyshev.chebvander if basis.spec.weight.value == "inverse_sqrt" else legendre.legvander
            for i, pts in enumerate(points):
                got = rows.get((i, d))
                if got is None or not math.isfinite(got):
                    missing += 1
                    continue
                c = inkbasis.to_coeffs(normalized[i], basis)
                cerr = oracle.coeff_error(c.xs, c.ys, ref[i])
                # the error rebuilt from the oracle coefficients, in the input frame
                hat = vander(knots[i], d) @ (basis.expansion.T @ ref[i]) * (lengths[i] / 2.0)
                want = float(np.sum(np.hypot(*(pts - hat).T)))
                if cerr > oracle.COEFF_ATOL:
                    coeff_bad.append((d, cerr))
                elif abs(got - want) > SWEEP_REL_TOL * want:
                    err_bad.append((d, abs(got - want) / want))
        if missing:
            out.reasons["error missing or not finite"] += missing
        for bad, what in ((coeff_bad, f"coefficients off by more than {oracle.COEFF_ATOL:g}"),
                          (err_bad, f"error differs from the reference by more than {SWEEP_REL_TOL:g} relative")):
            if bad:
                ds = [d for d, _ in bad]
                worst = max(v for _, v in bad)
                out.reasons[f"{what} (d={min(ds)}..{max(ds)}, worst {worst:.1e})"] += len(bad)
        return 1.0 - out.failed / out.attempted


def run_cli_workload(wl: Workload, args, env: dict, out: Outcome) -> None:
    if not args.trace:
        setup_probes(args.workload, wl.work, env, out)
    reps, spans = [], []
    t0 = perf_counter()
    while not out.errors and (len(reps) < MIN_REPS or perf_counter() - t0 < args.seconds):
        d = wl.work / f"rep{len(reps)}"
        d.mkdir()
        traced = args.trace and len(reps) % 2 == 1
        argv = child_argv("cli", d / "spans.json", *wl.argv(d)) if traced else cli_argv(*wl.argv(d))
        wall, code, rss = run_process(argv, env, d / "log.txt")
        if code != 0:
            out.errors.append(f"command exited {code}: {log_tail(d / 'log.txt')}")
            break
        reps.append((d, wall, rss, traced))
        if traced:
            spans.append(json.loads((d / "spans.json").read_text()))
    if out.errors:
        return
    first = {name: (reps[0][0] / name).read_bytes() for name in wl.outputs}
    for d, *_ in reps[1:]:
        for name in wl.outputs:
            if (d / name).read_bytes() != first[name]:
                out.errors.append(f"{name} differs between repetitions {reps[0][0].name} and {d.name}")
    if out.errors:
        return
    completed = wl.check(first, out)
    plain = [r for r in reps if not r[3]]
    walls = [w for _, w, _, _ in plain]
    if args.trace:
        import tracer

        out.metrics.update(layer_metrics(tracer.summarize(spans)))
        overhead = statistics.median(w for _, w, _, t in reps if t) / statistics.median(walls) - 1.0
        out.metrics["trace.overhead_frac"] = (overhead, "ratio")
        out.notes.append(f"trace.overhead_frac {overhead:.4f} ({len(spans)} traced and {len(plain)} plain command runs)")
        return
    traces = wl.n_traces
    pct, tail = tail_stat(walls)
    # traces_per_s is the rate of the slowest window (here: command run).  The
    # machine this was tuned on switches between speed levels for seconds to
    # minutes; a run's median lands on either level, its slowest window does
    # not (README.md).
    out.metrics.update(
        traces_per_s=(traces * completed / max(walls), "1/s"),
        query_tail_ms=(tail * 1e3, "ms"),
        completed_frac=(completed, "ratio"),
        peak_rss_mb=(statistics.median(r for _, _, r, _ in plain), "MB"),
    )
    out.notes.append(
        f"{len(walls)} command runs of {traces} traces, wall s: " + " ".join(f"{w:.3f}" for w in walls)
    )
    out.notes.append(
        f"one query is one command run: query_p50_ms {statistics.median(walls) * 1e3:.1f} (not gated), "
        f"query_tail_ms is p{pct:.1f} over {len(walls)}"
    )


def run_query_stream(args, size: dict, work: Path, env: dict, out: Outcome) -> None:
    import numpy as np

    import gen
    import inkbasis
    import oracle
    from child import LAMBDA, QUERY_BASIS, QUERY_DEGREE, QUERY_K

    basis = inkbasis.build_named_basis(QUERY_BASIS, QUERY_DEGREE, LAMBDA)
    traces, labels = gen.model_traces(args.seed, size["models"])
    coeffs = oracle.linear_coeffs(traces, basis)
    lengths = [float(np.sum(np.hypot(*np.diff(t, axis=0).T))) for t in traces]
    np.savez(
        work / "models.npz", xs=coeffs[:, 1:, 0], ys=coeffs[:, 1:, 1], x0=coeffs[:, 0, 0],
        y0=coeffs[:, 0, 1], length=np.array(lengths), labels=np.array(labels), basis_id=basis.basis_id,
    )
    if not args.trace:
        setup_probes("query-stream", work, env, out)
        if out.errors:
            return
    d = work / "stream"
    d.mkdir()
    shutil.copy(work / "models.npz", d / "models.npz")
    # A run sends a fixed number of distinct queries, about as many as take
    # --seconds, so that a seed always gives the same operations.  Traced,
    # they are all sent untraced and then again traced.
    n_queries = max(QUERY_WINDOW, round(args.seconds * QUERY_RATE))
    argv = child_argv("queries", d, args.seed, n_queries, int(args.trace), args.inject)
    _, code, rss = run_process(argv, env, d / "log.txt")
    if code != 0:
        out.errors.append(f"query client exited {code}: {log_tail(d / 'log.txt')}")
        return
    doc = json.loads((d / "results.json").read_text())
    results = doc["results"]
    if args.inject == "wrong":
        next(r for r in results if "error" not in r)["knn"] = "not-a-label"
    h = basis.sq_norms[1:]
    feats = oracle.features(coeffs)
    out.attempted = n_queries
    ok = [False] * n_queries
    for r in results:
        if "error" in r:
            out.reasons[re.sub(r"-?\d+(\.\d+)?(e-?\d+)?", "<n>", r["error"])[:120]] += 1
            continue
        _, pts, _ = gen.query(args.seed, r["i"])
        ref = oracle.cubic_coeffs(np.array(r["knots"]), r["length"], pts, basis)
        dist = oracle.sq_distances(np.r_[r["xs"], r["ys"]][None], feats, h)[0]
        best = int(np.argmin(dist))
        index, got = r["match"]
        if oracle.coeff_error(np.array(r["xs"]), np.array(r["ys"]), ref) > oracle.COEFF_ATOL:
            out.reasons[f"coefficients off by more than {oracle.COEFF_ATOL:g}"] += 1
        elif index != best or abs(got - dist[best]) > 1e-9 * max(1.0, dist[best]):
            out.reasons["match_symbol differs from brute force"] += 1
        elif oracle.knn_predictions(dist, labels, [QUERY_K])[QUERY_K] != r["knn"]:
            out.reasons["knn_classify differs from brute force"] += 1
        else:
            ok[r["i"]] = True
    answered = [r["ms"] for r in results if "error" not in r]
    if not answered:
        out.errors.append("no query was answered")
        return
    done = sum(ok[r["i"]] for r in results)
    if args.trace:
        import tracer

        spans = json.loads((d / "spans.json").read_text())
        out.metrics.update(layer_metrics(tracer.summarize([spans])))
        overhead = doc["wall_s"] / doc["untraced_wall_s"] - 1.0
        out.metrics["trace.overhead_frac"] = (overhead, "ratio")
        out.notes.append(f"trace.overhead_frac {overhead:.4f} over {len(results)} queries")
        return
    pct, tail = tail_stat(answered)
    rates, last_end = [], 0.0
    for k in range(QUERY_WINDOW, len(results) + 1, QUERY_WINDOW):
        window = results[k - QUERY_WINDOW : k]
        rates.append(sum(ok[r["i"]] for r in window) / (window[-1]["end_s"] - last_end))
        last_end = window[-1]["end_s"]
    out.metrics.update(
        traces_per_s=(min(rates or [done / doc["wall_s"]]), "1/s"),  # slowest window, as for the CLI
        query_tail_ms=(tail, "ms"),
        completed_frac=(1.0 - out.failed / out.attempted, "ratio"),
        peak_rss_mb=(rss, "MB"),
    )
    out.notes.append(
        f"{len(results)} queries against {len(labels)} models, {len(answered)} answered, "
        f"{done / doc['wall_s']:.3f} completed per second over the whole loop; "
        f"query_p50_ms {statistics.median(answered):.2f} (not gated), "
        f"query_tail_ms is p{pct:.1f} over {len(answered)}"
    )


def layer_metrics(values: dict[str, float]) -> dict:
    out = {}
    for name, value in values.items():
        stat = name.rsplit(".", 1)[1]
        unit = UNITS.get(stat, "ratio" if stat.endswith(("ratio", "frac")) else "count")
        out[name] = (value, unit)
    return out


# -------------------------------------------------------------------- main


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=tuple(SIZES), default="full", help=argparse.SUPPRESS)
    p.add_argument("--inject", choices=("none", "wrong", "raise"), default="none", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "inkbasis" / "__init__.py").is_file():
        print(f"error: no inkbasis sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    cap = len(os.sched_getaffinity(0))
    for v in BLAS_VARS:
        os.environ[v] = str(cap)
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(SRC), str(HERE)]

    import numpy
    import scipy

    import inkbasis

    if Path(inkbasis.__file__).resolve().parent != (SRC / "inkbasis").resolve():
        print(f"error: imported inkbasis from {inkbasis.__file__}, not {SRC}", file=sys.stderr)
        return 2
    env = child_env(cap)
    work = WORK / f"{args.workload}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    out = Outcome()
    size = SIZES[args.size]
    try:
        if args.workload == "query-stream":
            run_query_stream(args, size, work, env, out)
        else:
            cls = PendigitsKnn if args.workload == "pendigits-knn" else LongSweep
            run_cli_workload(cls(args.seed, size, work, args.inject), args, env, out)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    print(
        f"env python={sys.version.split()[0]} numpy={numpy.__version__} scipy={scipy.__version__} "
        f"nproc={cap} blas_threads={cap} ({'/'.join(BLAS_VARS)})"
    )
    print(f"workload {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} size={args.size}")
    for line in out.notes:
        print(line)
    frac = out.failed / out.attempted if out.attempted else 0.0
    print(f"failed_frac {frac:.6f} ({out.failed} of {out.attempted} operations failed)")
    for reason, n in out.reasons.most_common():
        print(f"  failed {n}: {reason}")
    for err in out.errors:
        print(f"error: {err}")
    for name, (value, unit) in out.metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    correct = not out.errors
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, out.attempted),
        "failed": out.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in out.metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
