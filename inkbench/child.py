"""Code the benchmark runs in fresh processes.

  child.py setup <workload> <workdir>
      the workload's set-up alone: import inkbasis, build every basis the
      workload uses and, for query-stream, write the model set with
      write_coeffs_jsonl and read it back.
  child.py cli <spans.json> <inkbasis cli arguments...>
      one traced CLI command; the spans are written to spans.json.
  child.py queries <workdir> <seed> <n_queries> <trace 0|1> <inject>
      the query-stream client: set-up, then a closed loop with one client
      over the seed's first n_queries queries.  Results go to
      <workdir>/results.json.

Run with PYTHONPATH pointing at the checkout's src directory.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

LAMBDA = 0.125
PEN_DEGREE = 10
SWEEP_DEGREES = range(3, 41)
QUERY_DEGREE = 10
QUERY_K = 5
QUERY_BASIS = "chebyshev-sobolev"
SWEEP_BASIS = "chebyshev-sobolev"
BROKEN_QUERY = b"<ink><trace>0 0, 1 1</trace>"  # injected by the self-test; never parses


def _bases(workload: str):
    import inkbasis

    if workload == "pendigits-knn":
        return [inkbasis.build_named_basis(k, PEN_DEGREE, LAMBDA) for k in inkbasis.BASIS_KINDS]
    if workload == "long-sweep":
        return [inkbasis.build_named_basis(SWEEP_BASIS, d, LAMBDA) for d in SWEEP_DEGREES]
    return [inkbasis.build_named_basis(QUERY_BASIS, QUERY_DEGREE, LAMBDA)]


def setup(workload: str, workdir: Path):
    """Everything a workload does before its first trace."""
    import inkbasis
    import inkbasis.cli  # noqa: F401  (the CLI workloads start here)

    bases = _bases(workload)
    if workload != "query-stream":
        return bases, None, None
    arrays = np.load(workdir / "models.npz")
    basis_id = str(arrays["basis_id"])
    records = [
        inkbasis.SymbolCoeffs(basis_id, xs, ys, label=str(lab), x0=float(x0), y0=float(y0), length=float(n))
        for xs, ys, lab, x0, y0, n in zip(
            arrays["xs"], arrays["ys"], arrays["labels"], arrays["x0"], arrays["y0"], arrays["length"]
        )
    ]
    path = workdir / "models.jsonl"
    inkbasis.write_coeffs_jsonl(records, path)
    models = inkbasis.read_coeffs_jsonl(path)
    return bases, models, inkbasis.LabeledDataset(tuple(models))


def _answer(doc: bytes, basis, models, train) -> dict:
    import inkbasis

    trace = inkbasis.merge_strokes(inkbasis.parse_inkml(doc))
    norm = inkbasis.arc_length_normalize(trace, inkbasis.SplineKind.CUBIC)
    sample = inkbasis.to_coeffs(norm, basis, label=trace.label)
    index, dist = inkbasis.match_symbol(sample, models, basis)
    label = inkbasis.knn_classify(train, sample, QUERY_K, basis)
    return {
        "knots": norm.knots.tolist(),
        "length": norm.total_length,
        "xs": sample.xs.tolist(),
        "ys": sample.ys.tolist(),
        "match": [index, dist],
        "knn": label,
    }


def query_loop(docs, basis, models, train, tracer=None):
    """Closed loop, one client: query i+1 is sent when query i is answered.

    A query's latency runs from its document to both answers.  A query that
    raises is recorded with its exception.
    """
    results = []
    t0 = perf_counter()
    for i, doc in enumerate(docs):
        if tracer is not None:
            tracer.op = i
        start = perf_counter()
        try:
            if tracer is not None:
                with tracer.root("query", i):
                    out = _answer(doc, basis, models, train)
            else:
                out = _answer(doc, basis, models, train)
        except Exception as exc:  # any failure is one failed query; keep the loop going
            out = {"error": f"{type(exc).__name__}: {exc}"}
        end = perf_counter()
        out["ms"] = (end - start) * 1e3
        out["end_s"] = end - t0
        out["i"] = i
        results.append(out)
    return results, perf_counter() - t0


def cmd_queries(workdir: Path, seed: int, n_queries: int, trace: bool, inject: str) -> None:
    import gen

    # The documents are made before the loop, so generating them is not timed.
    docs = [gen.query(seed, i)[0] for i in range(n_queries)]
    if inject == "raise":
        docs[0] = BROKEN_QUERY
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    t0 = perf_counter()
    (basis,), models, train = setup("query-stream", workdir)
    setup_s = perf_counter() - t0
    doc = {"setup_s": setup_s}
    if not trace:
        results, wall = query_loop(docs, basis, models, train)
    else:
        # The queries untraced, then the same queries traced: the ratio of
        # the two wall times is the tracing overhead.
        tracer.uninstall()
        _, plain_wall = query_loop(docs, basis, models, train)
        tracer.install()
        results, wall = query_loop(docs, basis, models, train, tracer)
        tracer.uninstall()
        tracer.save(workdir / "spans.json")
        doc["untraced_wall_s"] = plain_wall
    doc.update(results=results, wall_s=wall)
    (workdir / "results.json").write_text(json.dumps(doc), encoding="utf-8")


def cmd_cli(spans_path: str, argv: list[str]) -> int:
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    import inkbasis.cli

    with tracer.root("cli"):
        code = inkbasis.cli.main(argv)
    tracer.uninstall()
    tracer.save(spans_path)
    return code


def main(argv: list[str]) -> int:
    sys.dont_write_bytecode = True
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        setup(rest[0], Path(rest[1]))
        return 0
    if mode == "cli":
        return cmd_cli(rest[0], rest[1:])
    if mode == "queries":
        cmd_queries(Path(rest[0]), int(rest[1]), int(rest[2]), rest[3] == "1", rest[4])
        return 0
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
