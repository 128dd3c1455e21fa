"""Spans around the library's public functions, installed from outside.

Tracer.install() replaces each wrapped function in every loaded inkbasis
module namespace that holds it, so calls from one module into another
(classify -> ink.symbol_coeffs -> bases.project) are seen too.  Nothing in
the library is edited; uninstall() puts the originals back.

A span is (name, start, end, parent, op, failed, count).  op is the id of
the trace or query the work belongs to; count is the work counter recorded
at that boundary (bytes parsed, segment terms projected, distance pairs,
models scanned).  Spans stay in memory until save().
"""

from __future__ import annotations

import json
import os
import sys
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# module -> functions wrapped.  coeff_distance_sq and inner_closed_form are
# left out on purpose: they are the inner loops of match_symbol and
# build_basis, and a span per call would swamp the measurement.
WRAPPED = {
    "ink": (
        "parse_pendigits", "parse_inkml", "merge_strokes", "load_pendigits", "load_inkml",
        "arc_length_normalize", "to_coeffs", "symbol_coeffs",
        "write_coeffs_jsonl", "read_coeffs_jsonl",
    ),
    "bases": ("build_basis", "build_named_basis", "project"),
    "classify": (
        "knn_accuracy", "knn_classify", "match_symbol", "representation_error", "accuracy_sweep",
    ),
}

# function -> reported layer group; the rest are summed into other.self_s
GROUPS = {
    "parse_pendigits": "ink.parse",
    "parse_inkml": "ink.parse",
    "merge_strokes": "ink.parse",
    "write_coeffs_jsonl": "ink.coeffs_jsonl_write",
    "read_coeffs_jsonl": "ink.coeffs_jsonl_read",
    "build_basis": "bases.build",
    "project": "bases.project",
    "knn_accuracy": "classify.knn_accuracy",
    "knn_classify": "classify.knn_classify",
    "match_symbol": "classify.match_symbol",
    "representation_error": "classify.representation_error",
}

# group -> stats reported for it ("failed" only where a call can fail)
REPORTED = {
    "ink.parse": ("calls", "self_s", "us_p50", "failed", "bytes"),
    "ink.normalize_linear": ("calls", "self_s", "us_p50", "failed"),
    "ink.normalize_cubic": ("calls", "self_s", "us_p50", "failed"),
    "bases.build": ("calls", "self_s", "us_p50"),
    "bases.project": ("calls", "self_s", "us_p50", "failed"),
    "classify.knn_accuracy": ("calls", "self_s", "us_p50"),
    "classify.match_symbol": ("calls", "self_s", "us_p50", "failed"),
    "classify.knn_classify": ("calls", "self_s", "us_p50", "failed"),
    "classify.representation_error": ("calls", "self_s", "us_p50", "failed"),
    "ink.coeffs_jsonl_write": ("calls", "self_s", "us_p50", "bytes"),
    "ink.coeffs_jsonl_read": ("calls", "self_s", "us_p50", "bytes"),
}
# counters recorded at a boundary and reported under their own names
COUNTERS = {
    "bases.project": "bases.project.seg_terms",
    "classify.knn_accuracy": "classify.dist_pairs",
    "classify.match_symbol": "classify.models_scanned",
    "classify.knn_classify": "classify.models_scanned",
}


def _counted_lines(lines, tally: list):
    for line in lines:
        tally[0] += len(line)
        yield line


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.op = -1
        self.trace_ids: dict[int, int] = {}
        self.normalized: set = set()
        self.built: set = set()
        self._originals: list = []

    # -- spans

    def _open(self, name: str, op: int | None = None) -> int:
        parent = self.stack[-1] if self.stack else -1
        if op is None:
            op = self.spans[parent][4] if parent >= 0 else self.op
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, parent, op, 0, 0])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int, failed: bool, count: int = 0) -> None:
        span = self.spans[idx]
        span[2] = perf_counter()
        span[5] = int(failed)
        span[6] += count
        self.stack.pop()

    @contextmanager
    def root(self, name: str, op: int = -1):
        """A root span: the CLI command or one query."""
        idx = self._open(name, op)
        failed = True
        try:
            yield
            failed = False
        finally:
            self._close(idx, failed)

    # -- wrapping

    def _enter(self, fn_name: str, args, kwargs) -> tuple[str, int]:
        """Span name and the work counter known at call time.

        Also records the keys behind the useful ratios: distinct
        (points, spline) pairs normalized and distinct bases built.
        """
        name, count = GROUPS.get(fn_name, fn_name), 0
        if fn_name == "arc_length_normalize":
            spline = kwargs.get("spline", args[1] if len(args) > 1 else "linear")
            spline = str(getattr(spline, "value", spline))
            name = "ink.normalize_" + spline
            self.normalized.add((args[0].points.tobytes(), spline))
        elif fn_name == "build_basis":
            spec, degree = args[0], args[1]
            self.built.add((spec.kind_name, spec.lam, spec.order, int(degree)))
        elif fn_name == "project":
            count = len(args[0].segments) * (args[1].degree + 1)
        elif fn_name == "knn_accuracy":
            n = len(args[0].items)
            cut = int(n * args[0].split_ratio)
            count = cut * (n - cut)
        elif fn_name == "match_symbol":
            count = len(args[1])
        elif fn_name == "knn_classify":
            count = len(args[0].items)
        elif fn_name in ("parse_inkml", "parse_pendigits") and isinstance(args[0], (str, bytes)):
            count = len(args[0])
        elif fn_name == "read_coeffs_jsonl":
            count = os.path.getsize(args[0])
        return name, count

    def _op_of(self, args) -> int | None:
        """Id of the trace a call works on, when the first argument is one.

        Outside a query, a trace is numbered when first seen, and a
        normalized trace inherits the number of the trace it came from.
        """
        from inkbasis.ink import InkTrace

        if self.op >= 0 or not args:
            return None
        if isinstance(args[0], InkTrace):
            return self.trace_ids.setdefault(id(args[0]), len(self.trace_ids))
        return self.trace_ids.get(id(args[0]))

    def _wrap(self, fn_name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            name, count = tracer._enter(fn_name, args, kwargs)
            tally = None
            if fn_name == "parse_pendigits" and not isinstance(args[0], str):
                tally = [0]  # lines from a file: count them as they are read
                args = (_counted_lines(args[0], tally),) + args[1:]
            idx = tracer._open(name, tracer._op_of(args))
            failed = True
            try:
                out = fn(*args, **kwargs)
                failed = False
                if fn_name == "arc_length_normalize" and tracer.op < 0:
                    tracer.trace_ids[id(out)] = tracer.spans[idx][4]
                return out
            finally:
                if tally is not None:
                    count = tally[0]
                elif fn_name == "write_coeffs_jsonl" and not failed:
                    count = os.path.getsize(args[1])
                tracer._close(idx, failed, count)

        return wrapper

    def install(self) -> None:
        import inkbasis  # noqa: F401  (loads every submodule)

        originals = {}
        for mod, names in WRAPPED.items():
            module = sys.modules[f"inkbasis.{mod}"]
            for name in names:
                fn = getattr(module, name)
                originals[id(fn)] = (fn, self._wrap(name, fn))
        for modname, module in list(sys.modules.items()):
            if modname != "inkbasis" and not modname.startswith("inkbasis."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in originals and originals[id(value)][0] is value:
                    setattr(module, attr, originals[id(value)][1])
                    self._originals.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in self._originals:
            setattr(module, attr, value)
        self._originals.clear()

    # -- output

    def save(self, path) -> None:
        doc = {
            "spans": self.spans,
            "normalize_distinct": len(self.normalized),
            "build_distinct": len(self.built),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def summarize(docs: list[dict]) -> dict[str, float]:
    """Per-layer metrics from one or more saved traces, averaged per trace file.

    self_s is a span's duration minus the time its direct children cover;
    us_p50 is the median inclusive duration of one call, pooled over files.
    """
    runs = max(1, len(docs))
    calls: dict[str, float] = {}
    failed: dict[str, float] = {}
    selfs: dict[str, float] = {}
    counts: dict[str, float] = {}
    durations: dict[str, list] = {}
    distinct_norm = distinct_build = 0
    for doc in docs:
        spans = doc["spans"]
        child = np.zeros(len(spans))
        for name, t0, t1, parent, *_ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for i, (name, t0, t1, parent, op, fail, count) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            failed[name] = failed.get(name, 0) + fail
            selfs[name] = selfs.get(name, 0.0) + (t1 - t0) - child[i]
            counts[name] = counts.get(name, 0) + count
            durations.setdefault(name, []).append(t1 - t0)
        distinct_norm += doc["normalize_distinct"]
        distinct_build += doc["build_distinct"]

    out: dict[str, float] = {}
    for group, stats in REPORTED.items():
        for stat in stats:
            if stat == "calls":
                value = calls.get(group, 0) / runs
            elif stat == "self_s":
                value = selfs.get(group, 0.0) / runs
            elif stat == "us_p50":
                value = float(np.median(durations[group])) * 1e6 if group in durations else 0.0
            elif stat == "failed":
                value = failed.get(group, 0) / runs
            else:  # bytes
                value = counts.get(group, 0) / runs
            out[f"{group}.{stat}"] = value
    for group, name in COUNTERS.items():
        out[name] = out.get(name, 0.0) + counts.get(group, 0) / runs
    norm_calls = calls.get("ink.normalize_linear", 0) + calls.get("ink.normalize_cubic", 0)
    out["ink.normalize.useful_ratio"] = distinct_norm / norm_calls if norm_calls else 0.0
    build_calls = calls.get("bases.build", 0)
    out["bases.build.useful_ratio"] = distinct_build / build_calls if build_calls else 0.0
    out["cli.self_s"] = selfs.get("cli", 0.0) / runs
    reported = set(REPORTED) | {"cli"}
    out["other.self_s"] = sum(v for k, v in selfs.items() if k not in reported) / runs
    return out
