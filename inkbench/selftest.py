"""Self-test of the benchmark at its smallest input sizes.

    python3 inkbench/selftest.py

Run from the root of a checkout.  It asserts that every metric named in
BENCHMARK.json is printed with its unit, that an injected wrong output and
an injected raising query are counted as failed operations rather than
aborting the run, and that a directory without the library sources makes
run.py fail without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int = 0, inject: str = "none", cwd: Path = ROOT, seconds: float = 1.0):
    argv = [sys.executable, str(cwd / "inkbench" / "run.py"), "--workload", workload, "--seed", "1",
            "--seconds", str(seconds), "--trace", str(trace), "--size", "small", "--inject", inject]
    proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


def result(workload: str, **kw) -> tuple[dict, list[str]]:
    code, lines, err = run(workload, **kw)
    assert code == 0, f"{workload} {kw}: exit {code}\n{err}\n{lines[-5:]}"
    doc = json.loads(lines[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}, doc.keys()
    assert doc["correct"] is True and doc["attempted"] >= 1
    return doc, lines


def check_names(doc: dict, section: str) -> None:
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in doc["metrics"].items()}
    assert got == want, f"{section}: missing {set(want) - set(got)}, extra {set(got) - set(want)}"
    for name, m in doc["metrics"].items():
        assert isinstance(m["value"], float), name
        if section == "end_to_end":
            assert m["value"] != 0.0, f"{name} is 0"


def main() -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    for w in names:
        clean, _ = result(w)
        check_names(clean, "end_to_end")
        traced, _ = result(w, trace=1)
        check_names(traced, "per_layer")
        wrong, _ = result(w, inject="wrong")
        assert wrong["attempted"] == clean["attempted"]
        assert wrong["failed"] == clean["failed"] + 1, (wrong["failed"], clean["failed"])
        print(f"ok {w}: metric names, units and an injected wrong output")

    raised, lines = result("query-stream", inject="raise")
    assert raised["failed"] >= 1 and any("ParseError" in l for l in lines), lines
    print("ok query-stream: an injected raising query is counted")

    bare = ROOT / ".inkbench-work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "inkbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        code, lines, _ = run(names[0], cwd=bare)
    finally:
        shutil.rmtree(ROOT / ".inkbench-work", ignore_errors=True)
    assert code != 0 and not any(l.startswith("{") for l in lines), (code, lines)
    print("ok bare directory: exit", code, "and no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
