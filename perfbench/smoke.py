#!/usr/bin/env python3
"""Smoke run of the benchmark at its smallest size (one pass per workload).

    python3 perfbench/smoke.py

Checks that every metric named in BENCHMARK.json prints with its unit, traced
and untraced; that only the documented Ricci-route RuntimeError on a shared
classify op counts as a known failure; that the correctness gate trips on a
deliberately wrong expectation and on an op that raises; and that the benchmark exits without a result when the mlie
sources are missing.  Exits 1 on the first problem.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(args, cwd=ROOT):
    cmd = [sys.executable, *SPEC["command"][1:], *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def last_json(proc):
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return None


def fail(msg: str) -> None:
    sys.exit(f"smoke: FAIL: {msg}")


def check_metrics(workload: str, trace: int) -> None:
    proc = run(["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)])
    result = last_json(proc)
    if proc.returncode != 0 or result is None:
        fail(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    if not result["correct"] or result["attempted"] < 1:
        fail(f"{workload}: correct={result['correct']} attempted={result['attempted']}")
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    got = result["metrics"]
    if set(got) != {m["name"] for m in wanted}:
        fail(f"{workload} trace={trace}: metric names differ: {sorted(set(got) ^ {m['name'] for m in wanted})}")
    for m in wanted:
        value, unit = got[m["name"]]["value"], got[m["name"]]["unit"]
        if unit != m["unit"] or not isinstance(value, (int, float)):
            fail(f"{workload}: {m['name']} = {value!r} {unit}, expected unit {m['unit']}")
        if not trace and not value > 0:
            fail(f"{workload}: end-to-end metric {m['name']} is {value!r}")
        if f"{m['name']} = {value!r} {unit}" not in proc.stdout:
            fail(f"{workload}: {m['name']} not printed with its unit")
    print(f"smoke: {workload} trace={trace}: {len(wanted)} metrics ok, "
          f"{result['attempted']} ops, {result['failed']} failed")


def check_gate() -> None:
    for mode in run_module().GATE_TESTS:
        proc = run(["--workload", "classify", "--seed", "1", "--seconds", "1", "--gate-test", mode])
        result = last_json(proc)
        if proc.returncode == 0 or result is None or result["correct"] or result["failed"] == 0:
            fail(f"gate did not trip on --gate-test {mode}: exit {proc.returncode}, result {result}")
        print(f"smoke: gate trips on --gate-test {mode} ({result['failed']} ops failed)")


def check_known_failure() -> None:
    """Only the documented bare RuntimeError, on a shared op, is non-fatal."""
    bench = run_module()
    message = bench.KNOWN_FAILURE
    sys.path.insert(0, str(ROOT / "src"))
    import mlie

    cases = [
        ("shared", RuntimeError(message), True),
        ("shared", RuntimeError("another message"), False),
        ("shared", mlie.NotNilpotent(message), False),
        ("shared", mlie.DegenerateGram(message), False),
        ("fresh-nilpotent", RuntimeError(message), False),
        ("catalog", RuntimeError(message), False),
        ("classified-ricci-flat", RuntimeError(message), False),
        ("L3_2-lorentz-rf", RuntimeError(message), False),
    ]
    for kind, err, expected in cases:
        if bench.is_known_failure(kind, err) != expected:
            fail(f"{type(err).__name__}({str(err)!r}) on a {kind} op: known failure is not {expected}")
    print(f"smoke: only the documented RuntimeError on a shared op is a known failure ({len(cases)} cases)")


def run_module():
    sys.path.insert(0, str(HERE))
    import run as bench

    return bench


def check_bare() -> None:
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, Path(bare) / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(["--workload", "classify", "--seed", "1", "--seconds", "1"], cwd=bare)
        if proc.returncode == 0 or last_json(proc) is not None:
            fail(f"ran without the sources: exit {proc.returncode}")
    print(f"smoke: without src/ the benchmark exits {proc.returncode} and prints no result")


def main() -> int:
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            check_metrics(workload, trace)
    check_known_failure()
    check_gate()
    check_bare()
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
