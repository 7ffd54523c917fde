#!/usr/bin/env python3
"""mlie benchmark: one workload per process, one closed-loop client.

    python3 perfbench/run.py --workload classify --seed 1 --seconds 30 --trace 0

With --trace 0 it prints the end-to-end metrics, measured untraced and
scaled to a reference machine speed by a speed gauge (see SpeedGauge); with
--trace 1 it runs the first pass untraced, traced, and untraced again, and
prints the per-layer metrics.  Every op's output is checked outside its timed region.  The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  Workloads, metrics and the layer-to-metric map are
described in perfbench/README.md.
"""
from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

# one BLAS/OpenMP thread, set before numpy is imported here or in a child
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 9
PROBE_BATCHES = 5
PROBE_CALLS = 100
#: share of op time spent on the speed gauge; the reach, before and after
#: an op, of the gauge samples that scale it; the gauge's median time per
#: sample on the reference machine (2-vCPU 2.1 GHz Xeon VM)
GAUGE_SHARE = 0.1
GAUGE_WINDOW_S = 0.5
GAUGE_REF_S = 3.0e-3
#: gate self-tests of classify: a wrong expected value, or an op that raises
GATE_TESTS = ("wrong-value", "raises")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def _per_layer_units():
    from tracing import TARGETS
    from mlie.verify import CHECK_NAMES

    units = {}
    for name in TARGETS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units["search.iterations"] = "count"
    units["search.solved_ratio"] = "ratio"
    for probe in ("n3", "n5", "n8"):
        units[f"search.einstein_residual.{probe}_us"] = "us"
    for check in CHECK_NAMES:
        units[f"verify.{check}.wall_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


def _load_mlie():
    """Import mlie from this checkout's sources, and the workloads on it."""
    if not (SRC / "mlie" / "__init__.py").is_file():
        sys.exit(f"error: mlie sources not found at {SRC}")
    sys.path.insert(0, str(SRC))
    import mlie
    import workloads

    if Path(mlie.__file__).resolve().parent != SRC / "mlie":
        sys.exit(f"error: imported mlie from {mlie.__file__}, not from {SRC}")
    return workloads


# ---------------------------------------------------------------------------
# machine speed
# ---------------------------------------------------------------------------


class SpeedGauge:
    """The machine's speed while the run lasts, sampled between ops.

    The shared VM this benchmark was written on runs the same code up to 1.4x
    slower for minutes at a time, and its speed changes within seconds, so
    raw times of runs a few minutes apart spread by more than any useful
    bound.  The gauge times a fixed piece of work of the kind mlie does
    (small dense solves, an einsum contraction, an interpreted loop; no mlie
    code) after the ops, for GAUGE_SHARE of their time, so that its samples
    fall next to the ops in time.  Each timed interval is scaled by
    ``factor_near``: GAUGE_REF_S over the median of the samples taken within
    GAUGE_WINDOW_S of it.  That gives seconds at the reference machine's
    speed, which move one for one with the program's own time.  The garbage
    collector is off while the gauge runs, so collections that the program's
    garbage causes fall in the program's ops."""

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._mats = [3.0 * np.eye(6) + rng.normal(size=(6, 6)) for _ in range(8)]
        self._vec = rng.normal(size=6)
        self._tensor = rng.normal(size=(6, 6, 6))
        self._debt = 0.0
        self.starts: List[float] = []  # perf_counter at each sample's start
        self.samples: List[float] = []

    def _work(self) -> float:
        np = self._np
        acc = 0.0
        for _ in range(5):
            for a in self._mats:
                acc += float(np.linalg.solve(a, self._vec).sum())
                acc += float(np.einsum("ijk,jk->i", self._tensor, a).sum())
                acc += float(np.linalg.svd(a, compute_uv=False)[-1])
            s = 0
            for i in range(3000):
                s += i * i % 7
            acc += s
        return acc

    def sample(self) -> None:
        gc.disable()
        try:
            t0 = perf_counter()
            self._work()
            self.samples.append(perf_counter() - t0)
            self.starts.append(t0)
        finally:
            gc.enable()

    def after(self, busy: float) -> None:
        """Sample for GAUGE_SHARE of ``busy`` seconds of op time."""
        self._debt += GAUGE_SHARE * busy
        while self._debt > 0:
            t0 = perf_counter()
            self.sample()
            self._debt -= perf_counter() - t0

    def clear(self) -> None:
        self.starts.clear()
        self.samples.clear()

    def factor_near(self, start: float, duration: float) -> float:
        """GAUGE_REF_S over the median sample within GAUGE_WINDOW_S of the
        interval; over all samples if none is that near."""
        lo = bisect.bisect_left(self.starts, start - GAUGE_WINDOW_S)
        hi = bisect.bisect_right(self.starts, start + duration + GAUGE_WINDOW_S)
        return GAUGE_REF_S / statistics.median(self.samples[lo:hi] or self.samples)


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

#: The one documented failure that is counted but is not a wrong output: on an
#: ill-conditioned random gram, MetricLieAlgebra.ricci_operator raises a bare
#: RuntimeError with this message when its two Ricci routes disagree.  Only
#: classify's shared ops draw such grams.  Every other exception, an mlie
#: error class included, is a wrong output.
KNOWN_FAILURE = "internal Ricci routes disagree beyond cross-check bound"


def is_known_failure(kind: str, err: BaseException) -> bool:
    return kind == "shared" and type(err) is RuntimeError and str(err) == KNOWN_FAILURE


@dataclass
class PassResult:
    wall: float = 0.0  # summed op time
    spans: Dict[int, Tuple[float, float]] = field(default_factory=dict)  # op index -> (start, time), every op
    latencies: Dict[int, float] = field(default_factory=dict)  # op index -> time of a completed op
    attempted: int = 0
    known: List[str] = field(default_factory=list)  # the known failure
    wrong: List[str] = field(default_factory=list)


def run_op(op, i: int, res: PassResult, workload_name: str, tracer=None) -> float:
    """Run, time and check one op; returns its time."""
    res.attempted += 1
    t0 = perf_counter()
    try:
        out = tracer.run_op(i, f"{workload_name}.{op.kind}", op.fn) if tracer else op.fn()
    except Exception as err:  # counted as failed; the run goes on
        dt = perf_counter() - t0
        res.wall += dt
        res.spans[i] = (t0, dt)
        tag = res.known if is_known_failure(op.kind, err) else res.wrong
        tag.append(f"{op.kind}: raised {type(err).__name__}: {err}")
        return dt
    dt = perf_counter() - t0
    res.wall += dt
    res.spans[i] = (t0, dt)
    res.latencies[i] = dt
    try:
        problem = op.check(out)
    except Exception as err:  # an output the check cannot read is wrong
        problem = f"check raised {type(err).__name__}: {err}"
    if problem:
        res.wrong.append(f"{op.kind}: {problem}")
    return dt


def run_pass(workload, pass_index: int, tracer=None, gauge: Optional[SpeedGauge] = None) -> PassResult:
    res = PassResult()
    for i, op in enumerate(workload.ops(pass_index)):
        dt = run_op(op, i, res, workload.name, tracer)
        if gauge is not None:
            gauge.after(dt)
    return res


def percentile(sorted_vals: List[float], p: float) -> float:
    """Linear interpolation between closest ranks."""
    pos = (len(sorted_vals) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    """The highest percentile with at least ten samples beyond it; the median
    when no percentile above it has ten."""
    return max(50.0, 100.0 * (n - 11) / (n - 1)) if n > 11 else 50.0


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def environment_line() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_str = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_str = "unknown"
    return (
        f"env: nproc={os.cpu_count()} python={sys.version.split()[0]} numpy={np.__version__} "
        f"blas={blas_str} blas_threads={os.environ['OPENBLAS_NUM_THREADS']}"
    )


def setup_only(args, workdir: str) -> int:
    start = perf_counter()
    workloads = _load_mlie()
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir, args.gate_test)
    workload.warmup()
    print(json.dumps({"setup_s": perf_counter() - start}))
    return 0


def measure_setup(args) -> float:
    """Set-up time of one fresh process: import mlie, make inputs, warm up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"error: set-up process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def report_failures(results: List[PassResult]) -> None:
    known = [k for res in results for k in res.known]
    wrong = [w for res in results for w in res.wrong]
    for tag, items in (("known failure", known), ("wrong", wrong)):
        for item in items[:5]:
            print(f"{tag}: {item}")
        if len(items) > 5:
            print(f"{tag}: ... {len(items) - 5} more")


def finish(results: List[PassResult], metrics: dict) -> int:
    attempted = sum(r.attempted for r in results)
    failed = sum(len(r.known) + len(r.wrong) for r in results)
    correct = bool(metrics) and not any(r.wrong for r in results)  # no op completed: no metrics
    report_failures(results)
    print(f"failed_ratio = {failed / attempted!r} ({failed} of {attempted} ops failed)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def latency_summary(results: List[PassResult], times: List[Dict[int, float]], same_ops: bool):
    """wall_s, op_p50_ms, op_tail_ms and a note on the samples, from each
    pass's op times ``times`` (every op attempted, by op index)."""
    if same_ops:
        # one latency per op, its median over the passes, so a percentile
        # never falls between the slowest run of one op and the fastest of
        # the next; wall_s sums these medians
        per_op: Dict[int, List[float]] = {}
        for r, t in zip(results, times):
            for i in r.latencies:
                per_op.setdefault(i, []).append(t[i])
        lat = sorted(statistics.median(ts) for ts in per_op.values())
        tail_p = tail_percentile(len(lat))
        note = f"n={len(lat)} ops, each the median of {len(results)} passes"
        return sum(lat), 1e3 * percentile(lat, 50.0), 1e3 * percentile(lat, tail_p), tail_p, note
    # every pass draws new inputs: wall_s is the mean pass, so that all the
    # inputs count; median and tail are taken in each pass and their medians
    # over the passes reported, so that a stall moves one pass's figures only
    wall = sum(sum(t.values()) for t in times) / len(results)
    rows = []
    for r, t in zip(results, times):
        lat = sorted(t[i] for i in r.latencies)
        if lat:
            tail_p = tail_percentile(len(lat))
            rows.append((1e3 * percentile(lat, 50.0), 1e3 * percentile(lat, tail_p)))
    note = f"n={len(results[0].latencies)} ops per pass, median of {len(rows)} passes"
    return (wall, *(statistics.median(col) for col in zip(*rows)), tail_p, note)


def timed_run(args) -> int:
    workloads = _load_mlie()
    print(environment_line())
    setup: List[Tuple[float, float]] = []  # (start, set-up time) of each fresh process
    gauge = SpeedGauge()
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir, args.gate_test)
        workload.warmup()
        gauge.sample()  # warm-up, not kept
        gauge.clear()
        passes = max(1, round(args.seconds / workload.pass_seconds))
        # the set-up samples are spread over the run, like the passes, so
        # that a drift in machine speed reaches both alike
        setup_before = [k * passes // SETUP_REPEATS for k in range(SETUP_REPEATS)]
        results = []
        for p in range(passes):
            for _ in range(setup_before.count(p)):
                t0 = perf_counter()
                setup.append((t0, measure_setup(args)))
                gauge.after(perf_counter() - t0)
            results.append(run_pass(workload, p, gauge=gauge))

    completed = sum(len(r.latencies) for r in results)
    if not completed:
        return finish(results, {})
    scaled = [{i: dt * gauge.factor_near(t0, dt) for i, (t0, dt) in r.spans.items()} for r in results]
    timed = [{i: dt for i, (_, dt) in r.spans.items()} for r in results]
    summaries = {}
    for label, times, setup_times in (
        ("scaled", scaled, [dt * gauge.factor_near(t0, dt) for t0, dt in setup]),
        ("timed", timed, [dt for _, dt in setup]),
    ):
        wall, p50, tail, tail_p, lat_note = latency_summary(results, times, workload.same_ops_every_pass)
        summaries[label] = {
            "setup_s": statistics.median(setup_times),
            "wall_s": wall,
            "ops_per_s": completed / sum(sum(t.values()) for t in times),
            "op_p50_ms": p50,
            "op_tail_ms": tail,
        }
    notes = {
        "setup_s": f"median of {len(setup)} fresh processes",
        "wall_s": "sum of the per-op medians" if workload.same_ops_every_pass else "mean over passes",
        "ops_per_s": f"{completed} completed ops",
        "op_p50_ms": f"p50, {lat_note}",
        "op_tail_ms": f"p{tail_p:.2f}, {lat_note}",
    }
    op_factors = [t[i] / dt for t, r in zip(scaled, results) for i, (_, dt) in r.spans.items() if dt > 0]
    print(f"workload: {args.workload} seed={args.seed} passes={len(results)} "
          f"ops/pass={results[0].attempted}")
    print(f"speed gauge: {len(gauge.samples)} samples, median {1e3 * statistics.median(gauge.samples)!r} ms, "
          f"reference {1e3 * GAUGE_REF_S!r} ms; op factors {min(op_factors):.3f} to {max(op_factors):.3f}")
    metrics = {}
    for name, unit in END_TO_END.items():
        if name == "peak_rss_mb":
            value = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            note = "this process"
        else:
            value = summaries["scaled"][name]
            note = f"{notes[name]}; {summaries['timed'][name]!r} as timed"
        print(f"{name} = {value!r} {unit} ({note})")
        metrics[name] = {"value": value, "unit": unit}
    if args.workload == "search":
        tally = workload.tally
        print(f"solved_ratio = {tally['solved'] / tally['known']!r} "
              f"({tally['solved']} of {tally['known']} specs with a known solution converged)")
    return finish(results, metrics)


def residual_probes(workloads) -> dict:
    """Per-call time of search.einstein_residual on fixed grams, in µs."""
    import mlie

    out = {}
    for label, name, variant, params in workloads.PROBES:
        m = mlie.make_metric(name, variant, params)
        batches = []
        for _ in range(PROBE_BATCHES):
            t0 = perf_counter()
            for _ in range(PROBE_CALLS):
                mlie.einstein_residual(m.algebra, m.gram, "einstein")
            batches.append((perf_counter() - t0) / PROBE_CALLS)
        out[label] = 1e6 * statistics.median(batches)
    return out


def traced_run(args) -> int:
    workloads = _load_mlie()
    from tracing import Tracer

    print(environment_line())
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir, args.gate_test)
        workload.warmup()
        before = run_pass(workload, 0)
        tally = getattr(workload, "tally", None)
        if tally is not None:
            tally.clear()
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_pass(workload, 0, tracer)
        finally:
            tracer.uninstall()
        solved = tally["solved"] / tally["known"] if tally else 0.0
        after = run_pass(workload, 0)
    # the untraced passes bracket the traced one, so a linear drift in
    # machine speed cancels from the overhead
    untraced_wall = (before.wall + after.wall) / 2
    probes = residual_probes(workloads)

    summary = tracer.summary()
    metrics = {}
    for name, unit in _per_layer_units().items():
        base, _, stat = name.rpartition(".")
        if name == "search.iterations":
            value = tracer.counters["search.iterations"]
        elif name == "search.solved_ratio":
            value = solved
        elif name == "trace.overhead_s":
            value = traced.wall - untraced_wall
        elif name.startswith("search.einstein_residual."):
            value = probes[stat[: -len("_us")]]
        elif stat == "wall_s":  # root spans of verify-paper ops are named after the check
            row = summary.get(base.replace("verify.", "verify-paper.", 1))
            value = row["total_s"] if row else 0.0
        else:
            row = summary.get(base)
            value = row[stat] if row else (0 if stat == "calls" else 0.0)
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name} = {value!r} {unit}")
    print(f"traced pass wall_s = {traced.wall!r} s, untraced passes wall_s = {before.wall!r} s "
          f"and {after.wall!r} s, {len(tracer.spans)} spans")
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.write(str(trace_path))
    print(f"spans written to {trace_path.relative_to(HERE.parent)}")
    return finish([before, traced, after], metrics)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("verify-paper", "classify", "search"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument(
        "--gate-test",
        choices=GATE_TESTS,
        help="gate self-test on classify: EX8 is checked against lambda 1/4 (wrong-value), "
        "or one op per pass raises DegenerateGram (raises); either way the run must fail",
    )
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if args.gate_test and args.workload != "classify":
        parser.error("--gate-test runs on the classify workload only")

    OUT.mkdir(exist_ok=True)
    if args.setup_only:
        with tempfile.TemporaryDirectory(dir=OUT) as workdir:
            return setup_only(args, workdir)
    return traced_run(args) if args.trace else timed_run(args)


if __name__ == "__main__":
    sys.exit(main())
