"""fountainkit benchmark: one workload per run, a closed loop of sessions
or CLI round trips for a fixed time, checked outputs, one JSON result.

    python3 perfbench/run.py --workload multicast-gf256 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Run it from the root of a source checkout: fountainkit is imported from
`src/` there and nowhere else.  `--trace 0` reports the end-to-end
metrics; `--trace 1` runs the same operations with spans recorded around
fountainkit's layers and reports the per-layer metrics (see layers.py).
`--workload all` runs every workload in turn, each in its own process.

Seed 1 is the default and the seed of the recorded regression values in
expected.json; seed 2 is the confirmation seed for a claimed change.

The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The line before it is the run record (`record {...}`), also written
with any trace to perfbench/out/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import layers
from layers import ratio
from reference import REFERENCE_S, reference_seconds
from tracing import Tracer
from workloads import COUNTER_FIELDS, WORKLOADS, Runner, op_rng

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"

DEFAULT_SEED = 1
SETUP_REPEATS = 9

#: (name, unit, better) of the end-to-end metrics, reported with --trace 0.
E2E_METRICS = (
    ("goodput_kBps", "kB/s", "higher"),
    ("encode_kBps", "kB/s", "higher"),
    ("decode_kBps", "kB/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
)


def load_fountainkit() -> SimpleNamespace:
    """A fresh import of fountainkit from the checkout's `src/`."""
    for name in [n for n in sys.modules if n.split(".")[0] == "fountainkit"]:
        del sys.modules[name]
    fk = SimpleNamespace(
        **{m: importlib.import_module(f"fountainkit.{m}") for m in ("bec", "cli", "core")}
    )
    if not Path(fk.bec.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"fountainkit was found at {fk.bec.__file__}, outside {SRC}")
    return fk


def set_up(workload, workdir: Path) -> tuple[SimpleNamespace, list[float], list[float]]:
    """Import fountainkit and run one small untimed operation per scheme,
    SETUP_REPEATS times.  Returns the last import, every set-up time and
    the reference time before the first set-up and after each."""
    samples, refs = [], [reference_seconds()]
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        fk = load_fountainkit()
        runner = Runner(fk, workdir)
        for i, step in enumerate(workload.warmup):
            runner.run(step, op_rng(-1, i))
        samples.append(perf_counter() - start)
        refs.append(reference_seconds())
    return fk, samples, refs


def reference_scale(refs: list[float]) -> list[float]:
    """Factors that scale the times of interval i, which lies between
    reference times refs[i] and refs[i + 1], to the reference machine."""
    return [2 * REFERENCE_S / (a + b) for a, b in zip(refs, refs[1:])]


def run_cycles(workload, deadline: float, run_op) -> list[float]:
    """run_op(step, i) for operations i = 0, 1, ... in whole cycles,
    until `deadline` has passed.  Returns the reference time measured
    before the first operation and after each."""
    refs = [reference_seconds()]
    i = 0
    while True:
        for step in workload.cycle:
            run_op(step, i)
            refs.append(reference_seconds())
            i += 1
        if perf_counter() >= deadline:
            return refs


def measure(fk, workload, seed: int, deadline: float, workdir: Path):
    """The results of every operation, and the reference times."""
    runner = Runner(fk, workdir)
    results = []
    refs = run_cycles(
        workload, deadline,
        lambda step, i: results.append(runner.run(step, op_rng(seed, i), i)),
    )
    return results, refs


def measure_traced(fk, workload, seed: int, deadline: float, workdir: Path):
    """Every operation runs twice, untraced and traced, in alternating
    order, so that the two runs of an operation see the same state of
    the machine.  Returns the tracer, its snapshot after the first cycle,
    the traced results, the untraced ones and the reference times."""
    tracer = Tracer()
    traced_runner, plain_runner = Runner(fk, workdir, tracer), Runner(fk, workdir)
    traced, plain = [], []
    snapshot = None

    def run_pair(step, i):
        nonlocal snapshot
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if not with_trace:
                plain.append(plain_runner.run(step, op_rng(seed, i), i))
                continue
            tracer.keep = i < len(workload.cycle)
            tracer.install()
            try:
                traced.append(traced_runner.run(step, op_rng(seed, i), i))
            finally:
                tracer.uninstall()
        if i == len(workload.cycle) - 1:
            snapshot = tracer.snapshot()

    refs = run_cycles(workload, deadline, run_pair)
    return tracer, snapshot, traced, plain, refs


def _throughputs(results, scale: list[float]) -> dict:
    """kB/s of one set of operations, with each operation's times
    multiplied by its `scale`: verified bytes delivered over operation
    time, source bytes over encoder time, delivered bytes of coded
    operations over decoder time."""
    coded = [(r, f) for r, f in zip(results, scale) if r.coded]
    return {
        "goodput_kBps": ratio(
            sum(r.delivered_bytes for r in results) / 1e3,
            sum(r.wall_s * f for r, f in zip(results, scale)),
        ),
        "encode_kBps": ratio(
            sum(r.source_bytes for r, _ in coded) / 1e3, sum(r.encode_s * f for r, f in coded)
        ),
        "decode_kBps": ratio(
            sum(r.delivered_bytes for r, _ in coded) / 1e3, sum(r.decode_s * f for r, f in coded)
        ),
    }


def end_to_end(results, cycle_len: int, refs: list[float] | None = None) -> dict:
    """Median over whole cycles of each cycle's throughputs.  With the
    reference times `refs`, each operation's times are scaled to the
    reference machine.  Every cycle runs the same mix of schemes, so the
    median is robust to a rare slow operation."""
    scale = reference_scale(refs) if refs else [1.0] * len(results)
    per_cycle = [
        _throughputs(results[i : i + cycle_len], scale[i : i + cycle_len])
        for i in range(0, len(results), cycle_len)
    ]
    return {m: statistics.median(c[m] for c in per_cycle) for m in per_cycle[0]}


def regression_values(window, layer_vals=None) -> dict:
    """Exact values of the first cycle that are compared with expected.json."""
    vals = {}
    shape = layers.delivery_shape(window)
    if shape is not None:
        vals["tx_per_block"], vals["overhead_mean"] = shape
    if all(r.counters is not None for r in window):
        for name in COUNTER_FIELDS:
            vals[name] = sum(r.counters[name] for r in window)
    if layer_vals is not None:
        vals["raptor.row_xor_done"] = layer_vals["raptor.row_xor_done"]
    return vals


def check_drift(workload: str, seed: int, values: dict) -> dict | None:
    """Values that differ from the recorded ones, or None at other seeds."""
    expected = json.loads(EXPECTED.read_text())
    if seed != expected["seed"]:
        return None
    recorded = expected["values"].get(workload, {})
    return {
        name: {"recorded": recorded.get(name), "measured": value}
        for name, value in values.items()
        if recorded.get(name) != value
    }


def loadavg() -> float:
    with open("/proc/loadavg") as fh:
        return float(fh.read().split()[0])


def check_manifest() -> None:
    """BENCHMARK.json must declare exactly the metrics reported here."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return
    spec = json.loads(path.read_text())
    declared = (
        [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]],
        [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
    )
    ours = (list(E2E_METRICS), [m[:3] for m in layers.LAYER_METRICS])
    if declared != ours:
        raise SystemExit("BENCHMARK.json does not declare the metrics run.py reports")


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> int:
    workload = WORKLOADS[name]
    sys.path.insert(0, str(SRC))
    try:
        load_fountainkit()
    except ImportError as exc:
        print(f"cannot import fountainkit from {SRC}: {exc}", file=sys.stderr)
        return 2
    load_start = loadavg()
    OUT.mkdir(exist_ok=True)
    record = {
        "workload": name, "seed": seed, "trace": int(trace), "seconds": seconds,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
    }
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as tmp:
        fk, setup_samples, setup_refs = set_up(workload, Path(tmp))
        cycle_len = len(workload.cycle)
        start = perf_counter()
        if trace:
            tracer, snapshot, results, plain, refs = measure_traced(
                fk, workload, seed, start + seconds, Path(tmp)
            )
        else:
            results, refs = measure(fk, workload, seed, start + seconds, Path(tmp))
        measured_s = perf_counter() - start
    window = results[:cycle_len]
    layer_vals = None
    if trace:
        overhead_pct = 100.0 * (
            ratio(sum(r.wall_s for r in results), sum(r.wall_s for r in plain)) - 1.0
        )
        layer_vals = layers.layer_values(tracer, snapshot, results, window, overhead_pct)
        absent = layers.absent_metrics(tracer.missing)
        for metric in absent:
            layer_vals[metric] = 0.0
        record["tracing"] = {
            "overhead_pct": overhead_pct,
            "traced_end_to_end": end_to_end(results, cycle_len, refs),
            "missing_targets": sorted(tracer.missing),
            "absent_metrics": absent,
            "spans_kept": len(tracer.spans),
            "spans_dropped": tracer.spans_dropped,
        }
    # With tracing, end-to-end figures come from the untraced runs.
    untraced = plain if trace else results
    checked = results + plain if trace else results
    attempted = sum(r.attempted for r in checked)
    failed = sum(r.failed for r in checked)
    e2e = end_to_end(untraced, cycle_len, refs)
    e2e["setup_s"] = statistics.median(
        t * f for t, f in zip(setup_samples, reference_scale(setup_refs))
    )
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    shape = layers.delivery_shape(untraced)
    regression = regression_values(window, layer_vals)
    drift = check_drift(name, seed, regression)
    record.update({
        "loadavg_1m": [load_start, loadavg()],
        "operations": len(checked),
        "measured_s": measured_s,
        "end_to_end": e2e,
        "wall_clock": {
            **end_to_end(untraced, cycle_len),
            "setup_s": statistics.median(setup_samples),
            "setup_samples_s": setup_samples,
        },
        "reference_s": {"setup": setup_refs, "operations": refs},
        "fail_rate": ratio(failed, attempted),
        "tx_per_block": shape[0] if shape else None,
        "overhead_mean": shape[1] if shape else None,
        "regression": {"values": regression, "drift": drift},
        "failures": [r.error for r in checked if r.error][:5],
    })

    print(f"{name}: seed {seed}, {len(checked)} operations in {measured_s:.1f} s, "
          f"{'traced' if trace else 'untraced'}")
    for metric, unit, _ in E2E_METRICS:
        print(f"  {metric:<28} {e2e[metric]:14.4f} {unit}")
    print(f"  {'fail_rate':<28} {record['fail_rate']:14.4f} fraction")
    if shape:
        print(f"  {'tx_per_block':<28} {shape[0]:14.4f} ratio")
        print(f"  {'overhead_mean':<28} {shape[1]:14.4f} ratio")
    if layer_vals is not None:
        for metric, unit, _, _ in layers.LAYER_METRICS:
            print(f"  {metric:<28} {layer_vals[metric]:14.4f} {unit}")
        for metric in record["tracing"]["absent_metrics"]:
            print(f"  absent: {metric}")
    for metric, d in (drift or {}).items():
        print(f"  drift {metric}: recorded {d['recorded']}, measured {d['measured']}")
    for error in record["failures"]:
        print(f"  failure: {error.strip().splitlines()[-1]}", file=sys.stderr)

    stem = f"{name}-seed{seed}-trace{int(trace)}"
    (OUT / f"run-{stem}.json").write_text(json.dumps(record, indent=1))
    if trace:
        (OUT / f"spans-{stem}.json").write_text(json.dumps({
            "columns": ["id", "parent", "op", "name", "start_ns", "end_ns"],
            "spans": tracer.spans,
            "aggregate": {"columns": ["calls", "total_ns", "self_ns"], **tracer.agg},
        }))
    print("record " + json.dumps(record))
    if trace:
        metrics = {m: {"value": layer_vals[m], "unit": u} for m, u, _, _ in layers.LAYER_METRICS}
    else:
        metrics = {m: {"value": e2e[m], "unit": u} for m, u, _ in E2E_METRICS}
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    check_manifest()
    if args.workload != "all":
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run([
            sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ])
        status = status or proc.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
