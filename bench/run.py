#!/usr/bin/env python3
"""The ledgersim benchmark: one command, three closed-loop workloads.

    python3 bench/run.py --workload fuzz-mix --seed 1 --seconds 35 --trace 0

Run from a checkout of the repository; the package is imported from
``src/``.  With ``--trace 0`` the command measures for ``--seconds`` and
reports the end-to-end metrics.  With ``--trace 1`` it runs the workload's
fixed number of trace rounds untraced, runs the same rounds again with every
ledgersim layer wrapped by ``tracer.Tracer``, checks that both passes
produced the same output digest, reports the per-layer metrics and writes the
spans to ``.bench_out/``; the rounds are fixed rather than timed so that
every count repeats exactly.  The last line of standard output is one JSON
object: correct, attempted, failed and metrics.  The exit code is 0 only when
every output check passed.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import tracer as tracing  # sibling modules: bench/ is sys.path[0]
import workloads
from speed import machine_speed

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5

END_TO_END = (
    ("setup_s", "s"),
    ("stage1_per_s", "1/s"),
    ("stage2_per_s", "1/s"),
    ("stage3_per_s", "1/s"),
    ("item_p50_ms", "ms"),
    ("item_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def import_ledgersim() -> SimpleNamespace:
    """Import the package afresh from ``src/``, dropping any earlier copy."""
    for name in [n for n in sys.modules if n == "ledgersim" or n.startswith("ledgersim.")]:
        del sys.modules[name]
    return SimpleNamespace(**{layer: importlib.import_module(f"ledgersim.{layer}") for layer in tracing.LAYERS})


def setup(name: str, seed: int):
    """Import plus input generation, repeated; returns the last workload and
    the median set-up time, scaled to the nominal machine speed."""
    times = []
    workload = modules = None
    for _ in range(SETUP_REPEATS):
        gc.collect()
        before = machine_speed()
        t0 = time.perf_counter()
        modules = import_ledgersim()
        workload = workloads.WORKLOADS[name](modules, seed, ROOT)
        seconds = time.perf_counter() - t0
        times.append(seconds * (before + machine_speed()) / 2)
    return workload, modules, statistics.median(times)


def run_rounds(workload, rec: workloads.Recorder, seconds: float | None, rounds: int | None = None) -> int:
    """Closed loop: run rounds until ``rounds`` are done or, when timing,
    until another round of the last one's length would pass ``seconds``.
    Each round starts from a full collection, so that where the collector
    pauses inside a round depends on the round's work, not on the rounds
    before it."""
    start = time.perf_counter()
    done = 0
    last = 0.0
    while True:
        if rounds is not None:
            if done >= rounds:
                break
        elif done and time.perf_counter() - start + last > seconds:
            break
        rec.collect()
        t0 = time.perf_counter()
        rec.start_round()
        workload.round(done, rec)
        last = time.perf_counter() - t0
        done += 1
    return done


def describe(workload, rec: workloads.Recorder, rounds: int) -> None:
    """Human-readable lines, with the descriptive name of each stage."""
    print(f"# workload={workload.name} rounds={rounds} python={platform.python_version()} cpus={os.cpu_count()}")
    print(f"# machine speed: median {statistics.median(rec.speeds):.3f} of nominal, range {min(rec.speeds):.3f}-{max(rec.speeds):.3f}")
    for i, ((name, unit, what), rate, raw) in enumerate(zip(workload.stages, rec.normalized_rates(), rec.rates())):
        print(
            f"# stage{i + 1} {name} = {rate:.2f} {unit} at nominal speed, {raw:.2f} as measured "
            f"({rec.items[i]} items in {rec.seconds[i]:.3f} s; {what})"
        )
    name, what = workload.item
    raw = [workloads.percentile(rec.latencies, q) * 1e3 for q in (50, 90, 99)]
    print(
        f"# item {name}: p50 {raw[0]:.4f} ms, p90 {raw[1]:.4f} ms, p99 {raw[2]:.4f} ms as measured; "
        f"{len(rec.latencies)} samples ({what})"
    )
    print(f"# checks attempted={rec.attempted} failed={rec.failed} fail_ratio={rec.failed / max(rec.attempted, 1):.6f}")
    for failure in rec.failures:
        print(f"# FAILED {failure}")


def untraced(workload, setup_s: float, seconds: float) -> tuple[workloads.Recorder, dict]:
    rec = workloads.Recorder(len(workload.stages))
    rounds = run_rounds(workload, rec, seconds)
    describe(workload, rec, rounds)
    print(f"# digest {rec.digest.hexdigest()}")
    latencies = rec.normalized_latencies
    values = [setup_s] + rec.normalized_rates()
    values += [workloads.percentile(latencies, 50) * 1e3, workloads.percentile(latencies, 90) * 1e3]
    values.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    return rec, {name: {"value": value, "unit": unit} for (name, unit), value in zip(END_TO_END, values)}


def traced(workload, modules) -> tuple[workloads.Recorder, dict]:
    rounds = workload.trace_rounds
    with workloads.GcWatch() as watch:
        plain = workloads.Recorder(len(workload.stages), gc_watch=watch)
        run_rounds(workload, plain, None, rounds)
    describe(workload, plain, rounds)
    tracer = tracing.Tracer({layer: getattr(modules, layer) for layer in tracing.LAYERS})
    rec = workloads.Recorder(len(workload.stages), tracer)
    tracer.install()
    try:
        run_rounds(workload, rec, None, rounds)
    finally:
        tracer.uninstall()
    print(f"# traced pass: {rec.timed_seconds():.3f} s timed, untraced {plain.timed_seconds():.3f} s")
    same = plain.digest.hexdigest() == rec.digest.hexdigest()
    print(f"# digest untraced={plain.digest.hexdigest()} traced={rec.digest.hexdigest()} match={same}")
    rec.check(same, "traced and untraced passes produced different output digests")
    rec.attempted += plain.attempted
    rec.failed += plain.failed
    rec.failures += plain.failures
    values = tracer.metrics(
        rec.timed_seconds(),
        plain.timed_seconds(),
        sum(rec.normalized_seconds) / sum(plain.normalized_seconds),
        (watch.collections, watch.pause),
        getattr(workload, "scaling", None),
    )
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{workload.name}.tsv.gz")
    print(f"# spans {len(tracer.starts)} written to .bench_out/spans-{workload.name}.tsv.gz")
    return rec, {name: {"value": values[name], "unit": unit} for name, unit, _ in tracing.PER_LAYER}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ledgersim" / "__init__.py").is_file():
        print(f"error: no ledgersim sources under {ROOT / 'src'}; run from a repository checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    workload, modules, setup_s = setup(args.workload, args.seed)
    if args.trace:
        rec, metrics = traced(workload, modules)
    else:
        rec, metrics = untraced(workload, setup_s, args.seconds)
    correct = rec.failed == 0
    print(json.dumps({"correct": correct, "attempted": rec.attempted, "failed": rec.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
