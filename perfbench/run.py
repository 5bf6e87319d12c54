"""Benchmark of spdc1d: end-to-end and per-module figures per workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload simulate-k64 --seed 1 \
        --seconds 30 --trace 0

Workloads: simulate-k64, scan-ridges, verify-k12 (see README.md).  The
program is imported from the checkout's ``src/``.  With ``--trace 0``
the run reports the end-to-end metrics; with ``--trace 1`` it repeats
the timed operations with the per-module functions wrapped by
``tracer.Tracer`` and reports the per-layer metrics.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it hold the
full report (environment, samples, health, tracer self-check), which is
also written to ``perfbench/out/<workload>-seed<n>-trace<t>/``.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import envinfo
from tracer import SPAN_NAMES, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CONFIG = ROOT / "configs" / "gan_aln_20layer.json"
SETUP_PROBES = 9
SELFCHECK_TOL = 1e-6  # relative, on the traced operation time


def write_seeded_config(seed, path):
    """The shipped config with each JSON object's keys in a seed-chosen
    order: the input file depends on the seed, the configuration does not
    (the output checks include the canonical config hash)."""
    rng = random.Random(seed)

    def shuffled(obj):
        if isinstance(obj, dict):
            items = list(obj.items())
            rng.shuffle(items)
            return {k: shuffled(v) for k, v in items}
        if isinstance(obj, list):
            return [shuffled(v) for v in obj]
        return obj

    raw = json.loads(CONFIG.read_text(encoding="utf-8"))
    path.write_text(json.dumps(shuffled(raw), indent=1), encoding="utf-8")


def measure_setup(config_path):
    """Wall times of fresh interpreters that import spdc1d and load the
    config; the first, which also writes bytecode caches, is dropped.

    No timeout: with one, subprocess polls for the exit every 50 ms,
    which quantises the measurement."""
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), str(config_path)]
    times = []
    for _ in range(SETUP_PROBES + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times[1:]


def run_ops(workload, cfg, out_dir, seconds, tracer=None):
    """Repeat the operation until the next one would end after `seconds`
    (at least once).  Returns (durations, failure messages per op, last
    result, peak RSS in MiB after the first operation)."""
    durations, failures, result, first_rss_mb = [], [], None, None
    start = time.perf_counter()
    while True:
        shutil.rmtree(out_dir, ignore_errors=True)
        if tracer is not None:
            tracer.op = len(durations)
        t0 = time.perf_counter()
        try:
            result = workload.op(cfg, out_dir)
        except Exception:  # a failed operation is counted, not fatal
            durations.append(time.perf_counter() - t0)
            failures.append([traceback.format_exc()])
        else:
            durations.append(time.perf_counter() - t0)
            failures.append(workload.check(out_dir, result))
        if first_rss_mb is None:
            first_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(durations) > seconds:
            return durations, failures, result, first_rss_mb


def layer_metrics(tracer, traced, untraced):
    """Per-layer metrics, each per timed operation, and the self-check."""
    nops = len(traced)
    per_op = [tracer.self_times(i) for i in range(nops)]
    others, check_errors = [], []
    for (stats, top), run in zip(per_op, traced):
        other = run - top
        total = sum(s for s, _ in stats.values()) + other
        others.append(other)
        worst_self = min((s for s, _ in stats.values()), default=0.0)
        check_errors.append(abs(total - run))
        if (abs(total - run) > SELFCHECK_TOL * run or other < 0.0
                or worst_self < -SELFCHECK_TOL * run):
            raise RuntimeError(
                f"tracer self-check failed: spans {total - other:.6f} s + "
                f"other {other:.6f} s vs traced run {run:.6f} s, smallest "
                f"self time {worst_self:.3g} s")
    metrics = {}
    for name in SPAN_NAMES:
        self_s = sum(st.get(name, (0.0, 0))[0] for st, _ in per_op) / nops
        calls = sum(st.get(name, (0.0, 0))[1] for st, _ in per_op) / nops
        metrics[f"{name}.self_s"] = (self_s, "s")
        metrics[f"{name}.calls"] = (calls, "count")
    # set-up is traced once, outside the timed operations
    setup_stats, _ = tracer.self_times("setup")
    load_s, load_calls = setup_stats.get("config.load_config", (0.0, 0))
    metrics["config.load_config.self_s"] = (load_s, "s")
    metrics["config.load_config.calls"] = (float(load_calls), "count")

    builds = tracer.durations("matrixcore.build_emission")
    p50, p90 = np.percentile(builds, (50, 90)) if builds else (0.0, 0.0)
    metrics["matrixcore.build_emission.p50_s"] = (float(p50), "s")
    metrics["matrixcore.build_emission.p90_s"] = (float(p90), "s")
    c = tracer.counters
    metrics["blockmatrix.gflop"] = (c["blockmatrix.flop"] / nops / 1e9,
                                    "Gflop")
    metrics["blockmatrix.bytes"] = (c["blockmatrix.bytes"] / nops, "B")
    metrics["blockmatrix.nonzero_frac"] = (
        c["blockmatrix.nnz"] / c["blockmatrix.entries"]
        if c["blockmatrix.entries"] else 0.0, "1")
    metrics["runner.write_csv.bytes"] = (c["runner.write_csv.bytes"] / nops,
                                         "B")
    metrics["other.self_s"] = (sum(others) / nops, "s")
    run_traced = sum(traced) / nops
    run_untraced = sum(untraced) / len(untraced)
    metrics["trace.run_s"] = (run_traced, "s")
    metrics["trace.overhead_s"] = (run_traced - run_untraced, "s")
    selfcheck = {"max_abs_error_s": max(check_errors),
                 "overhead_frac": run_traced / run_untraced - 1.0}
    return metrics, selfcheck


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "spdc1d" / "__init__.py").is_file() or not CONFIG.is_file():
        print(f"error: {SRC / 'spdc1d'} or {CONFIG} is missing; run from the "
              "root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spdc1d.config

    if Path(spdc1d.__file__).resolve().parent != (SRC / "spdc1d").resolve():
        print(f"error: imported spdc1d from {spdc1d.__file__}, not from "
              f"{SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, warm_up

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = BENCH / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config_path = work / "config.json"
    write_seeded_config(args.seed, config_path)

    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "env": envinfo.capture(ROOT)}
    if not args.trace:
        setup = measure_setup(config_path)
        report["setup_s"] = {"median": statistics.median(setup),
                             "samples": setup}

    cfg = spdc1d.config.load_config(config_path)
    warm_up(cfg)
    # memory grows a little with each repetition (allocator), so the peak
    # is read after the first operation: a fresh process running it once
    untraced, failures, result, peak_rss_mb = run_ops(
        workload, cfg, work / "op", args.seconds)
    report["run_s"] = {"median": statistics.median(untraced),
                       "samples": len(untraced),
                       "min": min(untraced), "max": max(untraced),
                       "all": untraced}

    if args.trace:
        tracer = Tracer()
        with tracer.installed():
            tracer.op = "setup"
            spdc1d.config.load_config(config_path)
            traced, traced_failures, result, _ = run_ops(
                workload, cfg, work / "op", args.seconds, tracer)
        failures += traced_failures
        metrics, report["tracer_selfcheck"] = layer_metrics(
            tracer, traced, untraced)
        report["health"] = {"traced_ops": len(traced), **tracer.health,
                            **workload.health(result)}
        report["not_found"] = tracer.missing
    attempted = len(failures)
    failed = sum(1 for f in failures if f)
    if not args.trace:
        metrics = {
            "setup_s": (report["setup_s"]["median"], "s"),
            "run_s": (report["run_s"]["median"], "s"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
            "pass_frac": (1.0 - failed / attempted, "1"),
        }
    report["failures"] = [f[:5] for f in failures if f][:3]
    report["metrics"] = {k: v for k, (v, _) in metrics.items()}
    (work / "report.json").write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(report, indent=1))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
