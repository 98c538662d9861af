"""qdtuner benchmark: three closed-loop workloads, each run by one client in
one process, timed end to end and, in a separate traced run, layer by layer.

Run from the repository root:

    python3 bench/run.py --workload thermal_ramp --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --all --seed 1          # every workload in turn

The program is imported from src/ of the checkout and driven through its
public entry points: `qdtuner.cli.main(argv)` in-process and the public
`control` API. Config files are generated from --seed into a scratch
directory inside the checkout and removed at the end.

Untraced runs (--trace 0) report the end-to-end metrics: setup_s, wall_s,
ops_per_s, op_p50_ms, peak_rss_mb and useful_ratio. A shared machine's
speed drifts by a quarter and more within minutes, so their times are
scaled to a fixed reference speed by a sparse LU solve timed between
operations (workloads.run_round); the log also gives wall_s as measured.
Per-layer times are as measured. A traced run (--trace 1) alternates
untraced and traced passes over the same inputs and reports the per-layer
metrics, which are totals per round (one pass over the workload's operation
set), plus trace.overhead_ratio. Its spans are written once, at
the end, to .bench_out/. The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics; the lines before it give every
metric with its unit and sample count, the tail latency, the failures, the
machine metadata and, for traced runs, the self time of every layer.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_PARENT = ROOT / ".bench_work"
SPANS_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("thermal_ramp", "sweep_render", "tune_plan")
SETUP_REPEATS = 5  # cold starts per run; setup_s is their median
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("useful_ratio", "1"),
)
PER_LAYER = (
    ("device.rasterize_s", "s"),
    ("device.active_cells", "count"),
    ("thermal.solve_s", "s"),
    ("thermal.iterations", "count"),
    ("thermal.s_per_iteration", "s"),
    ("thermal.unknowns", "count"),
    ("thermal.operator_nnz", "count"),
    ("thermal.lumped_s", "s"),
    ("spectral.synthesize_s", "s"),
    ("spectral.samples", "count"),
    ("spectral.samples_per_s", "1/s"),
    ("control.align_multi_s", "s"),
    ("control.align_multi_passes", "count"),
    ("control.align_qd_to_cavity_s", "s"),
    ("control.useful_ratio", "1"),
    ("config.load_s", "s"),
    ("config.write_s", "s"),
    ("config.bytes_written", "count"),
    ("config.write_mb_per_s", "MB/s"),
    ("cli.main.self_s", "s"),
    ("cli.thermal.self_s", "s"),
    ("cli.sweep.self_s", "s"),
    ("cli.tune.self_s", "s"),
    ("cli.calibrate.self_s", "s"),
    ("trace.overhead_ratio", "1"),
)
COMPUTED = {"thermal.unknowns", "thermal.operator_nnz"}  # from the grid, not read from the solver


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--all", action="store_true", help="run every workload, one after another")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.all == (args.workload is not None):
        p.error("give exactly one of --workload or --all")
    return args


def _require_checkout() -> None:
    missing = [str(p.relative_to(ROOT)) for p in (SRC / "qdtuner" / "cli.py", ROOT / "configs") if not p.exists()]
    if missing:
        print(f"error: not a qdtuner checkout, missing {', '.join(missing)}", file=sys.stderr)
        raise SystemExit(2)


def measure_setup(loader: str, path: Path) -> list[float]:
    """Cold starts in fresh interpreters: import the cli (numpy and scipy
    with it) and load the workload's first config. One unmeasured start
    comes first, so every measured one finds the bytecode cache written.
    Each time is scaled to the reference speed by the reference solve timed
    just before and just after it, as the workloads' times are."""
    from workloads import REFERENCE_S, reference_time

    code = f"import sys\nfrom qdtuner import cli, config\nconfig.{loader}(sys.argv[1])\n"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for i in range(SETUP_REPEATS + 1):
        before = reference_time()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code, str(path)], env=env, check=True, cwd=ROOT)
        elapsed = time.perf_counter() - t0
        after = reference_time()
        if i:
            times.append(elapsed * 2.0 * REFERENCE_S / (before + after))
    return times


def tail_latency(latencies: list[float]) -> tuple[str, float] | None:
    """The highest of p90, p99 and p99.9 with at least ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    best = None
    for label, q in (("p90", 0.9), ("p99", 0.99), ("p99.9", 0.999)):
        k = max(0, math.ceil(q * n) - 1)  # nearest rank
        if n - 1 - k >= 10:
            best = (label, ordered[k])
    return best


def end_to_end(tally, setup_times: list[float]) -> dict[str, tuple[float, int]]:
    """Metric name -> (value, sample count).

    Every round runs the same number of operations, so throughput is that
    number over the median round time; medians keep the bursts of a shared
    machine out of the figures. All times are scaled to the reference speed
    (workloads.run_round).
    """
    n = len(tally.latencies)
    rounds = len(tally.round_times)
    wall = statistics.median(tally.round_times)
    return {
        "setup_s": (statistics.median(setup_times), len(setup_times)),
        "wall_s": (wall, rounds),
        "ops_per_s": (n / rounds / wall, rounds),
        "op_p50_ms": (statistics.median(tally.latencies) * 1e3, n),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        "useful_ratio": ((tally.attempted - tally.unsolved - len(tally.failures)) / tally.attempted, tally.attempted),
    }


def per_layer(tracer, traced, plain) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metric values (totals per round) and self time per span name."""
    inclusive, self_time = tracer.times()
    rounds = len(traced.round_times)
    counts = tracer.counts

    def per_round(table, key):
        return table.get(key, 0.0) / rounds

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "device.rasterize_s": per_round(inclusive, "device.rasterize"),
        "device.active_cells": per_round(counts, "device.active_cells"),
        "thermal.solve_s": per_round(inclusive, "thermal.solve"),
        "thermal.iterations": per_round(counts, "thermal.iterations"),
        "thermal.unknowns": per_round(counts, "thermal.unknowns"),
        "thermal.operator_nnz": per_round(counts, "thermal.operator_nnz"),
        "thermal.lumped_s": per_round(inclusive, "thermal.lumped"),
        "spectral.synthesize_s": per_round(inclusive, "spectral.synthesize"),
        "spectral.samples": per_round(counts, "spectral.samples"),
        "control.align_multi_s": per_round(inclusive, "control.align_multi"),
        "control.align_multi_passes": per_round(counts, "control.align_multi_passes"),
        "control.align_qd_to_cavity_s": per_round(inclusive, "control.align_qd_to_cavity"),
        "control.useful_ratio": ratio(traced.plans_solved, traced.plans),
        "config.load_s": per_round(inclusive, "config.load"),
        "config.write_s": per_round(inclusive, "config.write"),
        "config.bytes_written": per_round(counts, "config.bytes_written"),
        "cli.main.self_s": per_round(self_time, "cli.main"),
    }
    for command in ("thermal", "sweep", "tune", "calibrate"):
        m[f"cli.{command}.self_s"] = per_round(self_time, f"cli.{command}")
    m["thermal.s_per_iteration"] = ratio(m["thermal.solve_s"], m["thermal.iterations"])
    m["spectral.samples_per_s"] = ratio(m["spectral.samples"], m["spectral.synthesize_s"])
    m["config.write_mb_per_s"] = ratio(m["config.bytes_written"] / 1e6, m["config.write_s"])
    m["trace.overhead_ratio"] = sum(traced.latencies) / sum(plain.latencies) - 1.0
    return m, self_time


def metadata(seed: int, seconds: float, trace: int, workload: str) -> dict:
    import numpy
    import scipy

    blas = None
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "python_threads": threading.active_count(),
        "machine": platform.machine(),
    }


def run_workload(args) -> int:
    _require_checkout()
    # One client means one thread of work. A BLAS pool would only spin on
    # this load (the sparse solves gain nothing from it) and would compete
    # for the cores with the client; a caller's explicit setting wins.
    for key in THREAD_ENV:
        os.environ.setdefault(key, "1")
    sys.path.insert(0, str(SRC))
    import numpy as np

    from spans import Tracer
    from workloads import WORKLOADS, run_loop

    WORK_PARENT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_PARENT))
    try:
        workload = WORKLOADS[args.workload](ROOT, work, np.random.default_rng(args.seed))
        # the generated inputs live as long as the run; keep the collector
        # from rescanning them, as it would not in a one-shot `tuner` process
        gc.collect()
        gc.freeze()
        setup_times = measure_setup(*workload.first_config)
        tracer = Tracer() if args.trace else None
        cpu0, wall0 = time.process_time(), time.perf_counter()
        plain, traced, rounds = run_loop(workload, args.seconds, tracer)
        cpu_share = (time.process_time() - cpu0) / (time.perf_counter() - wall0)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_PARENT.rmdir()
        except OSError:
            pass  # another run is using it

    meta = metadata(args.seed, args.seconds, args.trace, args.workload)
    print("meta " + json.dumps(meta, sort_keys=True))
    tallies = [plain] + ([traced] if traced is not None else [])
    attempted = sum(t.attempted for t in tallies)
    failures = [f for t in tallies for f in t.failures]
    unsolved = sum(t.unsolved for t in tallies)
    print(f"rounds {rounds}, operations {attempted}, failed {len(failures)}, "
          f"unsolved {unsolved} (feasible plans align_multi gave up on)")
    print(f"fail_ratio {(len(failures) + unsolved) / attempted:.6g} (failed + unsolved over attempted)")
    print(f"cpu_share {cpu_share:.4g} (process CPU time over wall time of the loop)")
    speed = statistics.median(plain.round_times) / statistics.median(plain.raw_round_times)
    print(f"wall_s as measured = {statistics.median(plain.raw_round_times):.6g} s; "
          f"machine speed {speed:.4g} x the reference speed")
    for failure in sorted(set(failures))[:20]:
        print(f"FAILED {failure}")

    e2e = end_to_end(plain, setup_times)
    for name, unit in END_TO_END:
        value, n = e2e[name]
        print(f"{name} = {value:.6g} {unit} (n={n})")
    tail = tail_latency(plain.latencies)
    if tail is None:
        print(f"op tail latency: not reported, {len(plain.latencies)} samples leave fewer than 10 beyond p90")
    else:
        print(f"op_{tail[0]}_ms = {tail[1] * 1e3:.6g} ms (n={len(plain.latencies)})")

    if tracer is None:
        metrics = {name: {"value": e2e[name][0], "unit": unit} for name, unit in END_TO_END}
    else:
        layer, self_time = per_layer(tracer, traced, plain)
        for name, unit in PER_LAYER:
            note = ", computed from the grid" if name in COMPUTED else ""
            print(f"{name} = {layer[name]:.6g} {unit} (per round, n={len(traced.round_times)} rounds{note})")
        ranked = sorted(self_time.items(), key=lambda kv: -kv[1])
        print("self time per round: " + ", ".join(f"{k} {v / rounds:.4g} s" for k, v in ranked))
        SPANS_DIR.mkdir(exist_ok=True)
        spans = SPANS_DIR / f"spans_{args.workload}_seed{args.seed}.jsonl"
        tracer.dump(spans)
        print(f"spans written to {spans.relative_to(ROOT)}")
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER}
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Run each workload in its own process, one after another."""
    _require_checkout()
    results = {}
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        print(proc.stdout, end="", flush=True)
        if proc.returncode != 0:
            print(f"error: {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    return run_all(args) if args.all else run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
