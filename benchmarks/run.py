"""catsim benchmark: one command, three workloads, checked outputs.

    python3 benchmarks/run.py --workload stages_default --seed 1 --seconds 40 --trace 0

Run from the repository root. The last line of stdout is one JSON object
with `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
metrics are the end-to-end ones (untraced); with `--trace 1` the run sets
up with tracing on, makes one pass with tracing off and one with it on, and
reports the per-layer metrics from the spans. The environment block and a
readable table are printed before the result line. Thread variables and
worker counts are recorded, never set.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5  # fresh interpreters before the passes, and as many after
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--setup-only", action="store_true",
        help="import catsim, set the workload up once, print the elapsed seconds",
    )
    return p.parse_args(argv)


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src_lines = sum(len(f.read_text(encoding="utf-8").splitlines()) for f in SRC.rglob("*.py"))
    return {
        "cpu_count": os.cpu_count(),
        "sched_getaffinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "src_lines": src_lines,
    }


def peak_rss_mb() -> float:
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb / 1024.0


def setup_seconds(args) -> list[float]:
    """Import plus workload set-up, timed in SETUP_REPEATS fresh interpreters."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def timed_passes(workload, seconds: float) -> tuple[list[float], list[float], list]:
    """Repeat passes while another one of median length fits in `seconds`.

    Returns each pass's whole time, its gated time (the whole time minus the
    workload's ungated part) and the outcomes of all passes.
    """
    walls, gated, outcomes = [], [], []
    start = time.perf_counter()
    while True:
        workload.prepare_pass()
        t0 = time.perf_counter()
        outcomes += workload.run_pass()
        walls.append(time.perf_counter() - t0)
        gated.append(walls[-1] - workload.ungated_seconds())
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            return walls, gated, outcomes


def layer_metrics(table, stage_s: dict, overhead: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the span summary of one traced set-up and pass."""
    from catsim.cli import STAGES

    def get(name, key="s"):
        return table[name][key] if name in table else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    m: dict[str, tuple[float, str]] = {}
    mle, boot = "tomography.mle_reconstruct", "tomography.bootstrap"
    m[f"{mle}.calls"] = (get(mle, "calls"), "count")
    m[f"{mle}.s"] = (get(mle), "s")
    m[f"{mle}.iterations"] = (get(mle, "iterations"), "count")
    m["tomography.mle.ms_per_iter"] = (1000 * ratio(get(mle), get(mle, "iterations")), "ms")
    m["tomography.mle.converged_frac"] = (ratio(get(mle, "converged"), get(mle, "calls")), "ratio")
    m[f"{boot}.calls"] = (get(boot, "calls"), "count")
    m[f"{boot}.s"] = (get(boot), "s")
    m[f"{boot}.s_per_replica"] = (ratio(get(boot), get(boot, "replicas")), "s")
    m[f"{boot}.successful_frac"] = (ratio(get(boot, "successful"), get(boot, "replicas")), "ratio")
    for name in ("phasespace.wigner", "phasespace.rho_quad", "phasespace.coherence_peak",
                 "fock.quadrature_basis", "channels.herald_subtract", "sampler.load_dataset"):
        m[f"{name}.calls"] = (get(name, "calls"), "count")
        m[f"{name}.s"] = (get(name), "s")
    m["phasespace.marginal.calls"] = (get("phasespace.marginal", "calls"), "count")
    m["channels.count_rate_table.calls"] = (get("channels.count_rate_table", "calls"), "count")
    for name in ("phasespace.marginal_sweep", "phasespace.csv_write", "sampler.synth_dataset",
                 "sampler.save_dataset", "config.resolve_config", "tes.confusion"):
        m[f"{name}.s"] = (get(name), "s")
    m["tes.confusion.pulses_per_s"] = (ratio(get("tes.confusion", "pulses"), get("tes.confusion")), "1/s")
    for stage in STAGES:
        m[f"pipeline.{stage}.self_s"] = (get(f"pipeline.{stage}", "self_s"), "s")
        m[f"pipeline.{stage}.bytes_written"] = (get(f"pipeline.{stage}", "bytes_written"), "B")
        m[f"stage.{stage}_s"] = (stage_s.get(stage, 0.0), "s")
    m["trace.overhead_frac"] = (overhead, "ratio")
    return m


def traced_run(workload, args) -> tuple[dict, list]:
    """Set up and pass once traced; pass once untraced to measure the overhead.

    The overhead compares gated times, as `wall_s` does.
    """
    from tracing import Tracer, summarize

    tracer = Tracer()
    with tracer.patched():
        tracer.pass_id = "setup"
        workload.setup(args.seed)
    workload.prepare_pass()
    t0 = time.perf_counter()
    outcomes = workload.run_pass()
    untraced = time.perf_counter() - t0 - workload.ungated_seconds()
    stage_s = dict(getattr(workload, "stage_s", {}))
    workload.prepare_pass()
    with tracer.patched():
        tracer.pass_id = "pass"
        t0 = time.perf_counter()
        outcomes += workload.run_pass()
        traced = time.perf_counter() - t0 - workload.ungated_seconds()
    tracer.write(WORK / "traces" / f"{args.workload}-seed{args.seed}.json")
    return layer_metrics(summarize(tracer.spans), stage_s, traced / untraced - 1.0), outcomes


def untraced_run(workload, args) -> tuple[dict, list]:
    # Set-ups run before and after the passes, so their median samples the
    # machine across the whole run rather than at its start.
    setups = setup_seconds(args)
    workload.setup(args.seed)
    walls, gated, outcomes = timed_passes(workload, args.seconds)
    setups += setup_seconds(args)
    print(f"passes {len(walls)}: whole pass s " + " ".join(f"{w:.3f}" for w in walls))
    print(f"passes {len(walls)}: wall_s " + " ".join(f"{w:.3f}" for w in gated))
    print(f"set-ups {len(setups)}: setup_s " + " ".join(f"{s:.3f}" for s in setups))
    for stage, s in getattr(workload, "stage_s", {}).items():
        print(f"stage.{stage}_s {s:.3f} s (last pass)")
    metrics = {
        "wall_s": (statistics.median(gated), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return metrics, outcomes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "catsim").is_dir():
        print(f"benchmark: no catsim sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t_import = time.perf_counter()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    run_dir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workload = WORKLOADS[args.workload](run_dir)
    try:
        if args.setup_only:
            workload.setup(args.seed)
            print(time.perf_counter() - t_import)
            return 0
        print("env " + json.dumps(environment(), sort_keys=True))
        if args.trace:
            metrics, outcomes = traced_run(workload, args)
        else:
            metrics, outcomes = untraced_run(workload, args)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = [o for o in outcomes if not o.ok]
    for o in failed:
        print(f"FAILED {o.op}: {o.detail}")
    print(f"error_rate {len(failed) / len(outcomes):.6f} ratio ({len(failed)}/{len(outcomes)})")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    result = {
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
