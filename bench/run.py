"""iarx benchmark: one closed-loop workload per run, end-to-end or traced.

Usage (from the repository root)::

    python3 bench/run.py --workload sweep-864 --seed 1 --seconds 20 --trace 0

Workloads are ``sweep-864``, ``forecast-17k`` and ``cli-chain`` (see
``workloads.py`` for why each exists). One client runs one op at a time
until ``--seconds`` have passed; every op's output is checked, and an op
that raises, exits non-zero or fails a check counts as failed.

With ``--trace 0`` the run reports the end-to-end metrics:

- ``op_p50_s``: median wall time of one op;
- ``op_tail_s``: the highest percentile with at least ten ops beyond it,
  but never below the median; the percentile and the number of ops beyond
  it are printed in the detail line;
- ``steps_per_s``: scored one-step forecasts per second of op wall time;
- ``setup_s``: median import time of five fresh interpreters plus the
  median of five set-ups (data generation, the reused fit, warm-up), each
  on its own seed-derived dataset;
- ``peak_rss_mb``: peak resident set of this process, plus the largest
  child process for ``cli-chain``;
- ``ok_rate``: ops that passed every check over ops attempted.

With ``--trace 1`` the run alternates untraced and traced ops and reports
the per-layer metrics of the traced ones (see ``spans.py``); the spans are
written to ``bench/out/spans-<workload>.npz`` when the run ends.

Every run also reports, in the detail line before the result, whether the
outputs at the default seed still match ``reference.json`` and a record of
the environment. A mismatch is a behaviour change, not a failed op.

The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("sweep-864", "forecast-17k", "cli-chain")
SETUP_REPS = 5
TAIL_BEYOND = 10
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import iarx.cli; print(time.perf_counter() - t)"
)
NOT_CONTROLLED = "CPU frequency scaling and CPU pinning are not controlled."


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads() -> int:
    """Cap the BLAS thread count at ``nproc`` for this process and its children."""
    cap = nproc()
    threads = cap
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if value.isdigit() and int(value) > 0:
            threads = min(threads, int(value))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_library() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}".strip()
    except (TypeError, KeyError, ValueError):
        return "unknown"


def environment(threads: int) -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_library(),
        "blas_threads": threads,
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "not_controlled": NOT_CONTROLLED,
    }


def import_seconds(env: dict) -> float:
    """Import time of the package in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True, text=True,
        timeout=60, check=True,
    )
    return float(proc.stdout.strip())


def tail(walls: list[float]) -> tuple[float, float, int]:
    """``(value, percentile, ops beyond)`` of the op-time tail.

    The highest order statistic with at least ``TAIL_BEYOND`` ops above it;
    with fewer than ``2 * TAIL_BEYOND + 1`` ops that would fall below the
    median, so the upper median is used and fewer ops lie beyond it.
    """
    ordered = sorted(walls)
    n = len(ordered)
    index = max(n - 1 - TAIL_BEYOND, n // 2)
    return ordered[index], 100.0 * (index + 1) / n, n - 1 - index


def peak_rss_mb(with_children: bool) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 1024.0


def make_workload(name: str, seed: int, env: dict):
    import workloads

    if name == "sweep-864":
        return workloads.SweepWorkload(seed)
    if name == "forecast-17k":
        return workloads.ForecastWorkload(seed)
    return workloads.CliWorkload(seed, OUT_DIR, env)


def layer_metrics(wl, tracer, ops: list[dict]) -> dict:
    """Per-layer metrics over the traced ops; see ``BENCHMARK.json`` for the list."""
    from spans import MAIN_SPAN, PROCESS_SPAN, TRACED

    traced = [o for o in ops if o["traced"]]
    plain = [o for o in ops if not o["traced"]]
    count = len(traced)
    wall = sum(o["wall"] for o in traced)
    totals = tracer.totals(o["op"] for o in traced)
    out = {}
    for name in TRACED + (MAIN_SPAN,):
        calls, self_s, _ = totals.get(name, (0, 0.0, 0.0))
        out[f"{name}.calls"] = (calls / count, "count")
        out[f"{name}.self_s"] = (self_s / count, "s")
        out[f"{name}.share"] = (self_s / wall, "ratio")
    _, process_s, _ = totals.get(PROCESS_SPAN, (0, 0.0, 0.0))
    out["cli.process_s"] = (process_s / count, "s")
    out["cli.process_s.share"] = (process_s / wall, "ratio")
    _, _, step_incl = totals.get("pipeline.forecast_step", (0, 0.0, 0.0))
    out["pipeline.forecast_step.incl_share"] = (step_incl / wall, "ratio")
    intervals = sum(tracer.interval_calls.get(o["op"], 0) for o in traced)
    out["intervals.Interval.calls"] = (intervals / count, "count")
    encodes = totals.get("pattern_space.PatternSpace.encode_series", (0, 0.0, 0.0))[0] / count
    needed = wl.encodings_needed
    out["pattern_space.PatternSpace.encode_series.useful_ratio"] = (
        needed / max(encodes, needed), "ratio"
    )
    out["pipeline.sweep_cpms.cells"] = (sum(o["cells"] for o in ops) / len(ops), "count")
    out["pipeline.sweep_cpms.failed_cells"] = (sum(o["failed_cells"] for o in ops) / len(ops), "count")
    out["trace.overhead"] = (
        statistics.median(o["wall"] for o in traced) / statistics.median(o["wall"] for o in plain),
        "ratio",
    )
    return out


def measure(wl, seconds: float, trace: bool, env: dict, log=print) -> dict:
    """Set up ``wl``, run its closed loop for ``seconds`` and return the result document."""
    from spans import Tracer

    load_start = os.getloadavg()
    imports = statistics.median(import_seconds(env) for _ in range(SETUP_REPS))
    prepares = []
    for rep in range(SETUP_REPS):
        t0 = time.perf_counter()
        wl.prepare(rep)
        prepares.append(time.perf_counter() - t0)
    setup_s = imports + statistics.median(prepares)

    import workloads

    fingerprints = wl.fingerprints()
    ref_match, ref_diff = workloads.reference_match(wl, fingerprints)

    tracer = Tracer() if trace else None
    ops = []
    failures_seen = []

    def run_op(case: int, traced: bool) -> None:
        i = len(ops)
        inputs = wl.inputs(case)
        output = error = None
        t0 = time.perf_counter()
        try:
            if traced:
                with tracer.recording(i):
                    output = wl.op(case, inputs, tracer)
            else:
                output = wl.op(case, inputs, None)
        except Exception:
            error = traceback.format_exc(limit=4)
        wall = time.perf_counter() - t0
        cells = (0, 0)
        if error is None:
            try:
                failures, cells = wl.check(case, inputs, output)
            except Exception:
                failures = [traceback.format_exc(limit=4)]
        else:
            failures = [error]
        if failures:
            failures_seen.append({"op": i, "failures": failures[:5]})
            log(f"op {i} failed: {failures[0]}", file=sys.stderr)
        ops.append({"op": i, "traced": traced, "wall": wall, "ok": not failures,
                    "cells": cells[0], "failed_cells": cells[1]})

    # A traced run repeats each case, untraced then traced, on the same inputs.
    loop_start = time.perf_counter()
    case = 0
    while True:
        for traced in (False, True) if trace else (False,):
            run_op(case, traced)
        case += 1
        if case % wl.round_ops == 0 and time.perf_counter() - loop_start >= seconds:
            break

    attempted = len(ops)
    failed = sum(not o["ok"] for o in ops)
    untraced = [o["wall"] for o in ops if not o["traced"]]
    tail_value, tail_pct, tail_beyond = tail(untraced)
    if trace:
        metrics = layer_metrics(wl, tracer, ops)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.save(OUT_DIR / f"spans-{wl.name}.npz")
    else:
        metrics = {
            "op_p50_s": (statistics.median(untraced), "s"),
            "op_tail_s": (tail_value, "s"),
            "steps_per_s": (wl.steps_per_op * len(untraced) / sum(untraced), "1/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb(wl.includes_children_rss), "MiB"),
            "ok_rate": ((attempted - failed) / attempted, "ratio"),
        }
    detail = {
        "workload": wl.name,
        "ops": attempted,
        "untraced_ops": len(untraced),
        "op_walls_s": [o["wall"] for o in ops],
        "error_rate": failed / attempted,
        "op_tail": {"percentile": tail_pct, "ops_beyond": tail_beyond, "samples": len(untraced)},
        "setup": {"import_s": imports, "prepare_s": prepares},
        "reference_match": ref_match,
        "reference_differs": ref_diff,
        "fingerprints": fingerprints,
        "failures": failures_seen[:5],
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
    }
    return {
        "detail": detail,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "iarx" / "__init__.py").is_file():
        print(f"error: package source not found at {SRC / 'iarx'}", file=sys.stderr)
        return 2

    threads = cap_blas_threads()
    sys.path.insert(0, str(SRC))
    env = child_env()
    OUT_DIR.mkdir(exist_ok=True)
    wl = make_workload(args.workload, args.seed, env)
    doc = measure(wl, args.seconds, bool(args.trace), env)
    doc["detail"].update(seed=args.seed, seconds=args.seconds, trace=args.trace,
                         environment=environment(threads))
    print(json.dumps({"detail": doc["detail"]}))
    print(json.dumps(doc["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
