"""Smoke test of the benchmark itself, at a tiny size.

Run from the repository root: ``python3 bench/smoke.py``. It exits 0 when,
for every workload shrunk to a few seconds of work:

- a run with tracing off emits exactly the end-to-end metrics of
  ``BENCHMARK.json`` with their units, and a traced run exactly the
  per-layer metrics, every op passing its checks;
- an output with one final interval nudged down by one ulp is counted as a
  failed op.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import replace

import run


def tiny_workloads(seed: int, env: dict):
    import workloads

    return [
        workloads.SweepWorkload(seed, cpms=range(16, 18)),
        workloads.ForecastWorkload(seed, length=1728),
        workloads.CliWorkload(seed, run.OUT_DIR, env, cpms_range=(24, 25)),
    ]


def nudge_records(records) -> None:
    from iarx.intervals import Interval

    mid = len(records) // 2
    r = records[mid]
    lower = math.nextafter(r.final.lower, -math.inf)
    records[mid] = replace(r, final=Interval(lower, r.final.upper))


def nudge_trace_csv(path) -> None:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    mid = len(lines) // 2
    cells = lines[mid].split(",")
    cells[5] = repr(math.nextafter(float(cells[5]), -math.inf))  # final_lower
    lines[mid] = ",".join(cells)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def nudge(wl, directory, output) -> None:
    """Move one final interval of the op's output by one ulp."""
    if wl.name == "cli-chain":
        nudge_trace_csv(directory / "eval" / "trace.csv")
    else:
        calls = output[-1]
        nudge_records(calls[0][3])


def tampered(wl):
    check = wl.check

    def check_tampered(case, inputs, output):
        nudge(wl, inputs, output)
        return check(case, inputs, output)

    wl.check = check_tampered
    return wl


def quiet(*args, **kwargs) -> None:
    pass


def main() -> int:
    run.cap_blas_threads()
    sys.path.insert(0, str(run.SRC))
    env = run.child_env()
    run.OUT_DIR.mkdir(exist_ok=True)
    with open(run.ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    expected = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }

    problems = []
    for index in range(3):
        for trace in (False, True):
            wl = tiny_workloads(1, env)[index]
            result = run.measure(wl, 0.01, trace, env)["result"]
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            label = f"{wl.name} trace={int(trace)}"
            if got != expected[trace]:
                missing = sorted(set(expected[trace].items()) - set(got.items()))
                extra = sorted(set(got.items()) - set(expected[trace].items()))
                problems.append(f"{label}: missing {missing}, unexpected {extra}")
            if not all(math.isfinite(m["value"]) for m in result["metrics"].values()):
                problems.append(f"{label}: a metric is not a finite number")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: {result['failed']} of {result['attempted']} ops failed")

        wl = tampered(tiny_workloads(1, env)[index])
        result = run.measure(wl, 0.01, False, env, log=quiet)["result"]
        if result["correct"] or result["failed"] != result["attempted"]:
            problems.append(f"{wl.name}: a final interval one ulp off was not counted as a failure")

    for problem in problems:
        print(problem, file=sys.stderr)
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
