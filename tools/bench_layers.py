"""Per-layer and end-to-end wall times of the iarx pipeline, with output fingerprints.

Usage (from any directory)::

    python3 tools/bench_layers.py BENCH_<n>.json

The script imports ``iarx`` from the ``src`` directory beside it and writes
one JSON document with these keys:

- ``environment``: Python and numpy versions, CPU count and
  ``PYTHONDONTWRITEBYTECODE``;
- ``settings``: the spec seed, class count, orders, repetitions, series
  lengths and sweep range used;
- ``layers_s``: per series length, the best-of-``repeats`` wall time of
  each pipeline layer, called in-process through its entry point on the
  z-scored default series, as the command line fits it; inputs are built
  before the timer starts, and ``write_sweep_csv`` writes at every length
  the rows of one sweep over ``SWEEP_RANGE`` at the default length;
- ``cli_chain_s``: the best wall time of each command of the chain
  ``synth -> fit -> eval -> sweep -> robust`` at the default spec, each
  command its own ``python -m iarx.cli`` process, and the best total;
- ``fingerprints``: the SHA-256 of every file that chain writes, and of
  every file of the long chain ``synth -> fit -> eval -> robust`` on the
  default spec lengthened to the last of ``LENGTHS``.

Every repetition of the chain must write the same bytes, or the script
fails. The chains are defined here once; the tests run them in-process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from iarx import model, pipeline  # noqa: E402
from iarx.data_io import default_synthetic_spec, synthesize, zero_mean_normalize  # noqa: E402
from iarx.pattern_space import fcm_cluster  # noqa: E402

SEED = 3  # default_synthetic_spec's own seed
CPMS = 26
N_ORDER, M_ORDER = 3, 1
LENGTHS = (864, 17_280)  # the default spec and a 20x longer series, the long chain's length
REPEATS = 7
SWEEP_RANGE = (16, 36)
MAGNITUDE, ROBUST_SEED = 0.002, 0  # the CLI defaults of robust
COMMAND_TIMEOUT_S = 600

_DATA = ["--data", "data/synthetic.csv", "--input-col", "u"]
_FIT_EVAL = [
    ("fit", ["fit", *_DATA, "--out", "model"]),
    ("eval", ["eval", *_DATA, "--model-dir", "model", "--out", "eval"]),
]
_ROBUST = ("robust", ["robust", *_DATA, "--model-dir", "model", "--out", "robust"])
CHAIN = [
    ("synth", ["synth", "--out", "data"]),
    *_FIT_EVAL,
    ("sweep", ["sweep", *_DATA, "--cpms-range", "{}..{}".format(*SWEEP_RANGE), "--out", "sweep"]),
    _ROBUST,
]


def best_of(repeats: int, call) -> float:
    """The least wall time, in seconds, of ``repeats`` calls of ``call()``."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best


def zscored(spec) -> tuple[np.ndarray, np.ndarray]:
    """The series and input that ``spec`` synthesizes, z-scored as the command line fits them."""
    result = synthesize(spec)
    return zero_mean_normalize(result.data)[0], zero_mean_normalize(result.u)[0]


def layer_times(length: int, workdir: Path, cells) -> dict[str, float]:
    """Best-of-``REPEATS`` wall time of every layer on the default spec at ``length`` samples.

    ``cells`` are the rows ``write_sweep_csv`` writes: one per class count, the same work at any length.
    """
    spec = replace(default_synthetic_spec(SEED), length=length)
    series, u = zscored(spec)
    fitted = pipeline.fit_model(series, u, CPMS, N_ORDER, M_ORDER)
    _, centers, radii = pipeline._encode(fitted.space, series)
    x, y_center, x_abs, y_radius = model._design_matrices(centers, radii, u, N_ORDER, M_ORDER)
    trace = pipeline.forecast_series(fitted, series, u)
    report = pipeline.rmse_from_records(trace)
    robust = pipeline.robustness_experiment(fitted, series, u, MAGNITUDE, ROBUST_SEED)
    layers = {
        "synthesize": lambda: synthesize(spec),
        "fcm_cluster": lambda: fcm_cluster(series, CPMS),
        "pipeline._encode": lambda: pipeline._encode(fitted.space, series),
        "model._ols_center": lambda: model._ols_center(x, y_center),
        "model._nnls_radius": lambda: model._nnls_radius(x_abs, y_radius),
        "forecast_series": lambda: pipeline.forecast_series(fitted, series, u),
        "rmse_from_records": lambda: pipeline.rmse_from_records(trace),
        "write_rmse_csv": lambda: pipeline.write_rmse_csv(workdir / "rmse.csv", CPMS, report),
        "write_trace_csv": lambda: pipeline.write_trace_csv(workdir / "trace.csv", trace),
        "write_sweep_csv": lambda: pipeline.write_sweep_csv(workdir / "sweep.csv", cells),
        "write_robust_csv": lambda: pipeline.write_robust_csv(workdir / "robust.csv", robust),
    }
    return {name: best_of(REPEATS, call) for name, call in layers.items()}


def run_chain(directory: Path, commands) -> dict[str, float]:
    """Run each command as its own CLI process in ``directory``; returns the wall time of each."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    times = {}
    for name, args in commands:
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "iarx.cli", *args],
            cwd=directory, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=COMMAND_TIMEOUT_S,
        )
        times[name] = time.perf_counter() - start
        if proc.returncode != 0:
            raise SystemExit(f"iarx {name} exited {proc.returncode}: {proc.stderr.strip()}")
    return times


def long_chain(spec_path: Path) -> list:
    """The long chain; writes its spec to ``spec_path``, a path outside the chain's directory, for ``synth`` to read."""
    spec = replace(default_synthetic_spec(SEED), length=LENGTHS[-1])
    spec_path.write_text(json.dumps(spec.to_json()), encoding="utf-8")
    return [("synth", ["synth", "--config", str(spec_path), "--out", "data"]), *_FIT_EVAL, _ROBUST]


def fingerprints(directory: Path) -> dict[str, str]:
    """SHA-256 of every file under ``directory``, keyed by its relative POSIX path."""
    return {
        path.relative_to(directory).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


def measure() -> dict:
    with tempfile.TemporaryDirectory(prefix="bench-layers-") as tmp:
        tmp = Path(tmp)
        cells = pipeline.sweep_cpms(
            *zscored(default_synthetic_spec(SEED)), range(SWEEP_RANGE[0], SWEEP_RANGE[1] + 1), N_ORDER, M_ORDER
        )
        layers = {str(length): layer_times(length, tmp, cells) for length in LENGTHS}

        runs, prints = [], None
        for rep in range(REPEATS):
            directory = tmp / f"chain-{rep}"
            directory.mkdir()
            runs.append(run_chain(directory, CHAIN))
            if prints is None:
                prints = fingerprints(directory)
            elif fingerprints(directory) != prints:
                raise SystemExit(f"chain run {rep} wrote other bytes than run 0")
        chain = {name: min(run[name] for run in runs) for name, _ in CHAIN}
        chain["total"] = min(sum(run.values()) for run in runs)
        prints = {f"seed-{SEED} chain": prints}

        directory = tmp / "long-chain"
        directory.mkdir()
        run_chain(directory, long_chain(tmp / "long.json"))
        prints[f"{LENGTHS[-1]}-sample chain"] = fingerprints(directory)

    return {
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        },
        "settings": {
            "seed": SEED,
            "cpms": CPMS,
            "n": N_ORDER,
            "m": M_ORDER,
            "repeats": REPEATS,
            "lengths": list(LENGTHS),
            "sweep_range": list(SWEEP_RANGE),
        },
        "layers_s": layers,
        "cli_chain_s": chain,
        "fingerprints": prints,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="JSON file to write")
    args = parser.parse_args(argv)
    doc = measure()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
