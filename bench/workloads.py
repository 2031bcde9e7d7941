"""The three benchmark workloads: set-up, one op, and the checks on its output.

Each workload is driven as a closed loop by ``run.py``: one client, one op
at a time. An op's inputs are made from the workload seed and the op index
before the op is timed; the op itself calls the public ``iarx`` API (or the
CLI) exactly as a user would; its output is checked after the timer stops.

- ``sweep-864``: the paper's class-count experiment at the default length
  (N = 864), one class count per op: op ``i`` runs ``sweep_cpms`` for class
  count ``16 + i mod 21`` on its own synthetic dataset, and a run covers
  whole sweeps 16..36. Fuzzy c-means does most of the work, one fresh,
  small, cache-resident clustering per op. Ops this small give a run
  hundreds of samples over hundreds of datasets, so neither the machine's
  op-to-op noise nor the data-dependent FCM iteration count moves the median.
- ``forecast-17k``: one model fitted in set-up on a 20x longer series
  (N = 17 280); an op is ``evaluate`` plus ``robustness_experiment``, three
  forecast passes over one large pattern space and no clustering at all.
- ``cli-chain``: the user path ``synth -> fit -> eval -> sweep -> robust``,
  each command its own ``python -m iarx.cli`` process in a fresh directory.
  Start-up, CSV I/O and the exit-code mapping dominate; the sweep range is
  short so that ``sweep-864`` alone carries the clustering load.
"""

from __future__ import annotations

import functools
import hashlib
import json
import shutil
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from iarx import data_io, pipeline
from iarx.model import IarxParams
from iarx.pattern_space import PatternSpace

import checks
from spans import PROCESS_SPAN

BENCH_DIR = Path(__file__).resolve().parent
TRACED_CLI = BENCH_DIR / "traced_cli.py"
REFERENCE_FILE = BENCH_DIR / "reference.json"

# default_synthetic_spec's own seed; the reference fingerprints are taken there.
DEFAULT_SEED = 3
N_ORDER = 3
M_ORDER = 1
MAGNITUDE = 0.002
KMIN = max(N_ORDER, M_ORDER)
COMMAND_TIMEOUT_S = 60


def data_seed(seed: int, op: int) -> int:
    """Synthetic-spec seed of op ``op`` in a run with workload seed ``seed``."""
    return seed * 100_003 + op


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def synthetic(spec_seed: int, length: int):
    spec = data_io.default_synthetic_spec(spec_seed)
    if length != spec.length:
        spec = replace(spec, length=length)
    return data_io.synthesize(spec)


@contextmanager
def captured_forecasts():
    """Keep every ``forecast_series`` result the library computes inside the block.

    Replaces the name where ``evaluate`` and ``robustness_experiment`` look it
    up, so the checks see exactly the forecasts the op produced.
    """
    calls = []
    original = pipeline.__dict__["forecast_series"]

    @functools.wraps(original)
    def capture(model, data, u, *args, **kwargs):
        records = original(model, data, u, *args, **kwargs)
        calls.append((model, data, u, records))
        return records

    pipeline.forecast_series = capture
    try:
        yield calls
    finally:
        pipeline.forecast_series = original


class SweepWorkload:
    name = "sweep-864"
    includes_children_rss = False

    def __init__(self, seed: int, cpms=range(16, 37), length: int = 864):
        self.seed = seed
        self.cpms = list(cpms)
        self.length = length
        # A run ends on a whole number of sweeps, so every run weighs each class count alike.
        self.round_ops = len(self.cpms)
        self.steps_per_op = length - KMIN
        self.encodings_needed = 1

    def prepare(self, rep: int) -> None:
        res = synthetic(data_seed(self.seed, rep), self.length)
        model = pipeline.fit_model(res.data, res.u, self.cpms[0], N_ORDER, M_ORDER)
        pipeline.evaluate(model, res.data, res.u)

    def inputs(self, op: int):
        return self.cpms[op % len(self.cpms)], synthetic(data_seed(self.seed, op), self.length)

    def op(self, op: int, inputs, tracer):
        cpms, res = inputs
        with captured_forecasts() as calls:
            cells = pipeline.sweep_cpms(res.data, res.u, [cpms], n=N_ORDER, m=M_ORDER)
        return cells, calls

    def check(self, op: int, inputs, output):
        cpms, _ = inputs
        cells, calls = output
        failed = [c for c in cells if c.report is None]
        tally = (len(cells), len(failed))
        if [c.cpms for c in cells] != [cpms]:
            return [f"sweep returned cells {[c.cpms for c in cells]}, not [{cpms}]"], tally
        failures = [f"cpms={c.cpms} failed: {c.error}" for c in failed]
        scored = [c for c in cells if c.report is not None]
        if len(calls) != len(scored):
            return failures + [f"{len(calls)} forecast passes for {len(scored)} scored cells"], tally
        rng = np.random.default_rng([self.seed, op])
        for cell, (model, data, u, records) in zip(scored, calls):
            label = f"cpms={cell.cpms}"
            if model.space.cpms != cell.cpms:
                failures.append(f"{label}: forecast used a {model.space.cpms}-class space")
                continue
            cols = checks.record_columns(records)
            failures += checks.forecast_failures(label, model, data, u, cols, rng)
            failures += checks.rmse_failures(label, checks.rmse_row(cols), cell.report.as_row())
        return failures, tally

    def fingerprints(self) -> dict[str, str]:
        res = synthetic(DEFAULT_SEED, self.length)
        cells = pipeline.sweep_cpms(res.data, res.u, self.cpms, n=N_ORDER, m=M_ORDER)
        rows = [
            f"{c.cpms}," + (",".join(repr(v) for v in c.report.as_row()) if c.report else "failed")
            for c in cells
        ]
        return {"sweep_table": sha256_text("\n".join(rows))}


class ForecastWorkload:
    name = "forecast-17k"
    includes_children_rss = False
    round_ops = 1

    def __init__(self, seed: int, length: int = 17280, cpms: int = 26):
        self.seed = seed
        self.length = length
        self.cpms = cpms
        self.steps_per_op = 3 * (length - KMIN)
        self.encodings_needed = 1
        self.res = None
        self.model = None

    def prepare(self, rep: int) -> None:
        # Each repetition fits its own dataset: the fit's cost depends on the data.
        self.res = synthetic(data_seed(self.seed, rep), self.length)
        self.model = pipeline.fit_model(self.res.data, self.res.u, self.cpms, N_ORDER, M_ORDER)
        pipeline.forecast_series(self.model, self.res.data, self.res.u, end=KMIN + 64)

    def inputs(self, op: int):
        return self.seed + op

    def op(self, op: int, robust_seed, tracer):
        data, u = self.res.data, self.res.u
        with captured_forecasts() as calls:
            report = pipeline.evaluate(self.model, data, u)
            rob = pipeline.robustness_experiment(
                self.model, data, u, magnitude=MAGNITUDE, seed=robust_seed
            )
        return report, rob, calls

    def check(self, op: int, robust_seed, output):
        report, rob, calls = output
        tally = (0, 0)
        if len(calls) != 3:
            return [f"expected 3 forecast passes, saw {len(calls)}"], tally
        failures = []
        params = self.model.params
        shifted = rob.perturbed_params
        offsets = shifted.C - params.C
        if not (
            np.array_equal(shifted.A, params.A)
            and np.all(offsets >= 0.0)
            and np.all(offsets <= MAGNITUDE)
        ):
            failures.append("perturbed parameters break the Uniform[0, magnitude] radius rule")
        expected_models = (params, params, shifted)
        rng = np.random.default_rng([self.seed, op])
        cols = []
        for label, want, (model, data, u, records) in zip(
            ("evaluate", "robust original", "robust perturbed"), expected_models, calls
        ):
            if model.params != want or model.space != self.model.space:
                failures.append(f"{label}: forecast used unexpected model")
            c = checks.record_columns(records)
            failures += checks.forecast_failures(label, model, data, u, c, rng)
            cols.append(c)
        failures += checks.rmse_failures("evaluate", checks.rmse_row(cols[0]), report.as_row())
        failures += checks.rmse_failures(
            "robust original", checks.rmse_row(cols[1]), rob.original.as_row()
        )
        failures += checks.rmse_failures(
            "robust perturbed", checks.rmse_row(cols[2]), rob.perturbed.as_row()
        )
        match = bool(np.array_equal(cols[1]["class_id"], cols[2]["class_id"]))
        if match != rob.final_class_match:
            failures.append(f"final_class_match is {rob.final_class_match}, class ids say {match}")
        return failures, tally

    def fingerprints(self) -> dict[str, str]:
        res = synthetic(DEFAULT_SEED, self.length)
        model = pipeline.fit_model(res.data, res.u, self.cpms, N_ORDER, M_ORDER)
        records = pipeline.forecast_series(model, res.data, res.u)
        return {"final_class_ids": sha256_text(",".join(str(r.class_id) for r in records))}


# Output files of one chain, relative to its directory.
CHAIN_FILES = (
    "data/synthetic.csv",
    "data/truth.json",
    "model/model.json",
    "model/space.json",
    "model/report.json",
    "eval/rmse.csv",
    "eval/trace.csv",
    "sweep/sweep.csv",
    "robust/robust.csv",
)


def _csv_rows(path) -> list[list[str]]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    return [line.split(",") for line in lines[1:]]


class CliWorkload:
    name = "cli-chain"
    includes_children_rss = True
    round_ops = 1

    def __init__(self, seed: int, workdir: Path, env: dict, cpms_range=(24, 28), length: int = 864):
        self.seed = seed
        self.workdir = Path(workdir)
        self.env = env
        self.cpms_range = cpms_range
        self.length = length
        sweep_cells = cpms_range[1] - cpms_range[0] + 1
        # fit scores once, eval once, sweep once per cell, robust twice.
        self.steps_per_op = (4 + sweep_cells) * (length - KMIN)
        # One encoding per pattern space a command works with.
        self.encodings_needed = 3 + sweep_cells

    def chain(self, synth_seed: int, robust_seed: int) -> list[list[str]]:
        common = ["--data", "data/synthetic.csv", "--input-col", "u"]
        lo, hi = self.cpms_range
        return [
            ["synth", "--seed", str(synth_seed), "--out", "data"],
            ["fit", *common, "--out", "model"],
            ["eval", *common, "--model-dir", "model", "--out", "eval"],
            ["sweep", *common, "--cpms-range", f"{lo}..{hi}", "--out", "sweep"],
            ["robust", *common, "--model-dir", "model", "--magnitude", repr(MAGNITUDE),
             "--seed", str(robust_seed), "--out", "robust"],
        ]

    def _run(self, directory: Path, args: list[str], tracer, index: int):
        """One CLI process; returns ``(returncode, stderr)``."""
        if tracer is None:
            cmd = [sys.executable, "-m", "iarx.cli", *args]
            proc = subprocess.run(
                cmd, cwd=directory, env=self.env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=COMMAND_TIMEOUT_S,
            )
            return proc.returncode, proc.stderr
        span_file = directory / f".spans-{index}.npz"
        cmd = [sys.executable, str(TRACED_CLI), str(span_file), *args]
        with tracer.span(PROCESS_SPAN) as sid:
            proc = subprocess.run(
                cmd, cwd=directory, env=self.env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=COMMAND_TIMEOUT_S,
            )
        if proc.returncode == 0:
            tracer.merge(span_file, parent=sid)
            span_file.unlink()
        return proc.returncode, proc.stderr

    def run_chain(self, directory: Path, synth_seed: int, robust_seed: int, tracer=None):
        results = []
        for index, args in enumerate(self.chain(synth_seed, robust_seed)):
            code, err = self._run(directory, args, tracer, index)
            results.append((args[0], code, err))
            if code != 0:
                break
        return results

    def prepare(self, rep: int) -> None:
        directory = Path(tempfile.mkdtemp(prefix="setup-", dir=self.workdir))
        try:
            args = ["synth", "--seed", str(data_seed(self.seed, rep)), "--out", "data"]
            code, err = self._run(directory, args, None, 0)
            if code != 0:
                raise RuntimeError(f"set-up synth exited {code}: {err.strip()[-300:]}")
        finally:
            shutil.rmtree(directory)

    def inputs(self, op: int) -> Path:
        return Path(tempfile.mkdtemp(prefix=f"op{op}-", dir=self.workdir))

    def op(self, op: int, directory: Path, tracer):
        return self.run_chain(directory, data_seed(self.seed, op), self.seed + op, tracer)

    def check(self, op: int, directory: Path, output):
        try:
            return self._check(op, directory, output)
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    def _check(self, op: int, d: Path, output):
        tally = (0, 0)
        failures = [f"{cmd} exited {code}: {err.strip()[-300:]}" for cmd, code, err in output if code != 0]
        if failures or len(output) != 5:
            return failures or ["chain stopped early"], tally

        with open(d / "model/model.json", "r", encoding="utf-8") as fh:
            params = IarxParams.from_json(json.load(fh))
        model = pipeline.MovingPatternModel(space=PatternSpace.load(d / "model/space.json"), params=params)
        dataset = data_io.load_csv(d / "data/synthetic.csv")
        data = data_io.zero_mean_normalize(dataset.columns["x"])[0]
        u = data_io.zero_mean_normalize(dataset.columns["u"])[0]
        rng = np.random.default_rng([self.seed, op])

        cols = checks.trace_columns(d / "eval/trace.csv")
        failures += checks.forecast_failures("eval trace.csv", model, data, u, cols, rng)
        if failures:
            return failures, tally
        (rmse_line,) = _csv_rows(d / "eval/rmse.csv")
        rmse = [float(v) for v in rmse_line[1:]]
        failures += checks.rmse_failures("eval rmse.csv", checks.rmse_row(cols), rmse)
        with open(d / "model/report.json", "r", encoding="utf-8") as fh:
            fit_rmse = json.load(fh)["rmse"]
        fit_row = [fit_rmse[k] for k in ("prelim_upper", "prelim_lower", "final_upper", "final_lower")]
        failures += checks.rmse_failures("fit report.json", rmse, fit_row)

        lo, hi = self.cpms_range
        sweep = _csv_rows(d / "sweep/sweep.csv")
        failed = [row[0] for row in sweep if any(v == "" for v in row[1:])]
        tally = (len(sweep), len(failed))
        if [int(row[0]) for row in sweep] != list(range(lo, hi + 1)):
            failures.append(f"sweep.csv rows {[row[0] for row in sweep]} are not {lo}..{hi}")
        failures += [f"sweep cell cpms={c} failed" for c in failed]
        for row in sweep:
            if int(row[0]) == model.space.cpms and row[0] not in failed:
                failures += checks.rmse_failures(
                    "sweep row of the fitted class count", rmse, [float(v) for v in row[1:]]
                )

        robust = _csv_rows(d / "robust/robust.csv")
        if [row[0] for row in robust] != ["original", "perturbed"]:
            return failures + ["robust.csv rows are not original, perturbed"], tally
        flags = {row[-1] for row in robust}
        if len(flags) != 1 or not flags <= {"true", "false"}:
            return failures + [f"robust.csv flag column holds {sorted(flags)}"], tally
        flag = flags.pop() == "true"
        original = [float(v) for v in robust[0][1:5]]
        perturbed = [float(v) for v in robust[1][1:5]]
        failures += checks.rmse_failures("robust original", rmse, original)
        # Independent class comparison: perturb C by the documented rule and classify here.
        rng_p = np.random.default_rng(self.seed + op)
        shifted = replace(params, C=params.C + rng_p.uniform(0.0, MAGNITUDE, size=params.C.size))
        lowers, uppers = checks.class_bounds(model.space)
        encoded = checks.nearest_class(data, data, lowers, uppers) - 1
        pl, pu = checks.closed_form_prelims(shifted, lowers[encoded], uppers[encoded], u, cols["k"])
        match = bool(np.array_equal(checks.nearest_class(pl, pu, lowers, uppers), cols["class_id"]))
        if match != flag:
            failures.append(f"final_class_match is {flag}, class ids say {match}")
        if flag and original[2:] != perturbed[2:]:
            failures.append("digested perturbation changed the final RMSEs")
        return failures, tally

    def fingerprints(self) -> dict[str, str]:
        directory = Path(tempfile.mkdtemp(prefix="reference-", dir=self.workdir))
        try:
            results = self.run_chain(directory, DEFAULT_SEED, 0)
            if any(code != 0 for _, code, _ in results):
                return {"chain": "failed"}
            out = {}
            for name in CHAIN_FILES:
                path = directory / name
                out[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else "missing"
            return out
        finally:
            shutil.rmtree(directory)


def reference_match(workload, fingerprints: dict[str, str]) -> tuple[bool, list[str]]:
    """Compare with the stored fingerprints; returns ``(match, differing names)``."""
    with open(REFERENCE_FILE, "r", encoding="utf-8") as fh:
        stored = json.load(fh).get(workload.name, {})
    differing = sorted(k for k in set(stored) | set(fingerprints) if stored.get(k) != fingerprints.get(k))
    return not differing, differing
