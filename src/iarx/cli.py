"""Command-line interface: fit, eval, sweep, robust, synth.

All outputs land under ``--out`` with fixed filenames; a command creates
``--out`` only after its computation succeeds. Exit codes: 0 on success, 1
on numerical/identification failures, 2 on configuration or I/O problems,
a setting outside its domain (a library ``ValueError``) and a size too
large to allocate (a ``MemoryError``) included.

Each setting is declared once, as an argparse flag with its type and
default (``--help`` prints them); a flag is its one route. ``synth
--config`` names a synthetic spec, not settings.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .data_io import (
    SyntheticSpec,
    default_synthetic_spec,
    load_csv,
    pca_project,
    synthesize,
    zero_mean_normalize,
)
from .errors import (
    ClusteringError,
    DataError,
    IdentificationError,
    SimulationError,
    json_field,
    read_json,
)
from .model import IarxParams
from .pattern_space import FcmConfig, PatternSpace
from .pipeline import (
    MovingPatternModel,
    _write_csv,
    evaluate,
    fit_model,
    forecast_series,
    rmse_from_records,
    robustness_experiment,
    sweep_cpms,
    write_robust_csv,
    write_rmse_csv,
    write_sweep_csv,
    write_trace_csv,
)

MODEL_FILE = "model.json"
SPACE_FILE = "space.json"
REPORT_FILE = "report.json"
RMSE_FILE = "rmse.csv"
TRACE_FILE = "trace.csv"
SWEEP_FILE = "sweep.csv"
ROBUST_FILE = "robust.csv"
SYNTH_DATA_FILE = "synthetic.csv"
SYNTH_TRUTH_FILE = "truth.json"

# LinAlgError is a ValueError, so main must try this tuple first: a linear-algebra failure is numerical
_NUMERICAL_ERRORS = (ClusteringError, IdentificationError, SimulationError, np.linalg.LinAlgError)
_INPUT_ERRORS = (DataError, OSError, ValueError)  # ValueError: a range check or bad JSON


def _require_file(path: str, what: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise DataError(f"{what} not found: {p}")
    return p


def _out_dir(path: str) -> Path:
    p = Path(path)
    p.mkdir(parents=True, exist_ok=True)
    return p


def _parse_cpms_range(text: str) -> range:
    parts = text.split("..")
    if len(parts) != 2:
        raise DataError(f"--cpms-range must look like A..B, got {text!r}")
    try:
        lo, hi = (int(part) for part in parts)
    except ValueError:
        raise DataError(f"--cpms-range bounds must be integers, got {text!r}") from None
    if hi < lo:
        raise DataError(f"cpms range end {hi} is below start {lo}")
    return range(lo, hi + 1)


def _prepare_series(args) -> tuple[np.ndarray, np.ndarray]:
    """Load the CSV, normalize, and reduce the condition columns to one series.

    The input column is selected by name; every other column is treated as
    an operating-condition sensor. Multiple condition columns are each
    normalized and then projected onto their leading principal component;
    a single condition column is just normalized. The input column is
    normalized as well.
    """
    dataset = load_csv(_require_file(args.data, "data file"))
    if args.input_col not in dataset.columns:
        raise DataError(
            f"input column {args.input_col!r} not in {args.data}; "
            f"available: {', '.join(dataset.columns)}"
        )
    condition_names = [name for name in dataset.columns if name != args.input_col]
    if not condition_names:
        raise DataError(f"{args.data}: no operating-condition columns besides the input column")

    def normalize(name):
        try:
            return zero_mean_normalize(dataset.columns[name])[0]
        except DataError as exc:
            raise DataError(f"{args.data}: column {name!r}: {exc}") from None

    normalized = [normalize(name) for name in condition_names]
    if len(normalized) == 1:
        series = normalized[0]
    else:
        series = pca_project(np.column_stack(normalized))
    return series, normalize(args.input_col)


def _fcm_config(args) -> FcmConfig:
    """The clustering settings that ``fit`` and ``sweep`` share."""
    return FcmConfig(
        tolerance=args.fcm_tolerance,
        max_iterations=args.fcm_iterations,
        seed=args.seed,
    )


def _load_model_dir(model_dir: str) -> MovingPatternModel:
    base = Path(model_dir)
    model_path = _require_file(base / MODEL_FILE, "model file")
    space_path = _require_file(base / SPACE_FILE, "pattern space file")
    params = IarxParams.from_json(read_json(model_path))
    space = PatternSpace.load(space_path)
    report_path = base / REPORT_FILE
    if report_path.is_file():
        report = read_json(report_path)
        if isinstance(report, dict) and "cpms" in report:
            cpms = json_field(report, "cpms", int, f"fit report {report_path}")
            if cpms != space.cpms:
                raise DataError(
                    f"model dir {base} is inconsistent: fit report says cpms={cpms} "
                    f"but the pattern space has {space.cpms} classes"
                )
    return MovingPatternModel(space=space, params=params)


def _write_json(path: Path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def cmd_fit(args) -> int:
    series, u = _prepare_series(args)
    model = fit_model(series, u, args.cpms, args.n, args.m, fcm=_fcm_config(args))
    report = evaluate(model, series, u)

    out = _out_dir(args.out)
    _write_json(out / MODEL_FILE, model.params.to_json())
    _write_json(out / SPACE_FILE, model.space.to_json())
    settings = {"cpms": args.cpms, "n": args.n, "m": args.m, "seed": args.seed, "samples": len(series)}
    _write_json(out / REPORT_FILE, {**settings, "rmse": asdict(report)})
    print(f"A = [{', '.join(f'{v:.4f}' for v in model.params.A)}]")
    print(f"C = [{', '.join(f'{v:.4f}' for v in model.params.C)}]")
    print(f"wrote {MODEL_FILE}, {SPACE_FILE}, {REPORT_FILE} to {out}")
    return 0


def cmd_eval(args) -> int:
    series, u = _prepare_series(args)
    model = _load_model_dir(args.model_dir or args.out)
    trace = forecast_series(model, series, u)
    report = rmse_from_records(trace)

    out = _out_dir(args.out)
    write_rmse_csv(out / RMSE_FILE, model.space.cpms, report)
    write_trace_csv(out / TRACE_FILE, trace)
    print(f"wrote {RMSE_FILE}, {TRACE_FILE} to {out}")
    return 0


def cmd_sweep(args) -> int:
    series, u = _prepare_series(args)
    cpms_values = _parse_cpms_range(args.cpms_range)
    cells = sweep_cpms(series, u, cpms_values, args.n, args.m, fcm=_fcm_config(args))
    for cell in cells:
        if cell.error is not None:
            print(f"cpms={cell.cpms} failed: {cell.error}", file=sys.stderr)

    out = _out_dir(args.out)
    write_sweep_csv(out / SWEEP_FILE, cells)
    print(f"wrote {SWEEP_FILE} to {out}")
    return 0


def cmd_robust(args) -> int:
    series, u = _prepare_series(args)
    model = _load_model_dir(args.model_dir or args.out)
    result = robustness_experiment(model, series, u, args.magnitude, args.seed)

    out = _out_dir(args.out)
    write_robust_csv(out / ROBUST_FILE, result)
    print(f"final class match: {'yes' if result.final_class_match else 'no'}")
    print(f"wrote {ROBUST_FILE} to {out}")
    return 0


def cmd_synth(args) -> int:
    if args.config is None:
        spec = default_synthetic_spec()
    else:
        spec = SyntheticSpec.from_json(read_json(_require_file(args.config, "config file")))
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    result = synthesize(spec)

    out = _out_dir(args.out)
    rows = (f"{x!r},{u!r}" for x, u in zip(result.data.tolist(), result.u.tolist()))
    _write_csv(out / SYNTH_DATA_FILE, "x,u", rows)
    _write_json(out / SYNTH_TRUTH_FILE, spec.to_json())
    print(f"wrote {SYNTH_DATA_FILE} ({spec.length} rows), {SYNTH_TRUTH_FILE} to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iarx",
        description="Interval ARX forecasting over a pattern moving space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        p.add_argument("--out", default=".", help="output directory, created on success (default: %(default)s)")
        return p

    def add_series(p, *, model_dir=False, seed=True):
        p.add_argument("--data", required=True, help="input CSV (header row, numeric columns)")
        p.add_argument("--input-col", required=True, help="name of the input column")
        if model_dir:
            p.add_argument("--model-dir", help="directory holding model.json/space.json (default: --out)")
        if seed:
            p.add_argument("--seed", type=int, default=0, help="random seed (default: %(default)s)")

    def add_model(p):
        p.add_argument("--n", type=int, default=3, help="autoregressive order (default: %(default)s)")
        p.add_argument("--m", type=int, default=1, help="input order (default: %(default)s)")
        p.add_argument(
            "--fcm-tolerance",
            type=float,
            default=FcmConfig.tolerance,
            help="fcm center-shift tolerance (default: %(default)s)",
        )
        p.add_argument(
            "--fcm-iterations",
            type=int,
            default=FcmConfig.max_iterations,
            help="fcm iteration cap (default: %(default)s)",
        )

    p_fit = add_command("fit", cmd_fit, "fit a pattern space and model, write model files")
    add_series(p_fit)
    add_model(p_fit)
    p_fit.add_argument("--cpms", type=int, default=26, help="class count (default: %(default)s)")

    p_eval = add_command("eval", cmd_eval, "score a fitted model, write rmse.csv and trace.csv")
    add_series(p_eval, model_dir=True, seed=False)

    p_sweep = add_command("sweep", cmd_sweep, "fit and score across a class-count range")
    add_series(p_sweep)
    add_model(p_sweep)
    p_sweep.add_argument("--cpms-range", default="16..36", help="inclusive range A..B (default: %(default)s)")

    p_robust = add_command("robust", cmd_robust, "perturb radius coefficients and compare scores")
    add_series(p_robust, model_dir=True)
    p_robust.add_argument(
        "--magnitude", type=float, default=0.002, help="uniform offset bound (default: %(default)s)"
    )

    p_synth = add_command("synth", cmd_synth, "generate a synthetic dataset and its ground truth")
    p_synth.add_argument("--seed", type=int, help="override the spec seed")
    p_synth.add_argument("--config", help="JSON synthetic spec (default: built-in spec)")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _NUMERICAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a size the input asks for; numpy's message names it, Python's is empty
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
