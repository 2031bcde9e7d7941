"""Command-line interface: fit, eval, sweep, robust, synth.

All outputs land under ``--out`` with fixed filenames. Exit codes: 0 on
success, 1 on numerical/identification failures, 2 on configuration or
I/O problems. Flag precedence is flags > ``--config`` JSON > defaults; a
``--config`` key that the command does not read is a configuration problem.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
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
    ConfigError,
    DataError,
    IdentificationError,
    SimulationError,
)
from .model import IarxParams
from .pattern_space import FcmConfig, PatternSpace
from .pipeline import (
    MovingPatternModel,
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

_NUMERICAL_ERRORS = (ClusteringError, IdentificationError, SimulationError)
_CONFIG_ERRORS = (ConfigError, DataError, OSError, json.JSONDecodeError)

# The --config keys the commands read; a key a command does not read is an error.
_SERIES_KEYS = ("data", "input_col", "out")
_MODEL_KEYS = (*_SERIES_KEYS, "seed", "n", "m", "fuzziness", "fcm_tolerance", "fcm_iterations")
_SPEC_KEYS = tuple(field.name for field in fields(SyntheticSpec))


def _load_config(path: str | None, keys: tuple[str, ...]) -> dict:
    """The JSON object in ``path`` (``{}`` without one); it may set only ``keys``."""
    if path is None:
        return {}
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    with open(p, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {p} must hold a JSON object")
    unknown = [key for key in doc if key not in keys]
    if unknown:
        raise ConfigError(
            f"config file {p}: unknown key(s) {', '.join(map(repr, unknown))}; "
            f"this command reads {', '.join(keys)}"
        )
    return doc


def _convert(value, name: str, kind):
    """``value`` as ``kind``: ``int`` or ``float`` converts, ``str`` only accepts a string."""
    try:
        if kind is not str or isinstance(value, str):
            return kind(value)
    except (TypeError, ValueError):
        pass
    raise ConfigError(f"{name} must be of type {kind.__name__}, got {value!r}")


def _setting(args, config: dict, key: str, default=None, kind=str, minimum=None):
    """The flag, else the config value converted to ``kind``, else ``default``; at least ``minimum``."""
    value = getattr(args, key, None)  # argparse has typed every flag
    if value is None:
        value = _convert(config[key], key, kind) if key in config else default
    if minimum is not None and value < minimum:
        raise ConfigError(f"{key} must be >= {minimum}, got {value}")
    return value


def _require_file(path: str, what: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"{what} not found: {p}")
    return p


def _out_dir(path: str) -> Path:
    p = Path(path)
    p.mkdir(parents=True, exist_ok=True)
    return p


def _parse_cpms_range(text: str) -> range:
    parts = text.split("..")
    if len(parts) != 2:
        raise ConfigError(f"--cpms-range must look like A..B, got {text!r}")
    lo = _convert(parts[0], "cpms range start", int)
    hi = _convert(parts[1], "cpms range end", int)
    if lo < 2:
        raise ConfigError(f"cpms range start must be >= 2, got {lo}")
    if hi < lo:
        raise ConfigError(f"cpms range end {hi} is below start {lo}")
    return range(lo, hi + 1)


def _prepare_series(args, config) -> tuple[np.ndarray, np.ndarray]:
    """Load the CSV, normalize, and reduce the condition columns to one series.

    The input column is selected by name; every other column is treated as
    an operating-condition sensor. Multiple condition columns are each
    normalized and then projected onto their leading principal component;
    a single condition column is just normalized. The input column is
    normalized as well.
    """
    data_path = _setting(args, config, "data")
    if data_path is None:
        raise ConfigError("--data is required")
    input_col = _setting(args, config, "input_col")
    if input_col is None:
        raise ConfigError("--input-col is required")
    dataset = load_csv(_require_file(data_path, "data file"))
    if input_col not in dataset.columns:
        raise ConfigError(
            f"input column {input_col!r} not in {data_path}; "
            f"available: {', '.join(dataset.columns)}"
        )
    condition_names = [name for name in dataset.columns if name != input_col]
    if not condition_names:
        raise ConfigError("no operating-condition columns besides the input column")
    normalized = [zero_mean_normalize(dataset.columns[name])[0] for name in condition_names]
    if len(normalized) == 1:
        series = normalized[0]
    else:
        series = pca_project(np.column_stack(normalized))
    u = zero_mean_normalize(dataset.columns[input_col])[0]
    return series, u


def _model_settings(args, config, cpms: int) -> tuple[int, int, FcmConfig]:
    """``(n, m, fcm)``: the settings that ``fit`` and ``sweep`` share."""
    fcm = FcmConfig(
        k=cpms,
        fuzziness=_setting(args, config, "fuzziness", FcmConfig.fuzziness, float),
        tolerance=_setting(args, config, "fcm_tolerance", FcmConfig.tolerance, float),
        max_iterations=_setting(args, config, "fcm_iterations", FcmConfig.max_iterations, int, 1),
        seed=_setting(args, config, "seed", 0, int),
    )
    return _setting(args, config, "n", 3, int, 1), _setting(args, config, "m", 1, int, 0), fcm


def _load_model_dir(model_dir: str) -> MovingPatternModel:
    base = Path(model_dir)
    model_path = _require_file(base / MODEL_FILE, "model file")
    space_path = _require_file(base / SPACE_FILE, "pattern space file")
    with open(model_path, "r", encoding="utf-8") as fh:
        params = IarxParams.from_json(json.load(fh))
    space = PatternSpace.load(space_path)
    report_path = base / REPORT_FILE
    if report_path.is_file():
        with open(report_path, "r", encoding="utf-8") as fh:
            report = json.load(fh)
        if isinstance(report, dict) and report.get("cpms", space.cpms) != space.cpms:
            raise ConfigError(
                f"model dir {base} is inconsistent: fit report says cpms={report['cpms']} "
                f"but the pattern space has {space.cpms} classes"
            )
    return MovingPatternModel(space=space, params=params)


def _write_json(path: Path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def cmd_fit(args) -> int:
    config = _load_config(args.config, (*_MODEL_KEYS, "cpms"))
    series, u = _prepare_series(args, config)
    cpms = _setting(args, config, "cpms", 26, int, 2)
    n, m, fcm = _model_settings(args, config, cpms)
    out = _out_dir(_setting(args, config, "out", "."))

    model = fit_model(series, u, cpms, n, m, fcm=fcm)
    report = evaluate(model, series, u)

    _write_json(out / MODEL_FILE, model.params.to_json())
    model.space.save(out / SPACE_FILE)
    _write_json(
        out / REPORT_FILE,
        {
            "cpms": cpms,
            "n": n,
            "m": m,
            "seed": fcm.seed,
            "samples": int(len(series)),
            "rmse": {
                "prelim_upper": report.prelim_upper,
                "prelim_lower": report.prelim_lower,
                "final_upper": report.final_upper,
                "final_lower": report.final_lower,
            },
        },
    )
    print(f"A = [{', '.join(f'{v:.4f}' for v in model.params.A)}]")
    print(f"C = [{', '.join(f'{v:.4f}' for v in model.params.C)}]")
    print(f"wrote {MODEL_FILE}, {SPACE_FILE}, {REPORT_FILE} to {out}")
    return 0


def cmd_eval(args) -> int:
    config = _load_config(args.config, (*_SERIES_KEYS, "model_dir"))
    series, u = _prepare_series(args, config)
    model_dir = _setting(args, config, "model_dir") or _setting(args, config, "out", ".")
    model = _load_model_dir(model_dir)
    cpms = getattr(args, "cpms", None)
    if cpms is not None and cpms != model.space.cpms:
        raise ConfigError(
            f"--cpms {cpms} does not match the loaded pattern space ({model.space.cpms} classes)"
        )
    out = _out_dir(_setting(args, config, "out", "."))

    trace = forecast_series(model, series, u)
    report = rmse_from_records(trace)
    write_rmse_csv(out / RMSE_FILE, model.space.cpms, report)
    write_trace_csv(out / TRACE_FILE, trace)
    print(f"wrote {RMSE_FILE}, {TRACE_FILE} to {out}")
    return 0


def cmd_sweep(args) -> int:
    config = _load_config(args.config, (*_MODEL_KEYS, "cpms_range"))
    series, u = _prepare_series(args, config)
    cpms_values = _parse_cpms_range(_setting(args, config, "cpms_range", "16..36"))
    # Each cell sets its own class count on a copy of this configuration.
    n, m, fcm = _model_settings(args, config, 2)
    out = _out_dir(_setting(args, config, "out", "."))

    cells = sweep_cpms(series, u, cpms_values, n, m, fcm=fcm)
    for cell in cells:
        if cell.error is not None:
            print(f"cpms={cell.cpms} failed: {cell.error}", file=sys.stderr)
    write_sweep_csv(out / SWEEP_FILE, cells)
    print(f"wrote {SWEEP_FILE} to {out}")
    return 0


def cmd_robust(args) -> int:
    config = _load_config(args.config, (*_SERIES_KEYS, "model_dir", "magnitude", "seed"))
    series, u = _prepare_series(args, config)
    model_dir = _setting(args, config, "model_dir") or _setting(args, config, "out", ".")
    model = _load_model_dir(model_dir)
    magnitude = _setting(args, config, "magnitude", 0.002, float)
    if magnitude < 0:
        raise ConfigError(f"--magnitude must be >= 0, got {magnitude}")
    seed = _setting(args, config, "seed", 0, int)
    out = _out_dir(_setting(args, config, "out", "."))

    result = robustness_experiment(model, series, u, magnitude, seed)
    write_robust_csv(out / ROBUST_FILE, result)
    print(f"final class match: {'yes' if result.final_class_match else 'no'}")
    print(f"wrote {ROBUST_FILE} to {out}")
    return 0


def cmd_synth(args) -> int:
    if args.config is None:
        spec = default_synthetic_spec()
    else:
        spec = SyntheticSpec.from_json(_load_config(args.config, _SPEC_KEYS))
    if args.seed is not None:
        spec = spec.with_seed(args.seed)
    out = _out_dir(args.out if args.out is not None else ".")

    result = synthesize(spec)
    with open(out / SYNTH_DATA_FILE, "w", encoding="utf-8", newline="") as fh:
        fh.write("x,u\n")
        for x, u in zip(result.data, result.u):
            fh.write(f"{float(x)!r},{float(u)!r}\n")
    _write_json(out / SYNTH_TRUTH_FILE, spec.to_json())
    print(f"wrote {SYNTH_DATA_FILE} ({spec.length} rows), {SYNTH_TRUTH_FILE} to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iarx",
        description="Interval ARX forecasting over a pattern moving space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_model_dir=False):
        p.add_argument("--data", help="input CSV (header row, numeric columns)")
        p.add_argument("--input-col", dest="input_col", help="name of the input column")
        p.add_argument("--out", help="output directory (created if missing)")
        p.add_argument("--seed", type=int, help="random seed")
        p.add_argument("--config", help="JSON file of flag defaults")
        if with_model_dir:
            p.add_argument(
                "--model-dir",
                dest="model_dir",
                help="directory holding model.json/space.json (default: --out)",
            )

    def add_model(p):
        p.add_argument("--n", type=int, help="autoregressive order (default 3)")
        p.add_argument("--m", type=int, help="input order (default 1)")
        p.add_argument("--fuzziness", type=float, help=f"fcm fuzziness (default {FcmConfig.fuzziness})")
        p.add_argument("--fcm-tolerance", dest="fcm_tolerance", type=float, help="fcm center-shift tolerance")
        p.add_argument("--fcm-iterations", dest="fcm_iterations", type=int, help="fcm iteration cap")

    p_fit = sub.add_parser("fit", help="fit a pattern space and model, write model files")
    add_common(p_fit)
    add_model(p_fit)
    p_fit.add_argument("--cpms", type=int, help="class count (default 26)")
    p_fit.set_defaults(func=cmd_fit)

    p_eval = sub.add_parser("eval", help="score a fitted model, write rmse.csv and trace.csv")
    add_common(p_eval, with_model_dir=True)
    p_eval.add_argument("--cpms", type=int, help="cross-check against the loaded space")
    p_eval.set_defaults(func=cmd_eval)

    p_sweep = sub.add_parser("sweep", help="fit and score across a class-count range")
    add_common(p_sweep)
    add_model(p_sweep)
    p_sweep.add_argument("--cpms-range", dest="cpms_range", help="inclusive range A..B (default 16..36)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_robust = sub.add_parser("robust", help="perturb radius coefficients and compare scores")
    add_common(p_robust, with_model_dir=True)
    p_robust.add_argument("--magnitude", type=float, help="uniform offset bound (default 0.002)")
    p_robust.set_defaults(func=cmd_robust)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset and its ground truth")
    p_synth.add_argument("--out", help="output directory (created if missing)")
    p_synth.add_argument("--seed", type=int, help="override the spec seed")
    p_synth.add_argument("--config", help="JSON synthetic spec (default: built-in spec)")
    p_synth.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _NUMERICAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
