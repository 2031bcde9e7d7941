"""Per-op correctness checks that hold for any workload seed.

Every check works on plain arrays, so the same code verifies forecasts
returned in process (``ForecastRecord`` lists) and forecasts read back from
the CLI's ``trace.csv``. Each function returns a list of failure messages;
an empty list means the output passed.
"""

from __future__ import annotations

import numpy as np

from iarx.model import predict_compositional

# Preliminary bounds against the compositional oracle.
ORACLE_ATOL = 1e-9
# RMSEs recomputed here against the library's.
RMSE_RTOL = 1e-12
# Sampled steps per forecast pass for the oracle check.
ORACLE_SAMPLES = 8

FIELDS = (
    "k",
    "actual_lower",
    "actual_upper",
    "prelim_lower",
    "prelim_upper",
    "final_lower",
    "final_upper",
    "class_id",
)


def record_columns(records) -> dict[str, np.ndarray]:
    """Columns of a ``forecast_series`` result."""
    n = len(records)
    getters = {
        "k": lambda r: r.k,
        "actual_lower": lambda r: r.actual.lower,
        "actual_upper": lambda r: r.actual.upper,
        "prelim_lower": lambda r: r.prelim.lower,
        "prelim_upper": lambda r: r.prelim.upper,
        "final_lower": lambda r: r.final.lower,
        "final_upper": lambda r: r.final.upper,
        "class_id": lambda r: r.class_id,
    }
    cols = {}
    for name, get in getters.items():
        dtype = np.int64 if name in ("k", "class_id") else np.float64
        cols[name] = np.fromiter((get(r) for r in records), dtype=dtype, count=n)
    return cols


def trace_columns(path) -> dict[str, np.ndarray]:
    """Columns of a CLI ``trace.csv``; values are shortest round-trip reprs, so exact."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.rstrip("\n").split(",") for line in fh if line.strip()]
    expected = ["k", "dx_lower", "dx_upper", "prelim_lower", "prelim_upper",
                "final_lower", "final_upper", "class_id"]
    if header != expected:
        raise ValueError(f"unexpected trace header {header}")
    table = list(zip(*rows)) if rows else [()] * len(FIELDS)
    cols = {}
    for name, values in zip(FIELDS, table):
        if name in ("k", "class_id"):
            cols[name] = np.array([int(v) for v in values], dtype=np.int64)
        else:
            cols[name] = np.array([float(v) for v in values], dtype=np.float64)
    return cols


def class_bounds(space) -> tuple[np.ndarray, np.ndarray]:
    lowers = np.array([c.interval.lower for c in space.classes])
    uppers = np.array([c.interval.upper for c in space.classes])
    return lowers, uppers


def nearest_class(lower, upper, class_lowers, class_uppers) -> np.ndarray:
    """1-based id of the Hausdorff-nearest class; ties go to the lowest id."""
    dist = np.maximum(
        np.abs(np.asarray(lower)[:, None] - class_lowers[None, :]),
        np.abs(np.asarray(upper)[:, None] - class_uppers[None, :]),
    )
    return np.argmin(dist, axis=1) + 1


def closed_form_prelims(params, lowers, uppers, u, steps) -> tuple[np.ndarray, np.ndarray]:
    """Preliminary bounds of every step in ``steps``, computed here from the model equations.

    ``lowers`` and ``uppers`` are the bounds of the encoded series.
    """
    n, m = params.n, params.m
    centers = 0.5 * (lowers + uppers)
    radii = 0.5 * (uppers - lowers)
    x = np.ones((steps.size, 1 + n + m))
    x_abs = np.ones((steps.size, 1 + n + m))
    for j in range(1, n + 1):
        x[:, j] = centers[steps - j]
        x_abs[:, j] = radii[steps - j]
    for ell in range(1, m + 1):
        x[:, n + ell] = u[steps - ell]
        x_abs[:, n + ell] = np.abs(u[steps - ell])
    center = x @ params.A
    radius = x_abs @ params.C
    return center - radius, center + radius


def _same_bits(a, b) -> np.ndarray:
    return np.asarray(a, dtype=np.float64).view(np.int64) == np.asarray(b, dtype=np.float64).view(np.int64)


def rmse_row(cols) -> tuple[float, float, float, float]:
    """``(prelim_upper, prelim_lower, final_upper, final_lower)`` RMSEs from the columns."""

    def rmse(actual, forecast):
        return float(np.sqrt(np.mean((actual - forecast) ** 2)))

    return (
        rmse(cols["actual_upper"], cols["prelim_upper"]),
        rmse(cols["actual_lower"], cols["prelim_lower"]),
        rmse(cols["actual_upper"], cols["final_upper"]),
        rmse(cols["actual_lower"], cols["final_lower"]),
    )


def rmse_failures(label: str, expected, reported) -> list[str]:
    expected = np.asarray(expected, dtype=float)
    reported = np.asarray(reported, dtype=float)
    if expected.shape != reported.shape or not np.allclose(
        reported, expected, rtol=RMSE_RTOL, atol=0.0
    ):
        return [f"{label}: library RMSEs {reported.tolist()} != recomputed {expected.tolist()}"]
    return []


def forecast_failures(label: str, model, data, u, cols, rng: np.random.Generator) -> list[str]:
    """Check one forecast pass of ``model`` over ``data`` against its contract.

    - the scored steps are exactly ``max(n, m) .. len(data) - 1``;
    - each actual is the class interval the benchmark's own encoding picks;
    - each final interval is bit-identical to the interval of its class, and
      that class is Hausdorff-nearest to the preliminary interval;
    - preliminary bounds agree with ``predict_compositional`` on sampled steps.
    """
    data = np.asarray(data, dtype=float).ravel()
    u = np.asarray(u, dtype=float).ravel()
    kmin = max(model.n, model.m)
    steps = np.arange(kmin, data.size)
    if cols["k"].shape != steps.shape or not np.array_equal(cols["k"], steps):
        return [f"{label}: scored steps are not {kmin}..{data.size - 1}"]

    failures = []
    lowers, uppers = class_bounds(model.space)
    encoded = nearest_class(data, data, lowers, uppers)
    if not (
        np.all(_same_bits(cols["actual_lower"], lowers[encoded[steps] - 1]))
        and np.all(_same_bits(cols["actual_upper"], uppers[encoded[steps] - 1]))
    ):
        failures.append(f"{label}: encoded actuals differ from the nearest class intervals")

    ids = cols["class_id"]
    if ids.min() < 1 or ids.max() > lowers.size:
        return failures + [f"{label}: class id outside 1..{lowers.size}"]
    closed = _same_bits(cols["final_lower"], lowers[ids - 1]) & _same_bits(
        cols["final_upper"], uppers[ids - 1]
    )
    if not np.all(closed):
        bad = int(steps[np.argmin(closed)])
        failures.append(f"{label}: final interval at step {bad} is not its class interval")
    nearest = nearest_class(cols["prelim_lower"], cols["prelim_upper"], lowers, uppers)
    if not np.array_equal(nearest, ids):
        bad = int(steps[np.argmax(nearest != ids)])
        failures.append(f"{label}: class at step {bad} is not Hausdorff-nearest to the preliminary")

    history = [model.space.classes[i - 1].interval for i in encoded]
    for row in rng.choice(steps.size, size=min(ORACLE_SAMPLES, steps.size), replace=False):
        k = int(steps[row])
        oracle = predict_compositional(model.params, history, u, k)
        err = max(
            abs(oracle.lower - cols["prelim_lower"][row]),
            abs(oracle.upper - cols["prelim_upper"][row]),
        )
        if not err <= ORACLE_ATOL:
            failures.append(f"{label}: preliminary at step {k} is {err:.3e} from the oracle")
            break
    return failures
