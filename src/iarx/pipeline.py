"""End-to-end forecasting pipeline and experiment drivers.

The pipeline fits a pattern space to a scalar series, encodes the series
as class intervals, identifies the interval ARX parameters on the encoded
series, and scores one-step-ahead forecasts. A forecast step produces two
intervals: the preliminary model output, and the final output obtained by
classifying the preliminary interval back into the space and measuring the
winning class - so every final output is bit-identical to a class interval.
A forecast pass computes all of its steps at once and returns them as
columns, a :class:`ForecastTrace`.

Experiment drivers cover accuracy-vs-class-count sweeps and the radius
perturbation study, plus the fixed CSV writers used by the command line.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import DataError, IarxError, SimulationError, all_finite, fit_series, integer, same_length
from .intervals import Interval
from .model import IarxParams, fit, lag_columns, predict_bounds
from .pattern_space import FcmConfig, PatternSpace, build_space

__all__ = [
    "MovingPatternModel",
    "ForecastRecord",
    "ForecastTrace",
    "RmseReport",
    "SweepCell",
    "RobustnessResult",
    "fit_model",
    "forecast_series",
    "evaluate",
    "rmse_from_records",
    "sweep_cpms",
    "perturb_radius_params",
    "robustness_experiment",
    "write_rmse_csv",
    "write_trace_csv",
    "write_sweep_csv",
    "write_robust_csv",
]

# Shared RMSE column block: preliminary then final, upper before lower.
RESULT_HEADER = "cpms,prelim_upper_rmse,prelim_lower_rmse,final_upper_rmse,final_lower_rmse"
TRACE_HEADER = "k,dx_lower,dx_upper,prelim_lower,prelim_upper,final_lower,final_upper,class_id"
ROBUST_HEADER = (
    "params,prelim_upper_rmse,prelim_lower_rmse,final_upper_rmse,final_lower_rmse,final_class_match"
)


@dataclass(frozen=True)
class MovingPatternModel:
    """A fitted pattern space plus the interval ARX parameters on it."""

    space: PatternSpace
    params: IarxParams

    @property
    def n(self) -> int:
        return self.params.n

    @property
    def m(self) -> int:
        return self.params.m


@dataclass(frozen=True)
class ForecastRecord:
    """A scored forecast step: the encoded actual plus the forecast triple."""

    k: int
    actual: Interval
    prelim: Interval
    final: Interval
    class_id: int


@dataclass(frozen=True, eq=False)
class ForecastTrace:
    """Scored forecast steps as columns, one entry per step ``k``.

    ``actual_*`` are the bounds of the encoded actual, ``prelim_*`` those of
    the preliminary model output and ``final_*`` those of class
    ``class_id``, the class nearest the preliminary. The columns are
    read-only one-dimensional arrays of equal length.

    The trace also keeps the interface of a list of
    :class:`ForecastRecord`: iterating or indexing it yields one record per
    step, and assigning a record to ``trace[i]`` replaces that step. An
    assignment swaps every column for an updated copy, so arrays read from
    the trace before keep their values.
    """

    k: np.ndarray
    actual_lower: np.ndarray
    actual_upper: np.ndarray
    prelim_lower: np.ndarray
    prelim_upper: np.ndarray
    final_lower: np.ndarray
    final_upper: np.ndarray
    class_id: np.ndarray

    def __post_init__(self):
        sizes = set()
        for name in _TRACE_COLUMNS:
            dtype = np.int64 if name in ("k", "class_id") else np.float64
            # A read-only view: the caller's array keeps its own flags.
            col = np.asarray(getattr(self, name), dtype=dtype).view()
            if col.ndim != 1:
                raise ValueError(f"trace column {name} must be one-dimensional")
            col.setflags(write=False)
            object.__setattr__(self, name, col)
            sizes.add(col.size)
        if len(sizes) != 1:
            raise ValueError(f"trace columns differ in length: {sorted(sizes)}")

    def __len__(self) -> int:
        return self.k.size

    def _columns(self) -> list[np.ndarray]:
        return [getattr(self, name) for name in _TRACE_COLUMNS]

    def _rows(self):
        """The steps as tuples of Python numbers, in column order."""
        return zip(*(col.tolist() for col in self._columns()))

    def __iter__(self):
        for row in self._rows():
            yield _record(*row)

    def __getitem__(self, index) -> ForecastRecord:
        return _record(*(col[index].item() for col in self._columns()))

    def __setitem__(self, index, record: ForecastRecord) -> None:
        values = (
            record.k,
            record.actual.lower,
            record.actual.upper,
            record.prelim.lower,
            record.prelim.upper,
            record.final.lower,
            record.final.upper,
            record.class_id,
        )
        for name, value in zip(_TRACE_COLUMNS, values):
            col = getattr(self, name).copy()
            col[index] = value
            col.setflags(write=False)
            object.__setattr__(self, name, col)


_TRACE_COLUMNS = tuple(field.name for field in fields(ForecastTrace))


def _record(k, al, au, pl, pu, fl, fu, cid) -> ForecastRecord:
    """One trace row, given in column order, as a record."""
    return ForecastRecord(
        k=k,
        actual=Interval(al, au),
        prelim=Interval(pl, pu),
        final=Interval(fl, fu),
        class_id=cid,
    )


@dataclass(frozen=True)
class RmseReport:
    """Root-mean-square errors of both bounds, preliminary and final."""

    prelim_upper: float
    prelim_lower: float
    final_upper: float
    final_lower: float

    def as_row(self) -> tuple[float, float, float, float]:
        return (self.prelim_upper, self.prelim_lower, self.final_upper, self.final_lower)


@dataclass(frozen=True)
class SweepCell:
    """One sweep entry; exactly one of ``report`` / ``error`` is set."""

    cpms: int
    report: RmseReport | None
    error: str | None


@dataclass(frozen=True)
class RobustnessResult:
    """Paired scores for original and perturbed radius parameters."""

    original: RmseReport
    perturbed: RmseReport
    final_class_match: bool
    perturbed_params: IarxParams


def _encode(space: PatternSpace, data: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Encode each sample as the class nearest its degenerate interval ``[x, x]``.

    The class comes from :meth:`PatternSpace.classify_points`. Returns the
    0-based class index of every sample with that class's center ``(L + U)
    / 2`` and radius ``(U - L) / 2``.
    """
    idx = space.classify_points(data)
    idx -= 1
    lowers, uppers = space.lowers, space.uppers
    return idx, (0.5 * (lowers + uppers)).take(idx), (0.5 * (uppers - lowers)).take(idx)


def fit_model(data, u, cpms: int, n: int, m: int, fcm: FcmConfig = FcmConfig()) -> MovingPatternModel:
    """Fit the full pipeline on a scalar series and its input series.

    Builds a ``cpms``-class pattern space, encodes the series, and
    identifies both parameter channels on the encoded centers and radii. ``fcm``
    supplies the other clustering settings. The orders and the series are
    checked by :func:`~iarx.errors.fit_series` before any clustering;
    clustering and identification errors propagate, and no retries are made.
    """
    integer(cpms, "cpms", 2)
    n, m, data, u = fit_series(n, m, data=data, u=u)
    space = build_space(data, cpms, fcm)
    _, centers, radii = _encode(space, data)
    return MovingPatternModel(space=space, params=fit(centers, radii, u, n, m))


def forecast_series(
    model: MovingPatternModel, data, u, start: int | None = None, end: int | None = None
) -> ForecastTrace:
    """One-step-ahead forecasts over ``[start, end)`` with true encoded history.

    Each step is predicted from the encoded actuals, never from earlier
    forecasts. The default range scores every step with a full lag window,
    i.e. ``max(n, m) .. len(data) - 1``. All steps are computed at once: the
    series is encoded as class ids by :meth:`PatternSpace.classify_points`,
    the lag columns are gathered from the class centers and radii, the
    preliminaries come from :func:`~iarx.model.predict_bounds` and are
    classified together by :meth:`PatternSpace.classify_bounds`, and the
    finals are the bounds of the winning classes. A ``start`` or ``end``
    that is not an integer raises ``ValueError``, a range outside the
    series or empty ``DataError``. The first non-finite sample of ``data``
    or ``u`` in ``[start - max(n, m), end)`` raises ``DataError``, the
    first non-finite preliminary ``SimulationError``.
    """
    data, u = same_length(data=data, u=u)
    kmin = max(model.n, model.m)
    start = kmin if start is None else integer(start, "start")
    end = data.size if end is None else integer(end, "end")
    if start < kmin:
        raise DataError(f"start {start} is inside the lag warm-up (first valid step is {kmin})")
    if end > data.size:
        raise DataError(f"end {end} is beyond the {data.size} samples")
    if start >= end:
        raise DataError(f"empty scored range [{start}, {end})")

    # Only the scored steps and their lags are read; row 0 is step start - kmin.
    offset = start - kmin
    all_finite(offset, data=data[offset:end], u=u[offset:end])
    space = model.space
    lowers, uppers = space.lowers, space.uppers
    idx, centers, radii = _encode(space, data[offset:end])
    x, x_abs = lag_columns(centers, radii, u[offset:end], model.n, model.m, kmin, end - offset)
    prelim_lower, prelim_upper = predict_bounds(model.params, x, x_abs)
    finite = np.isfinite(prelim_lower) & np.isfinite(prelim_upper)
    if not finite.all():
        row = int(np.argmin(finite))
        raise SimulationError(
            f"forecast at step {start + row} is not finite: "
            f"[{float(prelim_lower[row])!r}, {float(prelim_upper[row])!r}]"
        )
    class_id = space.classify_bounds(prelim_lower, prelim_upper)
    actual, final = idx[kmin:], class_id - 1
    return ForecastTrace(
        k=np.arange(start, end),
        actual_lower=lowers.take(actual),
        actual_upper=uppers.take(actual),
        prelim_lower=prelim_lower,
        prelim_upper=prelim_upper,
        final_lower=lowers.take(final),
        final_upper=uppers.take(final),
        class_id=class_id,
    )


def rmse_from_records(trace: ForecastTrace) -> RmseReport:
    """Bound-wise RMSEs of preliminary and final forecasts against the actuals.

    An RMSE that is not finite raises ``SimulationError`` naming its channel
    and the first step whose squared error is not finite, if one is.
    """
    if len(trace) == 0:
        raise DataError("cannot score an empty forecast trace")
    squares = np.empty(len(trace))

    def rmse(name: str, actual: np.ndarray, forecast: np.ndarray) -> float:
        np.subtract(actual, forecast, out=squares)
        np.multiply(squares, squares, out=squares)
        value = float(np.sqrt(np.add.reduce(squares) / squares.size))  # the sum and the division of np.mean
        if not value < np.inf:
            bad = np.flatnonzero(~np.isfinite(squares))
            source = f"the squared error at step {trace.k[bad[0]]}" if bad.size else "the sum of the squared errors"
            raise SimulationError(f"{name} RMSE is not finite, from {source}")
        return value

    with np.errstate(over="ignore", invalid="ignore"):
        return RmseReport(
            prelim_upper=rmse("prelim_upper", trace.actual_upper, trace.prelim_upper),
            prelim_lower=rmse("prelim_lower", trace.actual_lower, trace.prelim_lower),
            final_upper=rmse("final_upper", trace.actual_upper, trace.final_upper),
            final_lower=rmse("final_lower", trace.actual_lower, trace.final_lower),
        )


def evaluate(
    model: MovingPatternModel, data, u, start: int | None = None, end: int | None = None
) -> RmseReport:
    """Score one-step-ahead forecasts; see :func:`forecast_series` for the range."""
    return rmse_from_records(forecast_series(model, data, u, start=start, end=end))


def sweep_cpms(data, u, cpms_values, n: int, m: int, fcm: FcmConfig = FcmConfig()) -> list[SweepCell]:
    """Fit and score one model per class count; failures stay in the table.

    The orders and every class count are checked before the first cell, so
    a bad argument raises ``ValueError``, and then the series, so one that no
    class count can fit raises ``DataError`` (see :func:`~iarx.errors.fit_series`). A cell that
    fails with a package error (for example, more classes than distinct data
    values) records its error message and the sweep moves on.
    """
    cpms_values = list(cpms_values)
    for cpms in cpms_values:
        integer(cpms, "cpms", 2)
    n, m, data, u = fit_series(n, m, data=data, u=u)
    cells = []
    for cpms in cpms_values:
        try:
            report, error = evaluate(fit_model(data, u, cpms, n, m, fcm=fcm), data, u), None
        except IarxError as exc:
            report, error = None, str(exc)
        cells.append(SweepCell(cpms=cpms, report=report, error=error))
    return cells


def perturb_radius_params(radius_coeffs, magnitude: float, seed: int) -> np.ndarray:
    """Add independent Uniform[0, magnitude] offsets to the radius coefficients.

    Offsets are one-sided so the perturbed coefficients stay nonnegative.
    Deterministic for a fixed seed; magnitude zero returns the input unchanged.
    A magnitude that is negative or not finite, or a seed that is not an
    integer >= 0, raises ``ValueError``.
    """
    if not 0.0 <= magnitude < np.inf:
        raise ValueError(f"magnitude must be finite and >= 0, got {magnitude!r}")
    seed = integer(seed, "seed", 0)
    coeffs = np.asarray(radius_coeffs, dtype=float).ravel()
    rng = np.random.default_rng(seed)
    return coeffs + rng.uniform(0.0, magnitude, size=coeffs.size)


def robustness_experiment(
    model: MovingPatternModel, data, u, magnitude: float, seed: int
) -> RobustnessResult:
    """Score the model before and after perturbing its radius coefficients.

    Also reports whether every scored step kept its final class - when it
    did, the perturbation was fully absorbed by the classification stage
    and the final RMSEs match bit for bit.
    """
    perturbed_c = perturb_radius_params(model.params.C, magnitude, seed)
    baseline = forecast_series(model, data, u)
    perturbed_params = replace(model.params, C=perturbed_c)
    perturbed_model = MovingPatternModel(space=model.space, params=perturbed_params)
    shifted = forecast_series(perturbed_model, data, u)
    match = bool(np.array_equal(baseline.class_id, shifted.class_id))
    return RobustnessResult(
        original=rmse_from_records(baseline),
        perturbed=rmse_from_records(shifted),
        final_class_match=match,
        perturbed_params=perturbed_params,
    )


def _row(label, report: RmseReport) -> str:
    """``label`` and the four RMSEs, each as the shortest digit string that round-trips it."""
    return ",".join([str(label)] + [repr(float(v)) for v in report.as_row()])


def _write_csv(path, header: str, lines) -> None:
    """Write ``header`` and then ``lines``, one per row."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join([header, *lines]) + "\n")


def write_rmse_csv(path, cpms: int, report: RmseReport) -> None:
    _write_csv(path, RESULT_HEADER, [_row(cpms, report)])


def write_trace_csv(path, trace: ForecastTrace) -> None:
    """One row per step; floats are written as their shortest round-trip reprs."""
    rows = (
        f"{k},{al!r},{au!r},{pl!r},{pu!r},{fl!r},{fu!r},{cid}" for k, al, au, pl, pu, fl, fu, cid in trace._rows()
    )
    _write_csv(path, TRACE_HEADER, rows)


def write_sweep_csv(path, cells) -> None:
    """Write sweep results; a failed cell keeps its row with empty RMSE fields."""
    rows = (f"{cell.cpms},,,," if cell.report is None else _row(cell.cpms, cell.report) for cell in cells)
    _write_csv(path, RESULT_HEADER, rows)


def write_robust_csv(path, result: RobustnessResult) -> None:
    """Two labeled rows (original, perturbed) plus the digestion flag."""
    flag = "true" if result.final_class_match else "false"
    rows = [f"{_row('original', result.original)},{flag}", f"{_row('perturbed', result.perturbed)},{flag}"]
    _write_csv(path, ROBUST_HEADER, rows)
