"""End-to-end pipeline tests: fitting, forecasting, scoring, perturbation, CSV output."""

import itertools
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from dataclasses import replace

import iarx
from iarx import intervals, pipeline
from iarx.data_io import default_synthetic_spec, synthesize, zero_mean_normalize
from iarx.errors import ConvergenceWarning, DataError, SimulationError
from iarx.intervals import Interval
from iarx.model import IarxParams, lag_columns, predict_bounds, predict_compositional
from iarx.pipeline import (
    ForecastRecord,
    ForecastTrace,
    RmseReport,
    evaluate,
    fit_model,
    forecast_series,
    perturb_radius_params,
    rmse_from_records,
    robustness_experiment,
    sweep_cpms,
    write_robust_csv,
    write_sweep_csv,
    write_trace_csv,
)
from oracles import hausdorff_distance


def _trace(records):
    """A ForecastTrace holding the given ForecastRecords as its rows."""
    return ForecastTrace(
        k=[r.k for r in records],
        actual_lower=[r.actual.lower for r in records],
        actual_upper=[r.actual.upper for r in records],
        prelim_lower=[r.prelim.lower for r in records],
        prelim_upper=[r.prelim.upper for r in records],
        final_lower=[r.final.lower for r in records],
        final_upper=[r.final.upper for r in records],
        class_id=[r.class_id for r in records],
    )


def _nearest(space, iv) -> int:
    """Id of the class Hausdorff-nearest to ``iv``, by explicit distances; lowest id on ties."""
    return min(space.classes, key=lambda cls: hausdorff_distance(iv, cls.interval)).id


def _encoded(space, data) -> list[Interval]:
    """The class interval nearest each scalar, found by :func:`_nearest`."""
    return [space.classes[_nearest(space, Interval(x, x)) - 1].interval for x in data]


def _ties(space) -> np.ndarray:
    """Scalars exactly as far from two neighbouring classes; there is at least one."""
    ties = []
    for a, b in zip(space.classes, space.classes[1:]):
        x = 0.5 * (a.interval.lower + b.interval.upper)
        if hausdorff_distance(Interval(x, x), a.interval) == hausdorff_distance(Interval(x, x), b.interval):
            ties.append(x)
    assert ties
    return np.array(ties)


def test_fit_model_validation():
    data = np.sin(np.linspace(0.0, 20.0, 200)) * 3.0
    u = np.cos(np.linspace(0.0, 20.0, 200))
    with pytest.raises(ValueError):
        fit_model(data, u, cpms=1, n=3, m=1)
    with pytest.raises(ValueError, match=r"^cpms must be an integer, got 16\.9$"):
        fit_model(data, u, cpms=16.9, n=3, m=1)
    with pytest.raises(ValueError, match=r"^autoregressive order n must be an integer, got 3\.5$"):
        fit_model(data, u, cpms=8, n=3.5, m=1)
    with pytest.raises(ValueError, match=r"^input order m must be an integer, got 1\.5$"):
        fit_model(data, u, cpms=8, n=3, m=1.5)
    with pytest.raises(DataError):
        fit_model(data, u[:-1], cpms=8, n=3, m=1)
    with pytest.raises(DataError, match=r"^cluster count 8 exceeds the 5 data point\(s\)$"):
        fit_model(data[:5], u[:5], cpms=8, n=1, m=0)
    with pytest.raises(DataError, match=r"^need at least 8 samples to fit orders n=3, m=1$"):
        fit_model(data[:7], u[:7], cpms=2, n=3, m=1)


@pytest.mark.parametrize(
    "start, end, message",
    [
        (2, None, r"^start 2 is inside the lag warm-up \(first valid step is 3\)$"),
        (None, 865, r"^end 865 is beyond the 864 samples$"),
        (10, 10, r"^empty scored range \[10, 10\)$"),
        (500, 400, r"^empty scored range \[500, 400\)$"),
    ],
)
def test_forecast_range_is_checked(default_model, default_result, start, end, message):
    with pytest.raises(DataError, match=message):
        forecast_series(default_model, default_result.data, default_result.u, start=start, end=end)


@pytest.mark.parametrize(
    "start, end, message",
    [
        (3.5, None, r"^start must be an integer, got 3\.5$"),
        (None, 100.0, r"^end must be an integer, got 100\.0$"),
    ],
)
def test_forecast_range_must_be_integers(default_model, default_result, start, end, message):
    with pytest.raises(ValueError, match=message):
        forecast_series(default_model, default_result.data, default_result.u, start=start, end=end)


def test_forecast_data_and_input_lengths_must_agree(default_model, default_result):
    with pytest.raises(DataError, match=r"^data length 864 does not match u length 863$"):
        forecast_series(default_model, default_result.data, default_result.u[:-1])


@pytest.mark.parametrize("column", ["data", "u"])
def test_forecast_rejects_a_non_finite_sample(default_model, default_result, default_records, column):
    # A non-finite sample is an input error, not silently a class-1 encoding.
    arrays = {"data": default_result.data.copy(), "u": default_result.u.copy()}
    for value in (np.nan, np.inf, -np.inf):
        arrays[column][100] = value
        with pytest.raises(DataError, match=rf"^{column} sample 100 is not finite$"):
            forecast_series(default_model, arrays["data"], arrays["u"])
    # a sample before the lags of the scored range is not read
    kmin = max(default_model.n, default_model.m)
    trace = forecast_series(default_model, arrays["data"], arrays["u"], start=101 + kmin)
    np.testing.assert_array_equal(trace.prelim_upper, default_records.prelim_upper[101:])
    with pytest.raises(DataError, match=rf"^{column} sample 100 is not finite$"):
        forecast_series(default_model, arrays["data"], arrays["u"], start=100 + kmin)


@pytest.mark.parametrize("column", ["data", "u"])
def test_fit_rejects_a_non_finite_sample(default_result, column, capfd):
    # the input error forecast_series reports, raised before clustering or
    # least squares see the sample (a NaN input used to reach LAPACK, which
    # printed to stderr and raised numpy's LinAlgError)
    for value in (np.nan, np.inf, -np.inf):
        arrays = {"data": default_result.data.copy(), "u": default_result.u.copy()}
        arrays[column][100] = value
        with pytest.raises(DataError, match=rf"^{column} sample 100 is not finite$"):
            fit_model(arrays["data"], arrays["u"], cpms=16, n=3, m=1)
        # no class count can fit the series, so a sweep raises the same error before its first cell
        with pytest.raises(DataError, match=rf"^{column} sample 100 is not finite$"):
            sweep_cpms(arrays["data"], arrays["u"], [16, 17], n=3, m=1)
    assert capfd.readouterr().err == ""


def test_forecast_range_and_record_layout(default_model, default_result, default_records):
    n, m = default_model.n, default_model.m
    length = len(default_result.data)
    ks = [r.k for r in default_records]
    assert ks[0] == max(n, m)
    assert ks[-1] == length - 1
    assert len(default_records) == length - max(n, m)
    assert ks == list(range(max(n, m), length))


def test_final_forecasts_closed_over_class_set(default_model, default_records):
    # Every final interval must be one of the class intervals, bit for bit.
    classes = default_model.space.classes
    class_set = {(c.interval.lower, c.interval.upper) for c in classes}
    for r in default_records:
        assert (r.final.lower, r.final.upper) in class_set
        assert r.final == classes[r.class_id - 1].interval


def test_final_class_is_nearest(default_model, default_records):
    for r in itertools.islice(default_records, 0, None, 37):
        assert r.class_id == _nearest(default_model.space, r.prelim)


def _same_bits(a, b) -> bool:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and bool(np.array_equal(a.view(np.int64), b.view(np.int64)))


@pytest.mark.parametrize("cpms", [16, 26, 36])
def test_batched_forecast_matches_per_step_oracle(default_result, cpms):
    # The per-step route the batched pass replaced, built from the independent
    # compositional predictor and explicit Hausdorff distances: encode, predict
    # each step, take the nearest class and its interval.
    data, u = default_result.data, default_result.u
    model = fit_model(data, u, cpms=cpms, n=3, m=1)
    # Scored after the default data: scalars whose encoding the lowest-id tie rule decides.
    ties = _ties(model.space)
    data, u = np.append(data, ties), np.append(u, u[: ties.size])
    trace = forecast_series(model, data, u)
    dx = _encoded(model.space, data)
    steps = range(max(model.n, model.m), len(data))
    oracle_prelims = [predict_compositional(model.params, dx, u, k) for k in steps]
    oracle_ids = [_nearest(model.space, p) for p in oracle_prelims]
    oracle_finals = [model.space.classes[c - 1].interval for c in oracle_ids]

    np.testing.assert_array_equal(trace.k, list(steps))
    np.testing.assert_array_equal(trace.class_id, oracle_ids)
    assert _same_bits(trace.final_lower, [f.lower for f in oracle_finals])
    assert _same_bits(trace.final_upper, [f.upper for f in oracle_finals])
    assert _same_bits(trace.actual_lower, [dx[k].lower for k in steps])
    assert _same_bits(trace.actual_upper, [dx[k].upper for k in steps])
    np.testing.assert_allclose(trace.prelim_lower, [p.lower for p in oracle_prelims], rtol=0, atol=1e-12)
    np.testing.assert_allclose(trace.prelim_upper, [p.upper for p in oracle_prelims], rtol=0, atol=1e-12)


def test_predict_is_one_row_of_the_trace(default_model, default_result, default_records):
    # One kernel: a one-row prediction of a step is bit-identical to its row.
    data, u = default_result.data, default_result.u
    n, m = default_model.n, default_model.m
    dx = _encoded(default_model.space, data)
    centers = np.array([iv.center for iv in dx])
    radii = np.array([iv.radius for iv in dx])
    rows = [lag_columns(centers, radii, u, n, m, k, k + 1) for k in default_records.k]
    prelims = np.array([np.concatenate(predict_bounds(default_model.params, *row)) for row in rows])
    assert _same_bits(default_records.prelim_lower, prelims[:, 0])
    assert _same_bits(default_records.prelim_upper, prelims[:, 1])


def test_encoding_is_the_nearest_class_center_and_radius(default_model, default_result):
    # Identification and forecasting share one encoding: the nearest class of
    # each sample with that class's own center and radius, bit for bit.
    space = default_model.space
    edge = space.classes[0].interval.upper  # a scalar on a class boundary
    data = np.concatenate([default_result.data, [edge], _ties(space)])
    idx, centers, radii = pipeline._encode(space, data)
    dx = _encoded(space, data)
    np.testing.assert_array_equal(space.lowers[idx], [iv.lower for iv in dx])
    np.testing.assert_array_equal(space.uppers[idx], [iv.upper for iv in dx])
    assert _same_bits(centers, [iv.center for iv in dx])
    assert _same_bits(radii, [iv.radius for iv in dx])


def _count_intervals(monkeypatch) -> list:
    """A list that grows by one with every Interval constructed from here on."""
    calls = []
    init = intervals.Interval.__init__

    def counted(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(intervals.Interval, "__init__", counted)
    return calls


def test_evaluate_constructs_no_intervals(default_model, monkeypatch):
    # Forecasting a long series allocates columns, never one Interval per step.
    res = synthesize(replace(default_synthetic_spec(), length=17_280))
    calls = _count_intervals(monkeypatch)
    report = evaluate(default_model, res.data, res.u)
    monkeypatch.undo()
    assert len(calls) == 0
    assert np.all(np.isfinite(report.as_row()))


def test_fit_sweep_and_robustness_construct_no_class_objects(default_result, monkeypatch):
    # The pattern space is three arrays: fitting, saving and loading it,
    # forecasting on it, sweeping and perturbing build no Interval, and so
    # no PatternClass, which holds one.
    data, u = default_result.data, default_result.u
    calls = _count_intervals(monkeypatch)
    model = fit_model(data, u, cpms=26, n=3, m=1)
    assert type(model.space).from_json(model.space.to_json()) == model.space
    evaluate(model, data, u)
    cells = sweep_cpms(data, u, range(16, 18), n=3, m=1)
    robustness_experiment(model, data, u, magnitude=0.05, seed=0)
    assert [cell.error for cell in cells] == [None, None]
    assert len(calls) == 0
    assert len(model.space.classes) == 26 and len(calls) == 26  # the class view builds them on first use


def test_non_finite_forecast_is_simulation_error(default_model, default_result, monkeypatch):
    data, u = default_result.data, default_result.u
    # Center and radius are each 1e308 on every step, so every upper bound overflows.
    width = default_model.params.A.size
    huge = IarxParams(n=3, m=1, A=[1e308] + [0.0] * (width - 1), C=[1e308] + [0.0] * (width - 1))
    model = replace(default_model, params=huge)
    with pytest.raises(SimulationError, match=r"step 3 is not finite: \[0.0, inf\]"):
        forecast_series(model, data, u)
    with pytest.raises(SimulationError, match="step 10 is not finite"):
        evaluate(model, data, u, start=10)
    # A sweep records the failure in its table and moves on.
    monkeypatch.setattr(pipeline, "fit", lambda *args: huge)
    (cell,) = sweep_cpms(data, u, [16], n=3, m=1)
    assert cell.report is None and "not finite" in cell.error


def test_trace_columns_are_validated_and_read_only():
    trace = ForecastTrace(
        k=[3, 4], actual_lower=[0.0, 1.0], actual_upper=[1.0, 2.0], prelim_lower=[0.0, 1.0],
        prelim_upper=[1.0, 2.0], final_lower=[0.0, 1.0], final_upper=[1.0, 2.0], class_id=[1, 2],
    )
    assert len(trace) == 2
    assert trace.k.dtype == np.int64 and trace.prelim_lower.dtype == np.float64
    with pytest.raises(ValueError):
        trace.prelim_lower[0] = 5.0
    with pytest.raises(ValueError, match="differ in length"):
        ForecastTrace(
            k=[3], actual_lower=[0.0], actual_upper=[1.0], prelim_lower=[0.0],
            prelim_upper=[1.0], final_lower=[0.0], final_upper=[1.0], class_id=[1, 2],
        )
    with pytest.raises(ValueError, match="^trace column prelim_upper must be one-dimensional$"):
        ForecastTrace(
            k=[3], actual_lower=[0.0], actual_upper=[1.0], prelim_lower=[0.0],
            prelim_upper=[[1.0]], final_lower=[0.0], final_upper=[1.0], class_id=[1],
        )


def test_trace_indexes_and_replaces_steps_like_a_record_list():
    records = [
        ForecastRecord(k=3, actual=Interval(0.5, 1.5), prelim=Interval(0.25, 1.75), final=Interval(0.5, 1.5), class_id=2),
        ForecastRecord(k=4, actual=Interval(-1.0, 0.0), prelim=Interval(-1.1, 0.2), final=Interval(-1.0, 0.0), class_id=1),
    ]
    trace = _trace(records)
    assert trace[0] == records[0] and trace[-1] == records[1]
    assert list(trace) == records
    with pytest.raises(IndexError):
        trace[2]
    with pytest.raises(IndexError):
        trace[-3] = records[0]
    before = trace.final_lower
    lower = math.nextafter(records[1].final.lower, -math.inf)
    trace[-1] = replace(records[1], final=Interval(lower, 0.0))
    assert trace.final_lower.tolist() == [0.5, lower]
    assert trace[1].final == Interval(lower, 0.0) and trace[0] == records[0]
    # Arrays read before the assignment keep their values and stay read-only.
    assert before.tolist() == [0.5, -1.0]
    with pytest.raises(ValueError):
        trace.final_lower[0] = 5.0


def test_rmse_perfect_forecast_scores_zero():
    records = _trace([
        ForecastRecord(k=k, actual=Interval(k, k + 1.0), prelim=Interval(k, k + 1.0), final=Interval(k, k + 1.0), class_id=1)
        for k in range(3, 9)
    ])
    report = rmse_from_records(records)
    assert report.as_row() == (0.0, 0.0, 0.0, 0.0)


def test_rmse_constant_offset():
    # A uniform shift of delta on every bound makes every RMSE exactly |delta|.
    delta = 0.375
    records = _trace([
        ForecastRecord(
            k=k,
            actual=Interval(k, k + 2.0),
            prelim=Interval(k + delta, k + 2.0 + delta),
            final=Interval(k - delta, k + 2.0 - delta),
            class_id=1,
        )
        for k in range(5)
    ])
    report = rmse_from_records(records)
    assert report.prelim_upper == delta
    assert report.prelim_lower == delta
    assert report.final_upper == delta
    assert report.final_lower == delta


def test_rmse_scales_linearly():
    rng = np.random.default_rng(7)

    def rand_interval():
        lo = rng.normal()
        return Interval(lo, lo + rng.uniform(0.0, 3.0))

    records = []
    doubled = []
    for k in range(40):
        a = rand_interval()
        p = rand_interval()
        f = rand_interval()
        records.append(ForecastRecord(k=k, actual=a, prelim=p, final=f, class_id=1))
        doubled.append(
            ForecastRecord(
                k=k,
                actual=Interval(2 * a.lower, 2 * a.upper),
                prelim=Interval(2 * p.lower, 2 * p.upper),
                final=Interval(2 * f.lower, 2 * f.upper),
                class_id=1,
            )
        )
    base = np.array(rmse_from_records(_trace(records)).as_row())
    twice = np.array(rmse_from_records(_trace(doubled)).as_row())
    np.testing.assert_allclose(twice, 2.0 * base, rtol=1e-12)


def test_rmse_empty_records_rejected():
    with pytest.raises(DataError):
        rmse_from_records(_trace([]))


def test_rmse_that_is_not_finite_raises_simulation_error():
    # finite errors whose squares overflow, at one step or only in their sum,
    # give no inf RMSE and no overflow warning; the error names the channel
    zeros, big = np.zeros(3), np.full(3, 1e154)
    columns = dict(k=[4, 5, 6], actual_lower=zeros, actual_upper=zeros, final_lower=zeros, final_upper=zeros)
    cases = [
        ([0.0, 1e155, 0.0], "prelim_lower RMSE is not finite, from the squared error at step 5"),
        (big, "prelim_lower RMSE is not finite, from the sum of the squared errors"),
    ]
    for prelim_lower, message in cases:
        trace = ForecastTrace(**columns, prelim_lower=prelim_lower, prelim_upper=zeros, class_id=[1, 1, 1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SimulationError, match=f"^{message}$"):
                rmse_from_records(trace)


def test_evaluate_matches_manual_scoring(default_model, default_result, default_records, default_report):
    assert default_report == rmse_from_records(default_records)
    again = evaluate(default_model, default_result.data, default_result.u)
    assert again == default_report


def test_perturb_radius_params_properties():
    coeffs = np.array([0.3, 0.25, 0.1, 0.05, 0.4])
    np.testing.assert_array_equal(perturb_radius_params(coeffs, 0.0, seed=5), coeffs)
    shifted = perturb_radius_params(coeffs, 0.02, seed=5)
    deltas = shifted - coeffs
    assert np.all(deltas >= 0.0)
    assert np.all(deltas <= 0.02)
    np.testing.assert_array_equal(shifted, perturb_radius_params(coeffs, 0.02, seed=5))
    assert not np.array_equal(shifted, perturb_radius_params(coeffs, 0.02, seed=6))
    with pytest.raises(ValueError):
        perturb_radius_params(coeffs, -0.1, seed=0)
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        perturb_radius_params(coeffs, 0.02, seed=-1)
    with pytest.raises(ValueError, match=r"^seed must be an integer, got 1\.5$"):
        perturb_radius_params(coeffs, 0.02, seed=1.5)


def test_robustness_zero_magnitude_is_identity(default_model, default_result):
    res = robustness_experiment(default_model, default_result.data, default_result.u, magnitude=0.0, seed=0)
    assert res.final_class_match
    assert res.original == res.perturbed
    np.testing.assert_array_equal(res.perturbed_params.C, default_model.params.C)


def test_robustness_digestion_exactness(default_model, default_result):
    # When every step keeps its final class, the perturbation is fully
    # absorbed by classification: final RMSEs are identical to the bit.
    res = robustness_experiment(default_model, default_result.data, default_result.u, magnitude=0.01, seed=8)
    assert res.final_class_match
    assert res.original.final_upper == res.perturbed.final_upper
    assert res.original.final_lower == res.perturbed.final_lower
    # The preliminary forecasts do move - the offsets are strictly positive.
    assert res.perturbed.prelim_upper != res.original.prelim_upper


def test_robustness_large_magnitude_flips(default_model, default_result):
    res = robustness_experiment(default_model, default_result.data, default_result.u, magnitude=0.5, seed=8)
    assert not res.final_class_match
    assert (res.perturbed.final_upper, res.perturbed.final_lower) != (
        res.original.final_upper,
        res.original.final_lower,
    )


def test_robustness_preserves_centers(default_model, default_result):
    res = robustness_experiment(default_model, default_result.data, default_result.u, magnitude=0.01, seed=8)
    np.testing.assert_array_equal(res.perturbed_params.A, default_model.params.A)
    assert np.all(res.perturbed_params.C >= default_model.params.C)


def test_sweep_deterministic_and_ordered(default_result):
    data, u = default_result.data, default_result.u
    cells = sweep_cpms(data, u, [16, 20, 24], n=3, m=1)
    again = sweep_cpms(data, u, [16, 20, 24], n=3, m=1)
    assert [c.cpms for c in cells] == [16, 20, 24]
    for c, c2 in zip(cells, again):
        assert c.error is None
        assert c.report == c2.report


def test_default_sweep_converges_at_every_class_count(default_result):
    # no cell of the default sweep stops at the fuzzy c-means iteration cap,
    # on the raw series nor on the z-scored one the command line sweeps
    data, u = default_result.data, default_result.u
    for series, inputs in ((data, u), (zero_mean_normalize(data)[0], zero_mean_normalize(u)[0])):
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConvergenceWarning)
            cells = sweep_cpms(series, inputs, range(16, 37), n=3, m=1)
        assert [c.cpms for c in cells] == list(range(16, 37))
        assert all(c.error is None for c in cells)


def test_sweep_rejects_bad_arguments_before_the_first_cell(monkeypatch):
    # a bad order or class count is the caller's error, not a failed cell
    data = np.sin(np.linspace(0.0, 20.0, 200)) * 3.0
    u = np.cos(np.linspace(0.0, 20.0, 200))
    monkeypatch.setattr(pipeline, "fit_model", lambda *args, **kwargs: pytest.fail("a cell ran"))
    with pytest.raises(ValueError, match=r"^autoregressive order n must be >= 1, got 0$"):
        sweep_cpms(data, u, [16, 18], n=0, m=1)
    with pytest.raises(ValueError, match="cpms must be >= 2, got 1"):
        sweep_cpms(data, u, [16, 1], n=3, m=1)
    with pytest.raises(ValueError, match=r"^cpms must be an integer, got 16\.9$"):
        sweep_cpms(data, u, [16.9], n=3, m=1)
    with pytest.raises(ValueError, match=r"^cpms must be an integer, got '17'$"):
        sweep_cpms(data, u, ["17"], n=3, m=1)
    with pytest.raises(ValueError, match=r"^autoregressive order n must be an integer, got 2\.5$"):
        sweep_cpms(data, u, [16], n=2.5, m=1)
    with pytest.raises(ValueError, match=r"^input order m must be an integer, got 0\.5$"):
        sweep_cpms(data, u, [16], n=3, m=0.5)
    # a series that no class count can fit is the caller's error too
    bad = data.copy()
    bad[7] = np.nan
    for series, inputs, message in (
        (bad, u, "data sample 7 is not finite"),
        (data, u[:-1], "data length 200 does not match u length 199"),
        (data[:7], u[:7], "need at least 8 samples to fit orders n=3, m=1"),
    ):
        with pytest.raises(DataError, match=rf"^{message}$"):
            sweep_cpms(series, inputs, [16, 17], n=3, m=1)


def test_sweep_keeps_failed_cells():
    # Nine distinct values cannot seed more than nine clusters; those cells
    # must record their error while the feasible ones still fit.
    rng = np.random.default_rng(0)
    data = np.asarray(rng.integers(0, 9, size=400), dtype=float)
    u = rng.normal(size=400)
    cells = sweep_cpms(data, u, [np.int64(4), 50], n=2, m=1)  # a numpy integer is a class count too
    assert cells[0].error is None and cells[0].report is not None
    assert cells[1].report is None
    assert "distinct" in cells[1].error


def test_trace_csv_round_trip(tmp_path):
    records = _trace([
        ForecastRecord(k=3, actual=Interval(0.5, 1.5), prelim=Interval(0.25, 1.75), final=Interval(0.5, 1.5), class_id=2),
        ForecastRecord(k=4, actual=Interval(-1.0, 0.0), prelim=Interval(-1.1, 0.2), final=Interval(-1.0, 0.0), class_id=1),
    ])
    path = tmp_path / "trace.csv"
    write_trace_csv(path, records)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "k,dx_lower,dx_upper,prelim_lower,prelim_upper,final_lower,final_upper,class_id"
    assert lines[1] == "3,0.5,1.5,0.25,1.75,0.5,1.5,2"
    assert lines[2] == "4,-1.0,0.0,-1.1,0.2,-1.0,0.0,1"


def test_sweep_csv_blank_fields_for_failures(tmp_path):
    from iarx.pipeline import SweepCell

    cells = [
        SweepCell(cpms=4, report=RmseReport(1.5, 0.5, 2.0, 1.0), error=None),
        SweepCell(cpms=50, report=None, error="cannot seed 50 clusters from 9 distinct value(s)"),
    ]
    path = tmp_path / "sweep.csv"
    write_sweep_csv(path, cells)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("cpms,")
    assert lines[1] == "4,1.5,0.5,2.0,1.0"
    assert lines[2] == "50,,,,"


def test_robust_csv_rows(tmp_path, default_model, default_result):
    res = robustness_experiment(default_model, default_result.data, default_result.u, magnitude=0.01, seed=8)
    path = tmp_path / "robust.csv"
    write_robust_csv(path, res)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("original,") and lines[1].endswith(",true")
    assert lines[2].startswith("perturbed,") and lines[2].endswith(",true")
    # The written floats are exact reprs: parsing them back recovers the values.
    parsed = [float(v) for v in lines[1].split(",")[1:5]]
    assert tuple(parsed) == res.original.as_row()


def test_pipeline_rerun_bitwise_identical(default_report):
    spec = default_synthetic_spec()
    res = synthesize(spec)
    model = fit_model(res.data, res.u, cpms=26, n=3, m=1)
    report = evaluate(model, res.data, res.u)
    assert report == default_report


def test_fit_and_evaluate_leave_numpy_ma_unimported():
    # np.unique imports numpy.ma (through np.ma.is_masked), about 11 ms of
    # every CLI process that clusters; the seeding reads the distinct values
    # from the sorted series instead, and nothing else on the path needs it
    code = (
        "import sys, numpy; loaded = 'numpy.ma' in sys.modules\n"
        "from iarx.data_io import default_synthetic_spec, synthesize\n"
        "from iarx.pipeline import evaluate, fit_model\n"
        "res = synthesize(default_synthetic_spec())\n"
        "evaluate(fit_model(res.data, res.u, cpms=26, n=3, m=1), res.data, res.u)\n"
        "print(loaded, 'numpy.ma' in sys.modules)\n"
    )
    src = Path(iarx.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    with_numpy, after = proc.stdout.split()
    if with_numpy == "True":
        pytest.skip("import numpy alone loads numpy.ma here")
    assert after == "False"
