"""Shared fixtures: the default dataset is expensive enough to fit once."""

import pytest

from iarx.data_io import default_synthetic_spec, synthesize
from iarx.pipeline import evaluate, fit_model, forecast_series


@pytest.fixture(scope="session")
def default_result():
    return synthesize(default_synthetic_spec())


@pytest.fixture(scope="session")
def default_model(default_result):
    return fit_model(default_result.data, default_result.u, cpms=26, n=3, m=1)


@pytest.fixture(scope="session")
def default_records(default_model, default_result):
    return forecast_series(default_model, default_result.data, default_result.u)


@pytest.fixture(scope="session")
def default_report(default_model, default_result):
    return evaluate(default_model, default_result.data, default_result.u)
