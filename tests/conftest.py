"""Shared fixtures: the default dataset is expensive enough to fit once, and the seed-3 chain to run once."""

import importlib.util
import os
from pathlib import Path

import pytest

from iarx.cli import main
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


@pytest.fixture(scope="session")
def bench_layers():
    """``tools/bench_layers.py`` as a module: the one definition of the chains, its ``fingerprints`` and ``main``."""
    path = Path(__file__).resolve().parents[1] / "tools" / "bench_layers.py"
    spec = importlib.util.spec_from_file_location("bench_layers", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def run_in_process(tmp_path_factory):
    """Runs a chain of the script in-process, in a fresh working directory; returns that directory."""

    def run(commands) -> Path:
        directory = tmp_path_factory.mktemp("chain")
        home = os.getcwd()
        os.chdir(directory)
        try:
            for name, args in commands:
                assert main(args) == 0, f"iarx {name} failed"
        finally:
            os.chdir(home)
        return directory

    return run


@pytest.fixture(scope="session")
def seed3_dir(bench_layers, run_in_process):
    """The directory of the session's one run of the script's chain: synth, fit, eval, sweep 16..36, robust at seed 3.

    Tests read it and write nothing there; at the end of the session a file whose bytes changed fails the run.
    """
    directory = run_in_process(bench_layers.CHAIN)
    before = bench_layers.fingerprints(directory)
    yield directory
    after = bench_layers.fingerprints(directory)
    changed = [path for path in sorted(before.keys() | after.keys()) if before.get(path) != after.get(path)]
    if changed:
        pytest.fail(f"a test changed files of the shared seed-3 chain: {', '.join(changed)}")


@pytest.fixture(scope="session")
def seed3_chain(bench_layers, seed3_dir):
    """The SHA-256 of each file of the seed-3 chain."""
    return bench_layers.fingerprints(seed3_dir)
