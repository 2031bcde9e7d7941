"""The per-layer benchmark script: its main writes every key and the true fingerprints of its chains,
and those fingerprints are the ones recorded in ``fingerprints.json``."""

import json
import platform
import time
from pathlib import Path

import numpy as np
import pytest

# The SHA-256 of each file of the seed-3 and 17 280-sample chains, and the Python and numpy versions they were taken on.
# A change that moves an output on purpose updates this file and names each moved file in CHANGES.md.
FINGERPRINTS = Path(__file__).with_name("fingerprints.json")
LAYERS = {
    "synthesize", "fcm_cluster", "pipeline._encode", "model._ols_center", "model._nnls_radius", "forecast_series",
    "rmse_from_records", "write_rmse_csv", "write_trace_csv", "write_sweep_csv", "write_robust_csv",
}
# about 3 s on a 2-core VM; a gate, not a tolerance to loosen
SCRIPT_WALL_S = 60.0


@pytest.fixture(scope="module")
def long_chain(bench_layers, run_in_process, tmp_path_factory):
    """The SHA-256 of each file of the script's long chain: synth, fit, eval, robust at 17 280 samples.

    Unlike the seed-3 chain, its z-scored series sends intervals to ``PatternSpace._scan`` in eval and robust.
    """
    commands = bench_layers.long_chain(tmp_path_factory.mktemp("spec") / "long.json")
    return bench_layers.fingerprints(run_in_process(commands))


def test_main_writes_every_key_and_the_fingerprints_of_its_chains(bench_layers, seed3_chain, monkeypatch, tmp_path):
    # the whole script at N = 864 with two repetitions: the layer timings, the repeat-byte check and the long chain,
    # which at that length is the seed-3 chain without its sweep
    monkeypatch.setattr(bench_layers, "LENGTHS", (864,))
    monkeypatch.setattr(bench_layers, "REPEATS", 2)
    out = tmp_path / "bench.json"
    start = time.perf_counter()
    assert bench_layers.main([str(out)]) == 0
    assert time.perf_counter() - start < SCRIPT_WALL_S
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert set(doc) == {"environment", "settings", "layers_s", "cli_chain_s", "fingerprints"}
    assert set(doc["environment"]) == {"python", "numpy", "cpu_count", "PYTHONDONTWRITEBYTECODE"}
    assert doc["settings"] == {
        "seed": 3, "cpms": 26, "n": 3, "m": 1, "repeats": 2, "lengths": [864], "sweep_range": [16, 36]
    }
    assert list(doc["layers_s"]) == ["864"] and set(doc["layers_s"]["864"]) == LAYERS
    assert list(doc["cli_chain_s"]) == ["synth", "fit", "eval", "sweep", "robust", "total"]
    assert all(t > 0.0 for t in [*doc["layers_s"]["864"].values(), *doc["cli_chain_s"].values()])

    # the same chains, run here in-process, write the same bytes
    assert len(seed3_chain) == 9
    no_sweep = {path: digest for path, digest in seed3_chain.items() if path != "sweep/sweep.csv"}
    assert doc["fingerprints"] == {"seed-3 chain": seed3_chain, "864-sample chain": no_sweep}


def _assert_recorded(name: str, prints: dict[str, str]):
    recorded = json.loads(FINGERPRINTS.read_text(encoding="utf-8"))
    versions = {"python": platform.python_version(), "numpy": np.__version__}
    if versions != recorded["versions"]:
        # another numpy or BLAS may round a float differently; the bytes are compared exactly or not at all
        pytest.skip(f"fingerprints were taken on {recorded['versions']}, this run is on {versions}")
    expected = recorded[name]
    moved = [path for path in sorted(expected.keys() | prints.keys()) if expected.get(path) != prints.get(path)]
    assert moved == [], f"{name} files whose bytes moved: {', '.join(moved)}"


def test_the_chain_writes_the_recorded_bytes(seed3_chain):
    _assert_recorded("seed-3 chain", seed3_chain)


def test_the_long_chain_writes_the_recorded_bytes(long_chain):
    _assert_recorded("17280-sample chain", long_chain)
