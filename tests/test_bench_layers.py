"""The per-layer benchmark script: its quick mode writes every key and the chain's true fingerprints,
and those fingerprints are the ones recorded in ``fingerprints.json``."""

import hashlib
import json
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from iarx.cli import main

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "bench_layers.py"
# The SHA-256 of each seed-3 chain file, and the Python and numpy versions they were taken on.
# A change that moves an output on purpose updates this file and names each moved file in CHANGES.md.
FINGERPRINTS = Path(__file__).with_name("fingerprints.json")
LAYERS = {
    "synthesize", "fcm_cluster", "pipeline._encode", "model._ols_center", "model._nnls_radius", "forecast_series",
    "rmse_from_records", "write_rmse_csv", "write_trace_csv", "write_sweep_csv", "write_robust_csv",
}
# about 2 s on a 2-core VM; a gate, not a tolerance to loosen
QUICK_WALL_S = 60.0


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """The SHA-256 of each file of the seed-3 chain synth, fit, eval, sweep 16..36, robust, run in-process."""
    chain = tmp_path_factory.mktemp("chain")
    common = ["--data", str(chain / "data" / "synthetic.csv"), "--input-col", "u"]
    model = ["--model-dir", str(chain / "model")]
    for out_dir, args in (
        ("data", ["synth"]),
        ("model", ["fit", *common]),
        ("eval", ["eval", *common, *model]),
        ("sweep", ["sweep", *common, "--cpms-range", "16..36"]),
        ("robust", ["robust", *common, *model]),
    ):
        assert main([*args, "--out", str(chain / out_dir)]) == 0
    return {
        path.relative_to(chain).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(chain.rglob("*"))
        if path.is_file()
    }


def test_quick_run_writes_every_key_and_the_fingerprints_of_the_chain(tmp_path, chain):
    out = tmp_path / "bench.json"
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--quick", str(out)], capture_output=True, text=True, timeout=300
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    assert elapsed < QUICK_WALL_S
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert set(doc) == {"environment", "settings", "layers_s", "cli_chain_s", "fingerprints"}
    assert set(doc["environment"]) == {"python", "numpy", "cpu_count", "PYTHONDONTWRITEBYTECODE"}
    assert doc["settings"] == {
        "seed": 3, "cpms": 26, "n": 3, "m": 1, "repeats": 1, "lengths": [864], "sweep_range": [16, 36]
    }
    assert list(doc["layers_s"]) == ["864"] and set(doc["layers_s"]["864"]) == LAYERS
    assert list(doc["cli_chain_s"]) == ["synth", "fit", "eval", "sweep", "robust", "total"]
    assert all(t > 0.0 for t in [*doc["layers_s"]["864"].values(), *doc["cli_chain_s"].values()])

    # the same chain, run here in-process, writes the same bytes
    assert len(chain) == 9
    assert doc["fingerprints"] == {"seed-3 chain": chain}


def test_the_chain_writes_the_recorded_bytes(chain):
    recorded = json.loads(FINGERPRINTS.read_text(encoding="utf-8"))
    versions = {"python": platform.python_version(), "numpy": np.__version__}
    if versions != recorded["versions"]:
        # another numpy or BLAS may round a float differently; the bytes are compared exactly or not at all
        pytest.skip(f"fingerprints were taken on {recorded['versions']}, this run is on {versions}")
    expected = recorded["seed-3 chain"]
    moved = [name for name in sorted(expected.keys() | chain.keys()) if expected.get(name) != chain.get(name)]
    assert moved == [], f"chain files whose bytes moved: {', '.join(moved)}"
