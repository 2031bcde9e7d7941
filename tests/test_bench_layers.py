"""The per-layer benchmark script: its quick mode writes every key and the chain's true fingerprints,
and those fingerprints are the ones recorded in ``fingerprints.json``."""

import hashlib
import json
import platform
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from iarx.cli import main
from iarx.data_io import default_synthetic_spec

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "bench_layers.py"
# The SHA-256 of each file of the seed-3 and 17 280-sample chains, and the Python and numpy versions they were taken on.
# A change that moves an output on purpose updates this file and names each moved file in CHANGES.md.
FINGERPRINTS = Path(__file__).with_name("fingerprints.json")
LAYERS = {
    "synthesize", "fcm_cluster", "pipeline._encode", "model._ols_center", "model._nnls_radius", "forecast_series",
    "rmse_from_records", "write_rmse_csv", "write_trace_csv", "write_sweep_csv", "write_robust_csv",
}
# about 2 s on a 2-core VM; a gate, not a tolerance to loosen
QUICK_WALL_S = 60.0


def _run_chain(chain: Path, synth_args: list[str], sweep: bool) -> dict[str, str]:
    """Run synth, fit, eval, sweep 16..36 if asked, and robust in-process; returns the SHA-256 of each file written."""
    common = ["--data", str(chain / "data" / "synthetic.csv"), "--input-col", "u"]
    model = ["--model-dir", str(chain / "model")]
    commands = [("data", ["synth", *synth_args]), ("model", ["fit", *common]), ("eval", ["eval", *common, *model])]
    if sweep:
        commands.append(("sweep", ["sweep", *common, "--cpms-range", "16..36"]))
    commands.append(("robust", ["robust", *common, *model]))
    for out_dir, args in commands:
        assert main([*args, "--out", str(chain / out_dir)]) == 0
    return {
        path.relative_to(chain).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(chain.rglob("*"))
        if path.is_file()
    }


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """The SHA-256 of each file of the seed-3 chain synth, fit, eval, sweep 16..36, robust, run in-process."""
    return _run_chain(tmp_path_factory.mktemp("chain"), [], sweep=True)


@pytest.fixture(scope="module")
def long_chain(tmp_path_factory):
    """The same for the chain synth, fit, eval, robust on the default spec lengthened to 17 280 samples.

    Unlike the seed-3 chain, its z-scored series sends intervals to ``PatternSpace._scan`` in eval and robust.
    """
    spec = tmp_path_factory.mktemp("spec") / "long.json"
    spec.write_text(json.dumps(replace(default_synthetic_spec(), length=17_280).to_json()), encoding="utf-8")
    return _run_chain(tmp_path_factory.mktemp("long-chain"), ["--config", str(spec)], sweep=False)


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


def _assert_recorded(name: str, prints: dict[str, str]):
    recorded = json.loads(FINGERPRINTS.read_text(encoding="utf-8"))
    versions = {"python": platform.python_version(), "numpy": np.__version__}
    if versions != recorded["versions"]:
        # another numpy or BLAS may round a float differently; the bytes are compared exactly or not at all
        pytest.skip(f"fingerprints were taken on {recorded['versions']}, this run is on {versions}")
    expected = recorded[name]
    moved = [path for path in sorted(expected.keys() | prints.keys()) if expected.get(path) != prints.get(path)]
    assert moved == [], f"{name} files whose bytes moved: {', '.join(moved)}"


def test_the_chain_writes_the_recorded_bytes(chain):
    _assert_recorded("seed-3 chain", chain)


def test_the_long_chain_writes_the_recorded_bytes(long_chain):
    _assert_recorded("17280-sample chain", long_chain)
