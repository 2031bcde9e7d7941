"""The series ``synth`` writes and the pattern space ``fit`` writes do not depend on the CPU's kernels.

OpenBLAS, when built with DYNAMIC_ARCH, picks its kernels for the running CPU,
and numpy picks a SIMD level for its loops. Both can change the rounding of a
sum. ``synthesize`` sums each step over Python floats, so ``synthetic.csv``
must not move; FCM's centers differ between CPUs, but the class bounds,
which are the space, must not. ``model.json`` and the files after it still
move, because the least-squares fits sum through BLAS. Each case runs
``iarx synth`` and then ``iarx fit`` on that series in child processes with
one variable set on the children alone, and compares their ``synthetic.csv``
and ``space.json`` with children that run with neither.
"""

import json
import os
import platform
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import iarx

try:  # numpy >= 2
    from numpy._core import _multiarray_umath as _umath
except ImportError:
    from numpy.core import _multiarray_umath as _umath

_VARIABLES = ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")
# the /proc/cpuinfo flags of the instructions each OpenBLAS core type uses
_CORETYPE_FLAGS = {
    "Haswell": {"avx2", "fma"},
    "Zen": {"avx2", "fma"},
    "Sandybridge": {"avx"},
    "Nehalem": {"ssse3", "sse4_1", "sse4_2", "popcnt"},
}

pytestmark = pytest.mark.skipif(
    platform.system() != "Linux" or platform.machine() != "x86_64", reason="the kernel settings are x86-64 Linux ones"
)


def _cpu_flags() -> set[str]:
    for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
        if line.startswith("flags"):
            return set(line.partition(":")[2].split())
    return set()


def _openblas_configuration() -> str:
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.25 reports no build configuration
        return ""
    return config.get("Build Dependencies", {}).get("blas", {}).get("openblas configuration", "")


def _avx512_targets() -> list[str]:
    """The AVX-512 dispatch targets of the running numpy that this CPU has, by numpy's names."""
    return [
        name for name in _umath.__cpu_dispatch__
        if (name.startswith("AVX512") or name == "X86_V4") and _umath.__cpu_features__.get(name)
    ]


def _chain(out: Path, **variables) -> tuple[bytes, bytes]:
    """The ``synthetic.csv`` that ``iarx synth`` writes and the ``space.json`` that ``iarx fit`` writes on it,
    each in a child process with ``variables`` set on it alone."""
    src = Path(iarx.__file__).resolve().parents[1]
    env = {key: value for key, value in os.environ.items() if key not in _VARIABLES}
    env.update(variables, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    data = out / "data" / "synthetic.csv"
    for command in (
        ["synth", "--out", str(data.parent)],
        ["fit", "--data", str(data), "--input-col", "u", "--out", str(out / "model")],
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "iarx.cli", *command], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
    return data.read_bytes(), (out / "model" / "space.json").read_bytes()


def _assert_same_chain(default_chain, out: Path, variable: str, value: str):
    """Fail, naming how many rows of ``synthetic.csv`` moved, or each class field of ``space.json`` that moved
    and in how many classes, unless the children under ``variable=value`` write the default's bytes."""
    expected_data, expected_space = default_chain
    data, space = _chain(out, **{variable: value})
    if data != expected_data:
        old, new = (text.splitlines() for text in (expected_data, data))
        moved = sum(a != b for a, b in zip(old, new))
        pytest.fail(f"synthetic.csv moved under {variable}={value}: {moved} of {len(old) - 1} rows")
    if space == expected_space:
        return
    old, new = (json.loads(text)["classes"] for text in (expected_space, space))
    moved = Counter(key for a, b in zip(old, new) for key in a if a[key] != b.get(key))
    fields = ", ".join(f"{key!r} in {count} of {len(old)} classes" for key, count in moved.items())
    pytest.fail(f"space.json moved under {variable}={value}: {fields or 'its layout'}")


@pytest.fixture(scope="module")
def default_chain(tmp_path_factory):
    """The seed-3 ``synthetic.csv`` and the space fitted on it, written by children under the default kernels."""
    return _chain(tmp_path_factory.mktemp("kernels"))


@pytest.mark.parametrize("coretype", list(_CORETYPE_FLAGS))
def test_the_space_does_not_depend_on_the_openblas_kernel(default_chain, tmp_path, coretype):
    if "DYNAMIC_ARCH" not in _openblas_configuration():
        pytest.skip("numpy's OpenBLAS is not a DYNAMIC_ARCH build, so it ignores OPENBLAS_CORETYPE")
    missing = _CORETYPE_FLAGS[coretype] - _cpu_flags()
    if missing:
        pytest.skip(f"this CPU lacks {', '.join(sorted(missing))}, which the {coretype} kernels use")
    _assert_same_chain(default_chain, tmp_path, "OPENBLAS_CORETYPE", coretype)


def test_the_space_does_not_depend_on_numpys_simd_level(default_chain, tmp_path):
    targets = _avx512_targets()
    if not targets:
        pytest.skip("numpy dispatches no AVX-512 loop on this CPU, so there is nothing to disable")
    _assert_same_chain(default_chain, tmp_path, "NPY_DISABLE_CPU_FEATURES", ",".join(targets))
