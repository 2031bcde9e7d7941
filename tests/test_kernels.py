"""The series ``synth`` writes and the pattern space ``fit`` writes do not depend on the CPU's kernels.

OpenBLAS, when built with DYNAMIC_ARCH, picks its kernels for the running CPU,
and numpy picks a SIMD level for its loops. Both can change the rounding of a
sum. ``synthesize`` sums each step over Python floats, so ``synthetic.csv``
must not move; FCM's centers differ between CPUs, but the class bounds,
which are the space, must not. ``model.json`` and the files after it still
move, because the least-squares fits sum through BLAS. Each case runs the
first two commands of the script's chain, ``iarx synth`` and ``iarx fit``, as
child processes with one variable set and the other unset, and compares their
``synthetic.csv`` and ``space.json`` with the session's in-process run of
that chain.
"""

import json
import platform
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

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


def _assert_same_chain(bench_layers, seed3_dir, out: Path, monkeypatch, variable: str, value: str):
    """Fail, naming how many rows of ``synthetic.csv`` moved, or each class field of ``space.json`` that moved
    and in how many classes, unless the script's ``synth`` and ``fit``, run as children with ``variable=value``,
    write the bytes of the session's in-process chain."""
    for name in _VARIABLES:
        monkeypatch.delenv(name, raising=False)
    # this process's numpy and OpenBLAS read the variable only when they load, so only the children see it
    monkeypatch.setenv(variable, value)
    bench_layers.run_chain(out, bench_layers.CHAIN[:2])
    expected_data, data = ((directory / "data" / "synthetic.csv").read_bytes() for directory in (seed3_dir, out))
    if data != expected_data:
        old, new = (text.splitlines() for text in (expected_data, data))
        moved = sum(a != b for a, b in zip(old, new))
        pytest.fail(f"synthetic.csv moved under {variable}={value}: {moved} of {len(old) - 1} rows")
    expected_space, space = ((directory / "model" / "space.json").read_bytes() for directory in (seed3_dir, out))
    if space == expected_space:
        return
    old, new = (json.loads(text)["classes"] for text in (expected_space, space))
    moved = Counter(key for a, b in zip(old, new) for key in a if a[key] != b.get(key))
    fields = ", ".join(f"{key!r} in {count} of {len(old)} classes" for key, count in moved.items())
    pytest.fail(f"space.json moved under {variable}={value}: {fields or 'its layout'}")


@pytest.mark.parametrize("coretype", list(_CORETYPE_FLAGS))
def test_the_space_does_not_depend_on_the_openblas_kernel(bench_layers, seed3_dir, tmp_path, monkeypatch, coretype):
    if "DYNAMIC_ARCH" not in _openblas_configuration():
        pytest.skip("numpy's OpenBLAS is not a DYNAMIC_ARCH build, so it ignores OPENBLAS_CORETYPE")
    missing = _CORETYPE_FLAGS[coretype] - _cpu_flags()
    if missing:
        pytest.skip(f"this CPU lacks {', '.join(sorted(missing))}, which the {coretype} kernels use")
    _assert_same_chain(bench_layers, seed3_dir, tmp_path, monkeypatch, "OPENBLAS_CORETYPE", coretype)


def test_the_space_does_not_depend_on_numpys_simd_level(bench_layers, seed3_dir, tmp_path, monkeypatch):
    targets = _avx512_targets()
    if not targets:
        pytest.skip("numpy dispatches no AVX-512 loop on this CPU, so there is nothing to disable")
    _assert_same_chain(bench_layers, seed3_dir, tmp_path, monkeypatch, "NPY_DISABLE_CPU_FEATURES", ",".join(targets))
