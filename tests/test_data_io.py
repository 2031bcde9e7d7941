import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from iarx.data_io import (
    RawDataset,
    StepScheduleInput,
    SyntheticSpec,
    WhiteNoiseInput,
    default_synthetic_spec,
    load_csv,
    pca_project,
    synthesize,
    zero_mean_normalize,
)
from iarx.errors import DataError, SimulationError
from iarx.model import IarxParams, lag_columns, predict_bounds


def test_load_csv_round_trip(tmp_path):
    path = tmp_path / "d.csv"
    for bom in ("", "\ufeff"):  # a byte-order mark is not part of the first name
        path.write_text(bom + "x,u\n1.5,0.25\n-2.0,0.5\n", encoding="utf-8")
        ds = load_csv(path)
        assert list(ds.columns) == ["x", "u"]
        np.testing.assert_array_equal(ds.columns["x"], [1.5, -2.0])
        np.testing.assert_array_equal(ds.columns["u"], [0.25, 0.5])


def test_load_csv_diagnostics(tmp_path):
    with pytest.raises((DataError, OSError)):
        load_csv(tmp_path / "missing.csv")

    bad_cell = tmp_path / "bad.csv"
    bad_cell.write_text("x,u\n1.0,0.1\noops,0.2\n")
    with pytest.raises(DataError) as err:
        load_csv(bad_cell)
    assert "row 3" in str(err.value) and "'x'" in str(err.value)

    for cell in ("nan", "-inf", " Infinity"):
        non_finite = tmp_path / "non-finite.csv"
        non_finite.write_text(f"x,u\n1.0,0.1\n2.0,0.2\n3.0,{cell}\n4.0,0.3\n")
        with pytest.raises(DataError) as err:
            load_csv(non_finite)
        value = float(cell)
        assert str(err.value) == f"{non_finite}: row 4, column 'u': {value!r} is not a finite number"

    # the first non-finite cell in file order is named, not the first in column order
    both = tmp_path / "both.csv"
    both.write_text("x,u\n1.0,0.1\n2.0,nan\ninf,0.3\n")
    with pytest.raises(DataError, match="row 3, column 'u'"):
        load_csv(both)

    for text in ("x,u\n", "x,u\n1.0,0.1\n"):
        short = tmp_path / "short.csv"
        short.write_text(text)
        with pytest.raises(DataError) as err:
            load_csv(short)
        assert str(err.value).startswith(f"{short}: dataset needs at least 2 rows")

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("x,u\n1.0,0.1\n2.0\n")
    with pytest.raises(DataError):
        load_csv(ragged)

    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(DataError):
        load_csv(empty)


def test_raw_dataset_rejects_unequal_columns():
    with pytest.raises(DataError):
        RawDataset(columns={"a": np.zeros(3), "b": np.zeros(4)})


def test_raw_dataset_needs_a_column():
    # load_csv rejects a file without one first; a direct construction reaches this check
    with pytest.raises(DataError, match="^dataset has no columns$"):
        RawDataset(columns={})


def test_normalize_known_values():
    z, mean, std = zero_mean_normalize([1.0, 2.0, 3.0])
    assert mean == 2.0
    assert std == 0.816496580927726
    np.testing.assert_array_equal(z, [-1.224744871391589, 0.0, 1.224744871391589])


def test_normalize_rejects_constant_and_tiny_columns():
    with pytest.raises(DataError):
        zero_mean_normalize([4.0, 4.0, 4.0])
    with pytest.raises(DataError):
        zero_mean_normalize([4.0])
    with pytest.raises(DataError):
        zero_mean_normalize([1.0, float("nan"), 2.0])
    # finite values whose squares, or whose sum, overflow: no RuntimeWarning, a DataError
    for huge in ([1.0, 1e300, 4.0], [1.7e308, 1.7e308, -1.0]):
        with pytest.raises(DataError, match="^values are too large to normalize"):
            zero_mean_normalize(huge)


def test_pca_recovers_a_planted_direction():
    rng = np.random.default_rng(4)
    v = np.array([0.6, -0.64, 0.48])
    v /= np.linalg.norm(v)
    s = rng.normal(0.0, 3.0, size=500)
    data = s[:, None] * v[None, :] + rng.normal(0.0, 1e-9, size=(500, 3))
    proj = pca_project(data)
    err = min(np.max(np.abs(proj - s)), np.max(np.abs(proj + s)))
    assert err < 1e-6


def test_pca_sign_convention_is_deterministic():
    rng = np.random.default_rng(5)
    data = rng.normal(size=(200, 2)) @ np.array([[2.0, 0.3], [0.3, 0.5]])
    a = pca_project(data)
    b = pca_project(data.copy())
    np.testing.assert_array_equal(a, b)


def test_pca_rejects_tied_leading_eigenvalues():
    # exactly isotropic 2-D cloud: the leading direction is undefined
    tie = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    with pytest.raises(DataError):
        pca_project(tie)


def test_pca_rejects_malformed_stacks():
    rng = np.random.default_rng(6)
    cases = [
        (rng.normal(size=5), "expected a 2-D column stack, got ndim=1"),
        (rng.normal(size=(5, 1)), "need at least 2 columns for a projection, got 1"),
        (rng.normal(size=(2, 2)), "need more rows than columns, got 2 rows x 2 columns"),
        ([[1.0, 2.0], [3.0, np.inf], [5.0, 6.0]], "data contains non-finite values"),
    ]
    for columns, message in cases:
        with pytest.raises(DataError, match=f"^{message}$"):
            pca_project(columns)


def test_input_process_validation():
    for amplitude in (-0.5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="amplitude must be finite and >= 0"):
            WhiteNoiseInput(amplitude=amplitude)
    # the draws span 2 * amplitude, which must not overflow a float
    half = float(np.finfo(float).max) / 2.0
    assert np.abs(WhiteNoiseInput(half).generate(100, np.random.default_rng(0))).max() <= half
    for amplitude in (np.nextafter(half, np.inf), 9e307, float(np.finfo(float).max)):
        with pytest.raises(ValueError, match=r"^amplitude must be at most half the largest float, got "):
            WhiteNoiseInput(amplitude=amplitude)
    for level in (float("nan"), float("-inf")):
        with pytest.raises(ValueError, match="step levels must be finite"):
            StepScheduleInput(levels=(1.0, level), period=10)
    with pytest.raises(ValueError):
        StepScheduleInput(levels=(), period=10)
    with pytest.raises(ValueError):
        StepScheduleInput(levels=(1.0,), period=0)
    with pytest.raises(ValueError, match=r"^step period must be an integer, got 2\.5$"):
        StepScheduleInput(levels=(1.0,), period=2.5)
    assert type(StepScheduleInput(levels=(1.0,), period=np.int64(2)).period) is int


def test_step_schedule_tiles_levels():
    sched = StepScheduleInput(levels=(1.0, -1.0), period=3)
    out = sched.generate(8, np.random.default_rng(0))
    np.testing.assert_array_equal(out, [1, 1, 1, -1, -1, -1, 1, 1])
    # a period past the length holds the first level: 864 samples allocated, not
    # 3 * 10**12, and a period past int64 still divides
    levels = (0.5, -1.0, 2.0)
    rng = np.random.default_rng(0)
    for period in (10**12, 10**30):
        out = StepScheduleInput(levels=levels, period=period).generate(864, rng)
        np.testing.assert_array_equal(out, np.full(864, levels[0]))
    # bit for bit the repeat-and-cut tiling, the reference wherever it fits in memory
    for period in range(1, 31):
        for length in (1, 7, 100, 864):
            out = StepScheduleInput(levels=levels, period=period).generate(length, rng)
            tiled = np.resize(np.repeat(levels, period), length)
            assert out.dtype == tiled.dtype and out.tobytes() == tiled.tobytes(), (period, length)


def test_spec_validation_and_round_trip():
    spec = default_synthetic_spec()
    assert spec.length == 864
    assert (spec.true_params.n, spec.true_params.m) == (3, 1)

    again = SyntheticSpec.from_json(spec.to_json())
    assert again == spec
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        replace(spec, seed=-1)
    with pytest.raises(ValueError, match=r"^seed must be an integer, got 1\.5$"):
        replace(spec, seed=1.5)
    with pytest.raises(ValueError, match=r"^length must be an integer, got 900\.0$"):
        replace(spec, length=900.0)
    numpy_sized = replace(spec, length=np.int64(900), seed=np.int64(4))
    assert json.loads(json.dumps(numpy_sized.to_json())) == replace(spec, length=900, seed=4).to_json()

    with pytest.raises(ValueError):
        SyntheticSpec(
            length=20,  # too short for the lag structure
            true_params=spec.true_params,
            noise_center=0.0,
            noise_radius=0.0,
            input_process=WhiteNoiseInput(),
            seed=0,
        )
    for noise in ({"noise_center": float("nan")}, {"noise_radius": float("inf")}, {"noise_center": -0.1}):
        with pytest.raises(ValueError, match="noise levels must be finite and >= 0"):
            replace(spec, **noise)


def test_synthesize_is_deterministic():
    a = synthesize(default_synthetic_spec())
    b = synthesize(default_synthetic_spec())
    np.testing.assert_array_equal(a.data, b.data)
    np.testing.assert_array_equal(a.u, b.u)
    np.testing.assert_array_equal(a.radii, b.radii)

    c = synthesize(default_synthetic_spec(seed=99))
    assert not np.array_equal(a.data, c.data)


def test_synthesized_stream_is_the_center_series():
    res = synthesize(default_synthetic_spec())
    assert res.radii.shape == res.data.shape
    assert np.all(res.radii >= 0.0)
    # without noise, each step is the one-step prediction from its own history, bit for bit:
    # with C = 0 the lower bounds are the centers, with A = 0 the upper bounds are the radii
    spec = replace(default_synthetic_spec(), noise_center=0.0, noise_radius=0.0)
    res = synthesize(spec)
    params = spec.true_params
    kmin = max(params.n, params.m)
    x, x_abs = lag_columns(res.data, res.radii, res.u, params.n, params.m, kmin, spec.length)
    zeros = np.zeros_like(params.A)
    centers, _ = predict_bounds(replace(params, C=zeros), x, x_abs)
    _, radii = predict_bounds(replace(params, A=zeros), x, x_abs)
    np.testing.assert_array_equal(res.data[kmin:], centers)
    np.testing.assert_array_equal(res.radii[kmin:], radii)


def test_synthesize_peak_memory_holds_no_list_of_floats():
    # synthesize holds five float64 series of the spec's length (the inputs, the two noise
    # draws, the centers and the radii) and, while a draw goes into its buffer, the numpy
    # draw, its absolute value and its bytes; ten vectors leave room for the buffers' growth.
    # A Python list of floats costs four on its own (a pointer and a 24-byte object each)
    spec = replace(default_synthetic_spec(), length=17_280)
    tracemalloc.start()
    try:
        synthesize(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * spec.length * np.dtype(float).itemsize


def test_unstable_parameters_surface_as_simulation_error():
    spec = SyntheticSpec(
        length=100,
        true_params=IarxParams(n=3, m=1, A=[0, 1.6, 0, 0, 1.0], C=[0.1] * 5),
        noise_center=0.0,
        noise_radius=0.0,
        input_process=WhiteNoiseInput(1.0),
        seed=0,
    )
    with pytest.raises(SimulationError):
        synthesize(spec)


def test_overflowing_center_surfaces_as_simulation_error():
    # 5.0 * 1e308 overflows: one SimulationError naming the value, no numpy warning
    spec = SyntheticSpec(
        length=30,
        true_params=IarxParams(n=1, m=1, A=[0, 0, 1e308], C=[0.1] * 3),
        noise_center=0.0,
        noise_radius=0.0,
        input_process=StepScheduleInput(levels=(5.0,), period=1),
        seed=0,
    )
    with pytest.raises(SimulationError, match=r"^simulated center diverged to inf at step 1;"):
        synthesize(spec)


@pytest.mark.parametrize("field, message", [
    ("noise_center", r"^simulated center diverged to inf at step 3;"),
    ("noise_radius", r"^simulated radius overflowed to inf at step 19;"),
], ids=["noise_center", "noise_radius"])
def test_overflowing_noise_draws_surface_as_simulation_error(field, message):
    # |N(0, 1)| * 1e308 overflows for draws beyond 1.8: one SimulationError
    # naming the step, no numpy warning, and no radius left at inf
    with pytest.raises(SimulationError, match=message):
        synthesize(replace(default_synthetic_spec(), **{field: 1e308}))
