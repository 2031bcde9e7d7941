"""CLI tests: run ``main`` in-process and check files, exit codes, and output."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import iarx
from iarx import cli
from iarx.cli import build_parser, main
from iarx.data_io import default_synthetic_spec, load_csv, pca_project, zero_mean_normalize
from iarx.errors import ConvergenceWarning
from iarx.model import IarxParams
from iarx.pattern_space import PatternSpace


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A synth run plus a fit on its output, shared by the read-only tests."""
    base = tmp_path_factory.mktemp("cli")
    data_dir = base / "data"
    fit_dir = base / "fit"
    assert main(["synth", "--out", str(data_dir)]) == 0
    assert (
        main(
            [
                "fit",
                "--data",
                str(data_dir / "synthetic.csv"),
                "--input-col",
                "u",
                "--out",
                str(fit_dir),
            ]
        )
        == 0
    )
    return data_dir, fit_dir


def _run_cli(args):
    """Run ``python -m iarx.cli`` as its own process; returns the completed process."""
    src = Path(iarx.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-m", "iarx.cli", *args], env=env, capture_output=True, text=True, timeout=120
    )


def test_synth_files_and_determinism(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    out_c = tmp_path / "c"
    assert main(["synth", "--out", str(out_a)]) == 0
    assert main(["synth", "--out", str(out_b)]) == 0
    assert main(["synth", "--out", str(out_c), "--seed", "9"]) == 0

    lines = (out_a / "synthetic.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "x,u"
    assert len(lines) == 865
    assert (out_a / "synthetic.csv").read_bytes() == (out_b / "synthetic.csv").read_bytes()
    assert (out_a / "truth.json").read_bytes() == (out_b / "truth.json").read_bytes()
    assert (out_a / "synthetic.csv").read_bytes() != (out_c / "synthetic.csv").read_bytes()

    truth = json.loads((out_a / "truth.json").read_text(encoding="utf-8"))
    assert truth["length"] == 864
    assert truth["seed"] == 3


def test_fit_output_files(workspace):
    _, fit_dir = workspace
    params = IarxParams.from_json(json.loads((fit_dir / "model.json").read_text(encoding="utf-8")))
    assert params.n == 3 and params.m == 1
    space = PatternSpace.load(fit_dir / "space.json")
    assert space.cpms == 26
    report = json.loads((fit_dir / "report.json").read_text(encoding="utf-8"))
    assert report["cpms"] == 26
    assert report["samples"] == 864
    assert set(report["rmse"]) == {"prelim_upper", "prelim_lower", "final_upper", "final_lower"}
    assert all(v > 0.0 for v in report["rmse"].values())


def test_eval_outputs(workspace, tmp_path):
    data_dir, fit_dir = workspace
    out = tmp_path / "eval"
    rc = main(
        [
            "eval",
            "--data",
            str(data_dir / "synthetic.csv"),
            "--input-col",
            "u",
            "--model-dir",
            str(fit_dir),
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    rmse_lines = (out / "rmse.csv").read_text(encoding="utf-8").splitlines()
    assert len(rmse_lines) == 2
    assert rmse_lines[1].startswith("26,")
    trace_lines = (out / "trace.csv").read_text(encoding="utf-8").splitlines()
    # one-step forecasts start after the lag window: 864 - max(n, m) rows
    assert len(trace_lines) == 1 + 864 - 3


def test_missing_required_flags(tmp_path):
    assert main(["fit", "--input-col", "u", "--out", str(tmp_path)]) == 2
    assert main(["fit", "--data", str(tmp_path / "none.csv"), "--out", str(tmp_path)]) == 2


def test_nonexistent_data_file(tmp_path):
    rc = main(
        ["fit", "--data", str(tmp_path / "missing.csv"), "--input-col", "u", "--out", str(tmp_path)]
    )
    assert rc == 2


def test_unparseable_cell_is_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("x,u\n1.0,2.0\noops,3.0\n", encoding="utf-8")
    rc = main(["fit", "--data", str(bad), "--input-col", "u", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "row 3" in err and "'x'" in err


def test_too_few_distinct_values_is_numerical_error(workspace, tmp_path, capsys):
    # Swapping the roles of the columns makes the staircase input the data
    # series; its handful of distinct levels cannot seed 26 clusters.
    data_dir, _ = workspace
    rc = main(
        [
            "fit",
            "--data",
            str(data_dir / "synthetic.csv"),
            "--input-col",
            "x",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 1
    assert "distinct" in capsys.readouterr().err


def test_sweep_deterministic(workspace, tmp_path):
    data_dir, _ = workspace
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        rc = main(
            [
                "sweep",
                "--data",
                str(data_dir / "synthetic.csv"),
                "--input-col",
                "u",
                "--cpms-range",
                "16..18",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
    lines = (out_a / "sweep.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 4
    assert [row.split(",")[0] for row in lines[1:]] == ["16", "17", "18"]
    assert (out_a / "sweep.csv").read_bytes() == (out_b / "sweep.csv").read_bytes()



def test_fit_eval_robust_reruns_write_identical_files(workspace, tmp_path):
    data_dir, _ = workspace
    data = ["--data", str(data_dir / "synthetic.csv"), "--input-col", "u"]
    written = {
        "fit": ("model.json", "space.json", "report.json"),
        "eval": ("rmse.csv", "trace.csv"),
        "robust": ("robust.csv",),
    }
    for run in ("a", "b"):
        model_dir = tmp_path / run / "fit"
        for command in written:
            model = [] if command == "fit" else ["--model-dir", str(model_dir)]
            assert main([command, *data, *model, "--out", str(tmp_path / run / command)]) == 0
    for command, names in written.items():
        for name in names:
            first = (tmp_path / "a" / command / name).read_bytes()
            assert first and first == (tmp_path / "b" / command / name).read_bytes(), f"{command}/{name}"


def test_sweep_reports_non_convergence_on_stderr(workspace, tmp_path):
    # with a cap of 5 passes fuzzy c-means at 22 classes stops before it
    # converges; the cell is still scored and the files are unchanged
    data_dir, _ = workspace
    args = [
        "sweep", "--data", str(data_dir / "synthetic.csv"), "--input-col", "u", "--cpms-range", "22..22",
        "--fcm-iterations", "5",
    ]
    with pytest.warns(ConvergenceWarning, match="k=22"):
        assert main([*args, "--out", str(tmp_path / "in-process")]) == 0

    proc = _run_cli([*args, "--out", str(tmp_path / "process")])
    assert proc.returncode == 0, proc.stderr
    assert "ConvergenceWarning" in proc.stderr and "k=22" in proc.stderr
    written = (tmp_path / "process" / "sweep.csv").read_bytes()
    assert written == (tmp_path / "in-process" / "sweep.csv").read_bytes()
    (row,) = written.decode("utf-8").splitlines()[1:]
    assert row.startswith("22,") and "" not in row.split(",")


def test_sweep_keeps_the_row_of_a_failed_cell(workspace, tmp_path, capsys):
    # the staircase input as the data series has 19 distinct levels, so the
    # 20-class cell fails: its error goes to stderr and its row stays, empty
    data_dir, _ = workspace
    args = ["sweep", "--data", str(data_dir / "synthetic.csv"), "--input-col", "x", "--cpms-range", "19..20"]
    assert main([*args, "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == "cpms=20 failed: cannot seed 20 clusters from 19 distinct value(s)\n"
    rows = (tmp_path / "sweep.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["19", "20"]
    assert "" not in rows[0].split(",") and rows[1] == "20,,,,"


def test_non_finite_forecast_exits_1(workspace, tmp_path):
    # a loaded model whose forecasts overflow is a numerical failure: exit 1
    # with one error line, no numpy warning and no traceback; so is one whose
    # forecasts stay finite while their squared errors overflow
    data_dir, fit_dir = workspace
    fitted = json.loads((fit_dir / "model.json").read_text(encoding="utf-8"))
    overflowing = {key: [1e308] + [0.0] * (len(fitted[key]) - 1) for key in ("A", "C")}
    overflowing = {**fitted, **overflowing}
    huge = {**fitted, "A": [fitted["A"][0], 4.8e299, *fitted["A"][2:]]}
    cases = [
        ("overflow", overflowing, "error: forecast at step 3 is not finite: [0.0, inf]\n"),
        ("huge", huge, "error: prelim_upper RMSE is not finite, from the squared error at step 3\n"),
    ]
    for name, doc, message in cases:
        model_dir = tmp_path / name
        model_dir.mkdir()
        (model_dir / "space.json").write_bytes((fit_dir / "space.json").read_bytes())
        (model_dir / "model.json").write_text(json.dumps(doc), encoding="utf-8")
        common = ["--data", str(data_dir / "synthetic.csv"), "--input-col", "u", "--model-dir", str(model_dir)]
        for command in ("eval", "robust"):
            out = tmp_path / f"{name}-{command}"
            proc = _run_cli([command, *common, "--out", str(out)])
            assert proc.returncode == 1, proc.stderr
            assert proc.stderr == message
            assert not out.exists()


@pytest.mark.parametrize(
    "field, message",
    [
        ("noise_center", "error: simulated center diverged to inf at step 3; the generating parameters are unstable\n"),
        ("noise_radius", "error: simulated radius overflowed to inf at step 19; "
                         "the radius noise or the generating parameters are too large\n"),
    ],
    ids=["noise_center", "noise_radius"],
)
def test_overflowing_noise_exits_1(tmp_path, field, message):
    # noise draws that overflow a float are a numerical failure of the run:
    # exit 1 with one error line, no numpy warning and no traceback
    spec = tmp_path / "spec.json"
    spec.write_text(_spec(**{field: 1e308}), encoding="utf-8")
    proc = _run_cli(["synth", "--config", str(spec), "--out", str(tmp_path / "out")])
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == message
    assert not (tmp_path / "out").exists()


_MODEL = {"n": 1, "m": 0, "A": [0.5, 0.5], "C": [0, 1]}
_CLASS = {"id": 1, "lower": 0, "upper": 1, "center": 0.5}
_SPEC = default_synthetic_spec().to_json()
# a value of the wrong JSON type for each field of the three files, and the error's account of it
_MISTYPED = {
    **{key: ("1", "expected an integer, got '1'") for key in ("n", "m", "cpms", "id", "length", "seed")},
    **{key: ("0.5", "expected a number, got '0.5'") for key in ("lower", "upper", "center", "noise_center", "noise_radius")},
    **{key: ("x", "expected an array, got 'x'") for key in ("A", "C", "classes")},
}


def _without(doc: dict, key: str) -> dict:
    return {k: v for k, v in doc.items() if k != key}


def _space(**cls) -> str:
    return json.dumps({"cpms": 1, "classes": [{**_CLASS, **cls}]})


def _spec(**fields) -> str:
    return json.dumps({**_SPEC, **fields})


# every field of model.json, space.json and a spec (truth.json) missing, then of the wrong JSON type
_MISSING_AND_MISTYPED_FIELDS = [
    *[pytest.param("model.json", json.dumps(_without(_MODEL, key)), f"error: model parameters: missing field {key!r}",
                   id=f"model.json-missing-{key}") for key in _MODEL],
    *[pytest.param("space.json", json.dumps(_without({"cpms": 1, "classes": [_CLASS]}, key)),
                   f"error: pattern space: missing field {key!r}", id=f"space.json-missing-{key}")
      for key in ("cpms", "classes")],
    *[pytest.param("space.json", json.dumps({"cpms": 1, "classes": [_without(_CLASS, key)]}),
                   f"error: pattern space class 1: missing field {key!r}", id=f"space.json-class-missing-{key}")
      for key in _CLASS],
    *[pytest.param("spec.json", json.dumps(_without(_SPEC, key)), f"error: synthetic spec: missing field {key!r}",
                   id=f"spec.json-missing-{key}") for key in _SPEC],
    *[pytest.param("model.json", json.dumps({**_MODEL, key: _MISTYPED[key][0]}),
                   f"error: model parameters: field {key!r} is invalid: {_MISTYPED[key][1]}",
                   id=f"model.json-mistyped-{key}") for key in _MODEL],
    *[pytest.param("space.json", json.dumps({"cpms": 1, "classes": [_CLASS], key: _MISTYPED[key][0]}),
                   f"error: pattern space: field {key!r} is invalid: {_MISTYPED[key][1]}",
                   id=f"space.json-mistyped-{key}") for key in ("cpms", "classes")],
    *[pytest.param("space.json", _space(**{key: _MISTYPED[key][0]}),
                   f"error: pattern space class 1: field {key!r} is invalid: {_MISTYPED[key][1]}",
                   id=f"space.json-class-mistyped-{key}") for key in _CLASS],
    *[pytest.param("spec.json", _spec(**{key: _MISTYPED[key][0]}),
                   f"error: synthetic spec: field {key!r} is invalid: {_MISTYPED[key][1]}",
                   id=f"spec.json-mistyped-{key}") for key in ("length", "noise_center", "noise_radius", "seed")],
    pytest.param("spec.json", _spec(true_params=[]), "error: model parameters: expected a JSON object, got list",
                 id="spec.json-true_params-array"),
    pytest.param("spec.json", _spec(input_process="steps"), "error: input process: expected a JSON object, got str",
                 id="spec.json-input_process-string"),
]

_NON_FINITE_FIELDS = [
    pytest.param("model.json", json.dumps({**_MODEL, "A": [0.5, float("nan")]}),
                 "error: model parameters: A must be finite", id="model.json-A-nan"),
    pytest.param("model.json", json.dumps({**_MODEL, "C": [0, float("inf")]}),
                 "error: model parameters: C must be finite", id="model.json-C-inf"),
    pytest.param(
        "space.json",
        _space(lower=float("nan")),
        "error: pattern space: class 1 bounds must be finite with lower <= upper, got [nan, 1.0]",
        id="space.json-lower-nan",
    ),
    pytest.param(
        "space.json",
        _space(upper=float("inf")),
        "error: pattern space: class 1 bounds must be finite with lower <= upper, got [0.0, inf]",
        id="space.json-upper-inf",
    ),
    pytest.param("space.json", _space(center=float("nan")),
                 "error: pattern space: class centers must be finite, got [nan]", id="space.json-center-nan"),
    pytest.param(
        "space.json",
        json.dumps({"cpms": 2, "classes": [_CLASS, {"id": 2, "lower": 1, "upper": 2, "center": float("inf")}]}),
        "error: pattern space: class centers must be finite, got [0.5, inf]",
        id="space.json-center-inf",
    ),
    pytest.param(
        "spec.json",
        _spec(noise_center=float("nan")),
        "error: synthetic spec: noise levels must be finite and >= 0, got nan, 0.25",
        id="spec.json-noise_center-nan",
    ),
    pytest.param(
        "spec.json",
        _spec(noise_radius=float("inf")),
        "error: synthetic spec: noise levels must be finite and >= 0, got 0.6, inf",
        id="spec.json-noise_radius-inf",
    ),
    pytest.param(
        "spec.json",
        _spec(input_process={"kind": "steps", "levels": [1, float("nan")], "period": 24}),
        "error: synthetic spec: field 'input_process' is invalid: step levels must be finite, got [1.0, nan]",
        id="spec.json-levels-nan",
    ),
    pytest.param(
        "spec.json",
        _spec(input_process={"kind": "white", "amplitude": float("inf")}),
        "error: synthetic spec: field 'input_process' is invalid: amplitude must be finite and >= 0, got inf",
        id="spec.json-amplitude-inf",
    ),
    pytest.param(
        "spec.json",
        _spec(true_params={**_SPEC["true_params"], "A": [float("nan")] * 5}),
        "error: synthetic spec: field 'true_params' is invalid: model parameters: A must be finite",
        id="spec.json-true_params-A-nan",
    ),
]

# fields that parse but do not make a valid object, or disagree with another file
_INVALID_VALUES = [
    pytest.param("model.json", json.dumps({**_MODEL, "C": [0, -1]}),
                 "error: model parameters: radius coefficients C must be entrywise nonnegative",
                 id="model.json-C-negative"),
    pytest.param("space.json", _space(lower=2),
                 "error: pattern space: class 1 bounds must be finite with lower <= upper, got [2.0, 1.0]",
                 id="space.json-lower-above-upper"),
    pytest.param("space.json", _space(id=0), "error: pattern space: class ids must run 1..1 in order, got [0]",
                 id="space.json-id-0"),
    # a valid space with one class: a model needs two
    pytest.param("space.json", _space(), "error: model needs cpms >= 2, got 1", id="space.json-one-class"),
    pytest.param("spec.json", _spec(seed=-1), "error: synthetic spec: seed must be >= 0, got -1",
                 id="spec.json-seed-negative"),
    pytest.param("spec.json", _spec(length=10),
                 "error: synthetic spec: length 10 is too short; need at least 10 * (1 + n + m) = 50",
                 id="spec.json-length-too-short"),
    # a JSON integer too large for a float
    pytest.param("spec.json", _spec(noise_center=10**400),
                 f"error: synthetic spec: field 'noise_center' is invalid: {10**400} is out of range for a float",
                 id="spec.json-noise_center-1e400"),
    pytest.param("spec.json", _spec(input_process={"kind": "white", "amplitude": 9e307}),
                 "error: synthetic spec: field 'input_process' is invalid: "
                 "amplitude must be at most half the largest float, got 9e+307",
                 id="spec.json-amplitude-9e307"),
    pytest.param("report.json", '{"cpms": 25}',
                 "error: model dir {dir} is inconsistent: fit report says cpms=25 but the pattern space has 26 classes",
                 id="report.json-cpms-25"),
    pytest.param("report.json", '{"cpms": "26"}',
                 "error: fit report {path}: field 'cpms' is invalid: expected an integer, got '26'",
                 id="report.json-cpms-string"),
    pytest.param("report.json", '{"cpms": true}',
                 "error: fit report {path}: field 'cpms' is invalid: expected an integer, got True",
                 id="report.json-cpms-bool"),
]

# a field that its object does not hold, at every level of the three files
_UNKNOWN_FIELDS = [
    pytest.param("spec.json", _spec(note="x"), "error: synthetic spec: unknown field(s) 'note'",
                 id="spec.json-unknown-note"),
    pytest.param("spec.json", _spec(true_params={**_MODEL, "D": [0]}), "error: model parameters: unknown field(s) 'D'",
                 id="spec.json-true_params-unknown-D"),
    pytest.param("spec.json", _spec(input_process={"kind": "white", "amplitude": 1.0, "period": 24}),
                 "error: input process: unknown field(s) 'period'", id="spec.json-input_process-unknown-period"),
    pytest.param("spec.json", _spec(input_process={**_SPEC["input_process"], "amplitude": 1.0, "phase": 0}),
                 "error: input process: unknown field(s) 'amplitude', 'phase'",
                 id="spec.json-input_process-unknown-amplitude-phase"),
    pytest.param("model.json", json.dumps({**_MODEL, "D": [0]}), "error: model parameters: unknown field(s) 'D'",
                 id="model.json-unknown-D"),
    pytest.param("space.json", json.dumps({"cpms": 1, "classes": [_CLASS], "note": "x"}),
                 "error: pattern space: unknown field(s) 'note'", id="space.json-unknown-note"),
    pytest.param("space.json", _space(note="x"), "error: pattern space class 1: unknown field(s) 'note'",
                 id="space.json-class-unknown-note"),
]

# text that is not JSON, in every JSON file a command reads; config.json is an eval --config file
_BAD_JSON_FILES = [
    pytest.param(name, "{\n",
                 "error: {path}: Expecting property name enclosed in double quotes: line 2 column 1 (char 2)",
                 id=f"{name}-unclosed-object")
    for name in ("model.json", "space.json", "report.json", "spec.json", "config.json")
] + [
    pytest.param("model.json", "", "error: {path}: Expecting value: line 1 column 1 (char 0)", id="model.json-empty"),
    pytest.param("space.json", "[" * 100_000,
                 "error: {path}: maximum recursion depth exceeded while decoding a JSON array from a unicode string",
                 id="space.json-deep-nesting"),
]

_BAD_CSV_FILES = [
    pytest.param("data.csv", "", "error: {path}: file is empty", id="data.csv-empty"),
    pytest.param("data.csv", "x,u\n", "error: {path}: dataset needs at least 2 rows, got 0", id="data.csv-no-rows"),
    pytest.param("data.csv", "x,,u\n1,2,3\n4,5,6\n", "error: {path}: header row 1 has an empty column name",
                 id="data.csv-empty-column-name"),
    pytest.param("data.csv", "x,x,u\n1,2,3\n4,5,6\n", "error: {path}: header row 1 has duplicate column names",
                 id="data.csv-repeated-column-name"),
    pytest.param("data.csv", "x,u\n1,2\nnan,3\n4,5\n", "error: {path}: row 3, column 'x': nan is not a finite number",
                 id="data.csv-nan-cell"),
    pytest.param("data.csv", "x,u\n1,2\n3,4\n5,-Infinity\n",
                 "error: {path}: row 4, column 'u': -inf is not a finite number", id="data.csv-minus-infinity-cell"),
    pytest.param("data.csv", "x,u\n1,2\n3\n", "error: {path}: row 3 has 1 cells, expected 2", id="data.csv-short-row"),
    pytest.param("data.csv", "x,u\n1,2\n1e3x,3\n",
                 "error: {path}: row 3, column 'x': could not parse '1e3x' as a number",
                 id="data.csv-unparseable-cell"),
    pytest.param("data.csv", "x,y\n1,2\n3,4\n", "error: input column 'u' not in {path}; available: x, y",
                 id="data.csv-no-input-column"),
    pytest.param("data.csv", "u\n1\n2\n3\n", "error: {path}: no operating-condition columns besides the input column",
                 id="data.csv-input-column-only"),
    # finite cells whose squares overflow: the standard deviation is not a number to divide by
    pytest.param(
        "data.csv",
        "x,u\n0,2\n1e300,3\n-1e300,5\n",
        "error: {path}: column 'x': values are too large to normalize: mean 0.0, standard deviation inf",
        id="data.csv-overflowing-squares",
    ),
    # a cell over the CSV reader's field size limit, and a byte that is not UTF-8
    pytest.param("data.csv", 'x,u\n1,2\n3,4\n"' + "1" * 200_000 + '",5\n',
                 "error: {path}: row 4: field larger than field limit (131072)", id="data.csv-over-long-cell"),
    pytest.param("data.csv", b"x,u\n1,2\n\xff,3\n",
                 "error: {path}: 'utf-8' codec can't decode byte 0xff in position 8: invalid start byte",
                 id="data.csv-not-utf8"),
]


@pytest.mark.parametrize(
    "bad_file, content, message",
    [
        pytest.param("model.json", "{}", "error: model parameters: missing field 'n'", id="model.json-empty-object"),
        pytest.param("space.json", "[1, 2]", "error: pattern space: expected a JSON object, got list",
                     id="space.json-array"),
        pytest.param("spec.json", '{"length": 864}', "error: synthetic spec: missing field 'true_params'",
                     id="spec.json-length-only"),
        pytest.param("spec.json", "{}", "error: synthetic spec: missing field 'length'", id="spec.json-empty-object"),
        # an int field takes a JSON integer only; a float field any number but a bool
        pytest.param(
            "model.json",
            '{"n": 3.0, "m": 1, "A": [], "C": []}',
            "error: model parameters: field 'n' is invalid: expected an integer, got 3.0",
            id="model.json-n-float",
        ),
        pytest.param(
            "model.json",
            '{"n": 1, "m": true, "A": [], "C": []}',
            "error: model parameters: field 'm' is invalid: expected an integer, got True",
            id="model.json-m-bool",
        ),
        pytest.param(
            "model.json",
            '{"n": 1, "m": 0, "A": [0.5, "0.5"], "C": [0, 1]}',
            "error: model parameters: field 'A' is invalid: expected a number, got '0.5'",
            id="model.json-A-string-entry",
        ),
        pytest.param(
            "space.json",
            '{"cpms": 1, "classes": [{"id": 1, "lower": "0", "upper": 1, "center": 0.5}]}',
            "error: pattern space class 1: field 'lower' is invalid: expected a number, got '0'",
            id="space.json-lower-string",
        ),
        pytest.param(
            "space.json",
            '{"cpms": 1, "classes": [{"id": 1, "lower": 0, "upper": 1, "center": false}]}',
            "error: pattern space class 1: field 'center' is invalid: expected a number, got False",
            id="space.json-center-bool",
        ),
        pytest.param(
            "space.json",
            '{"cpms": 1.0, "classes": [{"id": 1, "lower": 0, "upper": 1, "center": 0.5}]}',
            "error: pattern space: field 'cpms' is invalid: expected an integer, got 1.0",
            id="space.json-cpms-float",
        ),
        pytest.param(
            "spec.json",
            '{"length": 2.7}',
            "error: synthetic spec: field 'length' is invalid: expected an integer, got 2.7",
            id="spec.json-length-float",
        ),
        pytest.param(
            "spec.json",
            json.dumps({**default_synthetic_spec().to_json(), "seed": 1e20}),
            "error: synthetic spec: field 'seed' is invalid: expected an integer, got 1e+20",
            id="spec.json-seed-1e20",
        ),
        pytest.param(
            "spec.json",
            json.dumps({**default_synthetic_spec().to_json(), "noise_center": "0.01"}),
            "error: synthetic spec: field 'noise_center' is invalid: expected a number, got '0.01'",
            id="spec.json-noise_center-string",
        ),
        pytest.param(
            "spec.json",
            json.dumps(
                {
                    **default_synthetic_spec().to_json(),
                    "input_process": {"kind": "steps", "levels": [1, "2"], "period": 24},
                }
            ),
            "error: input process: field 'levels' is invalid: expected a number, got '2'",
            id="spec.json-levels-string-entry",
        ),
        *_MISSING_AND_MISTYPED_FIELDS,
        *_NON_FINITE_FIELDS,
        *_INVALID_VALUES,
        *_UNKNOWN_FIELDS,
        *_BAD_CSV_FILES,
        *_BAD_JSON_FILES,
    ],
)
def test_malformed_input_files_exit_2(workspace, tmp_path, capsys, bad_file, content, message):
    # a model, pattern-space, report, spec, config or data file that does not
    # parse, or has a missing, mistyped, unknown or non-finite field, is an input
    # problem: exit 2 with one error line naming it, no traceback and no --out
    # directory; ``{path}`` is the bad file and ``{dir}`` the model directory
    data_dir, fit_dir = workspace
    model_dir = tmp_path / "model"
    model_dir.mkdir()
    for name in ("model.json", "space.json"):
        (model_dir / name).write_bytes((fit_dir / name).read_bytes())
    (model_dir / bad_file).write_bytes(content.encode("utf-8") if isinstance(content, str) else content)
    if bad_file == "spec.json":
        args = ["synth", "--config", str(model_dir / bad_file)]
    else:
        data = str(model_dir / bad_file if bad_file == "data.csv" else data_dir / "synthetic.csv")
        args = ["eval", "--data", data, "--input-col", "u", "--model-dir", str(model_dir)]
        if bad_file == "config.json":
            args += ["--config", str(model_dir / bad_file)]
    assert main([*args, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == message.format(path=model_dir / bad_file, dir=model_dir) + "\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: doc.update(cpms=25), "declared cpms 25 does not match the 26 classes"),
        (lambda doc: doc["classes"][0].update(id=2), "class ids must run 1..26 in order, got [2, 2, 3, "),
        (
            lambda doc: doc["classes"][0].update(center=doc["classes"][1]["center"]),
            "class centers must strictly ascend, got ",
        ),
        (lambda doc: doc["classes"][0].update(center=float("nan")), "class centers must be finite, got [nan, "),
        (
            lambda doc: doc.update(cpms=2, classes=[
                {"id": 1, "lower": -1e308, "upper": -1e308, "center": -1e308},
                {"id": 2, "lower": 1e308, "upper": 1e308, "center": 1e308},
            ]),
            "class bounds from -1e+308 to 1e+308 overflow a float",
        ),
    ],
    ids=["declared-cpms", "class-ids", "unordered-centers", "nan-center", "overflowing-extent"],
)
def test_inconsistent_space_file_exits_2(workspace, tmp_path, monkeypatch, edit, message):
    # a space.json whose fields parse but do not form a space is an input
    # problem, not a clustering failure: exit 2 with one error line, and no
    # numpy warning on the way, even where RuntimeWarnings are errors
    monkeypatch.setenv("PYTHONWARNINGS", "error::RuntimeWarning")
    data_dir, fit_dir = workspace
    model_dir = tmp_path / "model"
    model_dir.mkdir()
    (model_dir / "model.json").write_bytes((fit_dir / "model.json").read_bytes())
    doc = json.loads((fit_dir / "space.json").read_text(encoding="utf-8"))
    edit(doc)
    (model_dir / "space.json").write_text(json.dumps(doc), encoding="utf-8")
    common = ["--data", str(data_dir / "synthetic.csv"), "--input-col", "u", "--model-dir", str(model_dir)]
    for command in ("eval", "robust"):
        proc = _run_cli([command, *common, "--out", str(tmp_path / command)])
        assert proc.returncode == 2, proc.stderr
        (line,) = proc.stderr.splitlines()
        assert line.startswith("error: pattern space: " + message)


# the --config keys of each command (its flags in _ spelling) with their JSON types
_CONFIG_KEYS = {
    "fit": {"data": str, "input_col": str, "out": str, "seed": int, "n": int, "m": int, "fuzziness": float,
            "fcm_tolerance": float, "fcm_iterations": int, "cpms": int},
    "eval": {"data": str, "input_col": str, "out": str, "model_dir": str},
    "sweep": {"data": str, "input_col": str, "out": str, "seed": int, "n": int, "m": int, "fuzziness": float,
              "fcm_tolerance": float, "fcm_iterations": int, "cpms_range": str},
    "robust": {"data": str, "input_col": str, "out": str, "model_dir": str, "seed": int, "magnitude": float},
}


@pytest.mark.parametrize(
    "command, config",
    [
        ("robust", {"center_magnitude": 0.5}),
        ("fit", {"fuzzines": 1.5}),
        ("eval", {"cpms": 26, "magnitud": 0.1}),
        ("sweep", {"cpms": 26, "config": "other.json"}),
        ("eval", {"seed": 1}),
    ],
)
def test_unknown_config_keys_exit_2(workspace, tmp_path, capsys, command, config):
    # a key the command does not read, removed or misspelled, is named in the
    # error instead of being ignored; the error lists the keys it does read
    data_dir, fit_dir = workspace
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"data": str(data_dir / "synthetic.csv"), **config}), encoding="utf-8")
    args = [command, "--input-col", "u", "--config", str(cfg), "--out", str(tmp_path / "out")]
    if command in ("eval", "robust"):
        args += ["--model-dir", str(fit_dir)]
    assert main(args) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: config file {cfg}: unknown key(s) ")
    assert all(repr(key) in line for key in config)
    assert set(line.split("; this command reads ")[1].split(", ")) == set(_CONFIG_KEYS[command])
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, config",
    [
        ("fit", {"seed": None}),
        ("sweep", {"fuzziness": [2]}),
        ("fit", {"data": 5}),
        # an int key takes a JSON integer only; a float key any number but a bool
        ("fit", {"n": 2.7}),
        ("fit", {"n": True}),
        ("fit", {"cpms": 26.9}),
        ("sweep", {"seed": 1e20}),
        ("fit", {"fcm_iterations": 300.0}),
        ("sweep", {"fuzziness": True}),
        ("robust", {"magnitude": "0.5"}),
        ("sweep", {"cpms_range": 26}),
        # every key of every command
        *[
            (command, {key: {str: 5, int: 2.5, float: "x"}[kind]})
            for command, keys in _CONFIG_KEYS.items()
            for key, kind in keys.items()
        ],
    ],
)
def test_config_value_of_the_wrong_type_exits_2(workspace, tmp_path, capsys, command, config):
    data_dir, fit_dir = workspace
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"data": str(data_dir / "synthetic.csv"), **config}), encoding="utf-8")
    args = [command, "--input-col", "u", "--config", str(cfg), "--out", str(tmp_path / "out")]
    if command == "robust":
        args += ["--model-dir", str(fit_dir)]
    assert main(args) == 2
    (line,) = capsys.readouterr().err.splitlines()
    (key,) = config
    assert line.startswith(f"error: config file {cfg}: field {key!r} is invalid: expected ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, flag, value, message",
    [
        ("robust", "--magnitude", float("nan"), "magnitude must be finite and >= 0, got nan"),
        ("robust", "--magnitude", float("inf"), "magnitude must be finite and >= 0, got inf"),
        ("robust", "--magnitude", -1, "magnitude must be finite and >= 0, got -1.0"),
        ("fit", "--fuzziness", float("inf"), "fuzziness must exceed 1 and be finite, got inf"),
        ("fit", "--n", 0, "orders must be n >= 1 and m >= 0, got n=0, m=1"),
        ("sweep", "--m", -1, "orders must be n >= 1 and m >= 0, got n=3, m=-1"),
        ("fit", "--cpms", 1, "cpms must be >= 2, got 1"),
        ("sweep", "--fuzziness", 1, "fuzziness must exceed 1 and be finite, got 1.0"),
        ("fit", "--fcm-tolerance", 0, "tolerance must be positive, got 0.0"),
        ("sweep", "--fcm-iterations", 0, "max_iterations must be >= 1, got 0"),
        ("sweep", "--cpms-range", "1..5", "cpms must be >= 2, got 1"),
        *[(command, "--seed", -1, "seed must be >= 0, got -1") for command in ("fit", "sweep", "robust", "synth")],
    ],
)
def test_out_of_range_flag_values_exit_2(workspace, tmp_path, capsys, command, flag, value, message):
    # a value outside its domain, as a flag or as a --config key, is an input
    # problem: exit 2 with one error line, before anything is written
    data_dir, fit_dir = workspace
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({flag[2:].replace("-", "_"): value}), encoding="utf-8")
    settings = [[flag, str(value)], ["--config", str(cfg)]]
    args = [command, "--data", str(data_dir / "synthetic.csv"), "--input-col", "u", "--out", str(tmp_path / "out")]
    if command == "robust":
        args += ["--model-dir", str(fit_dir)]
    if command == "synth":  # its --config is a spec; test_malformed_input_files_exit_2 covers that
        args, settings = ["synth", "--out", str(tmp_path / "out")], settings[:1]
    for setting in settings:
        assert main([*args, *setting]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["synth", "sweep"])
def test_a_size_too_large_to_allocate_exits_2(workspace, tmp_path, capsys, command):
    # 10**15 samples or class counts is an input no machine can hold: exit 2
    # with one error line, before anything is written
    data_dir, _ = workspace
    if command == "synth":
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({**default_synthetic_spec().to_json(), "length": 10**15}), encoding="utf-8")
        args = ["synth", "--config", str(spec)]
    else:
        args = ["sweep", "--data", str(data_dir / "synthetic.csv"), "--input-col", "u", "--cpms-range", f"2..{10**15}"]
    assert main([*args, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    (line,) = err.splitlines()
    assert line.startswith("error: out of memory") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["fit", "eval", "sweep", "robust", "synth"])
def test_help_prints_every_default(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    defaults = {key: value for key, value in vars(build_parser().parse_args([command])).items()
                if key not in ("command", "func", "parser") and value is not None}
    assert defaults
    assert all(f"(default: {value})" in text for value in defaults.values()), text


@pytest.mark.parametrize("flag, value", [("--seed", "1"), ("--cpms", "26")])
def test_removed_eval_flags_exit_2(workspace, tmp_path, capsys, flag, value):
    # eval never read --seed, and --cpms only repeated the model directory's own class count
    data_dir, fit_dir = workspace
    args = ["eval", "--data", str(data_dir / "synthetic.csv"), "--input-col", "u", "--model-dir", str(fit_dir)]
    with pytest.raises(SystemExit) as exc:
        main([*args, "--out", str(tmp_path / "out"), flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_truth_file_without_class_count_round_trips(tmp_path):
    # synth --config reads back the truth.json it writes; one that still
    # carries the removed class_count field is rejected and names it
    assert main(["synth", "--out", str(tmp_path / "a")]) == 0
    truth = tmp_path / "a" / "truth.json"
    assert "class_count" not in json.loads(truth.read_text(encoding="utf-8"))
    assert main(["synth", "--config", str(truth), "--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a" / "synthetic.csv").read_bytes() == (tmp_path / "b" / "synthetic.csv").read_bytes()

    old = tmp_path / "old-truth.json"
    old.write_text(json.dumps({**json.loads(truth.read_text(encoding="utf-8")), "class_count": 26}), encoding="utf-8")
    proc = _run_cli(["synth", "--config", str(old), "--out", str(tmp_path / "c")])
    assert proc.returncode == 2, proc.stderr
    (line,) = proc.stderr.splitlines()
    assert line == "error: synthetic spec: unknown field(s) 'class_count'"
    assert not (tmp_path / "c").exists()


def test_library_has_no_assert_statements():
    # assert vanishes under python -O, and an AssertionError escapes the
    # exit-code mapping; invariants must raise package errors instead
    package = Path(iarx.__file__).resolve().parent
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert offenders == []


@pytest.mark.parametrize(
    "text, message",
    [
        ("16-36", "--cpms-range must look like A..B, got '16-36'"),
        ("16..3x", "--cpms-range bounds must be integers, got '16..3x'"),
        ("16.5..20", "--cpms-range bounds must be integers, got '16.5..20'"),
        ("20..16", "cpms range end 16 is below start 20"),
    ],
)
def test_bad_cpms_range(workspace, tmp_path, capsys, text, message):
    data_dir, _ = workspace
    args = ["sweep", "--data", str(data_dir / "synthetic.csv"), "--input-col", "u", "--cpms-range", text]
    assert main([*args, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_several_condition_columns_are_projected_on_their_principal_component(workspace, tmp_path, monkeypatch):
    # the paper's multi-sensor input: every column but the input is a
    # condition sensor; fit and eval z-score each and use the leading
    # principal component of the z-scored columns as the series
    data_dir, _ = workspace
    dataset = load_csv(data_dir / "synthetic.csv")
    x, u = dataset.columns["x"], dataset.columns["u"]
    y = 0.5 * x + np.random.default_rng(4).normal(0.0, 2.0, x.size)
    data = tmp_path / "sensors.csv"
    rows = np.column_stack([x, u, y]).tolist()
    data.write_text("x,u,y\n" + "".join(f"{a!r},{b!r},{c!r}\n" for a, b, c in rows), encoding="utf-8")
    want = pca_project(np.column_stack([zero_mean_normalize(x)[0], zero_mean_normalize(y)[0]]))

    seen = {}
    fit_model, forecast_series = cli.fit_model, cli.forecast_series

    def fit_spy(series, u, *args, **kwargs):
        seen["fit"] = (series, u)
        return fit_model(series, u, *args, **kwargs)

    def forecast_spy(model, series, u, *args, **kwargs):
        seen["eval"] = (series, u)
        return forecast_series(model, series, u, *args, **kwargs)

    monkeypatch.setattr(cli, "fit_model", fit_spy)
    monkeypatch.setattr(cli, "forecast_series", forecast_spy)
    args = ["--data", str(data), "--input-col", "u"]
    assert main(["fit", *args, "--cpms", "12", "--out", str(tmp_path / "fit")]) == 0
    assert main(["eval", *args, "--model-dir", str(tmp_path / "fit"), "--out", str(tmp_path / "eval")]) == 0
    assert set(seen) == {"fit", "eval"}
    for series, u_used in seen.values():
        assert np.array_equal(series, want)
        assert np.array_equal(u_used, zero_mean_normalize(u)[0])
    # the projection is not either sensor alone
    assert not np.allclose(want, zero_mean_normalize(x)[0]) and not np.allclose(want, zero_mean_normalize(y)[0])


def test_robust_default_digests(workspace, tmp_path, capsys):
    data_dir, fit_dir = workspace
    out = tmp_path / "robust"
    rc = main(
        [
            "robust",
            "--data",
            str(data_dir / "synthetic.csv"),
            "--input-col",
            "u",
            "--model-dir",
            str(fit_dir),
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    assert "final class match: yes" in capsys.readouterr().out
    lines = (out / "robust.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("original,") and lines[1].endswith(",true")
    assert lines[2].startswith("perturbed,") and lines[2].endswith(",true")
    # digestion: the final RMSE columns of both rows agree exactly
    assert lines[1].split(",")[3:5] == lines[2].split(",")[3:5]


def test_robust_large_magnitude_reports_flip(workspace, tmp_path, capsys):
    data_dir, fit_dir = workspace
    out = tmp_path / "robust"
    rc = main(
        [
            "robust",
            "--data",
            str(data_dir / "synthetic.csv"),
            "--input-col",
            "u",
            "--model-dir",
            str(fit_dir),
            "--out",
            str(out),
            "--magnitude",
            "0.5",
        ]
    )
    assert rc == 0
    assert "final class match: no" in capsys.readouterr().out
    lines = (out / "robust.csv").read_text(encoding="utf-8").splitlines()
    assert lines[1].endswith(",false") and lines[2].endswith(",false")


def test_config_file_defaults_and_flag_precedence(workspace, tmp_path):
    data_dir, _ = workspace
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cpms": 10, "input_col": "u"}), encoding="utf-8")

    out_cfg = tmp_path / "from-config"
    rc = main(
        ["fit", "--data", str(data_dir / "synthetic.csv"), "--config", str(cfg), "--out", str(out_cfg)]
    )
    assert rc == 0
    assert json.loads((out_cfg / "report.json").read_text(encoding="utf-8"))["cpms"] == 10

    out_flag = tmp_path / "from-flag"
    rc = main(
        [
            "fit",
            "--data",
            str(data_dir / "synthetic.csv"),
            "--config",
            str(cfg),
            "--cpms",
            "12",
            "--out",
            str(out_flag),
        ]
    )
    assert rc == 0
    assert json.loads((out_flag / "report.json").read_text(encoding="utf-8"))["cpms"] == 12


def test_config_must_be_json_object(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2, 3]", encoding="utf-8")
    rc = main(["synth", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 2
