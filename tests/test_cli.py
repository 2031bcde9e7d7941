"""CLI tests: run ``main`` in-process and check files, exit codes, and output."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import iarx
from iarx.cli import main
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


def test_eval_cpms_mismatch_is_config_error(workspace, tmp_path):
    data_dir, fit_dir = workspace
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
            str(tmp_path),
            "--cpms",
            "25",
        ]
    )
    assert rc == 2


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


def test_sweep_reports_non_convergence_on_stderr(workspace, tmp_path):
    # on the normalized default series, fuzzy c-means at 22 classes runs all
    # 300 iterations; the cell is still scored and the files are unchanged
    data_dir, _ = workspace
    args = ["sweep", "--data", str(data_dir / "synthetic.csv"), "--input-col", "u", "--cpms-range", "22..22"]
    with pytest.warns(ConvergenceWarning, match="k=22"):
        assert main([*args, "--out", str(tmp_path / "in-process")]) == 0

    proc = _run_cli([*args, "--out", str(tmp_path / "process")])
    assert proc.returncode == 0, proc.stderr
    assert "ConvergenceWarning" in proc.stderr and "k=22" in proc.stderr
    written = (tmp_path / "process" / "sweep.csv").read_bytes()
    assert written == (tmp_path / "in-process" / "sweep.csv").read_bytes()
    (row,) = written.decode("utf-8").splitlines()[1:]
    assert row.startswith("22,") and "" not in row.split(",")


def test_non_finite_forecast_exits_1(workspace, tmp_path):
    # a loaded model whose forecasts overflow is a numerical failure: exit 1
    # with one error line, no numpy warning and no traceback
    data_dir, fit_dir = workspace
    model_dir = tmp_path / "model"
    model_dir.mkdir()
    (model_dir / "space.json").write_bytes((fit_dir / "space.json").read_bytes())
    doc = json.loads((fit_dir / "model.json").read_text(encoding="utf-8"))
    doc["A"] = [1e308] + [0.0] * (len(doc["A"]) - 1)
    doc["C"] = [1e308] + [0.0] * (len(doc["C"]) - 1)
    (model_dir / "model.json").write_text(json.dumps(doc), encoding="utf-8")
    common = ["--data", str(data_dir / "synthetic.csv"), "--input-col", "u", "--model-dir", str(model_dir)]
    for command in ("eval", "robust"):
        proc = _run_cli([command, *common, "--out", str(tmp_path / command)])
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr == "error: forecast at step 3 is not finite: [0.0, inf]\n"


@pytest.mark.parametrize(
    "bad_file, content, message",
    [
        ("model.json", "{}", "error: model parameters: missing field 'n'"),
        ("space.json", "[1, 2]", "error: pattern space: expected a JSON object, got list"),
        ("spec.json", '{"length": 864}', "error: synthetic spec: missing field 'true_params'"),
        ("spec.json", "{}", "error: synthetic spec: missing field 'length'"),
    ],
)
def test_malformed_input_files_exit_2(workspace, tmp_path, bad_file, content, message):
    # a model, pattern-space or spec file with a missing or mistyped field is
    # an input problem: exit 2 with one error line naming it, no traceback
    data_dir, fit_dir = workspace
    model_dir = tmp_path / "model"
    model_dir.mkdir()
    for name in ("model.json", "space.json"):
        (model_dir / name).write_bytes((fit_dir / name).read_bytes())
    (model_dir / bad_file).write_text(content, encoding="utf-8")
    if bad_file == "spec.json":
        args = ["synth", "--config", str(model_dir / bad_file)]
    else:
        data = str(data_dir / "synthetic.csv")
        args = ["eval", "--data", data, "--input-col", "u", "--model-dir", str(model_dir)]
    proc = _run_cli([*args, "--out", str(tmp_path / "out")])
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == message + "\n"


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: doc.update(cpms=25), "declared cpms 25 does not match the 26 classes"),
        (lambda doc: doc["classes"][0].update(id=2), "class ids must run 1..26 in order, got [2, 2, 3, "),
        (
            lambda doc: doc["classes"][0].update(center=doc["classes"][1]["center"]),
            "class centers must strictly ascend, got ",
        ),
    ],
    ids=["declared-cpms", "class-ids", "unordered-centers"],
)
def test_inconsistent_space_file_exits_2(workspace, tmp_path, edit, message):
    # a space.json whose fields parse but do not form a space is an input
    # problem, not a clustering failure: exit 2 with one error line
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


@pytest.mark.parametrize(
    "command, config",
    [
        ("robust", {"center_magnitude": 0.5}),
        ("fit", {"fuzzines": 1.5}),
        ("eval", {"cpms": 26, "magnitud": 0.1}),
    ],
)
def test_unknown_config_keys_exit_2(workspace, tmp_path, capsys, command, config):
    # a key the command does not read, removed or misspelled, is named in the
    # error instead of being ignored
    data_dir, fit_dir = workspace
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"data": str(data_dir / "synthetic.csv"), **config}), encoding="utf-8")
    args = [command, "--input-col", "u", "--config", str(cfg), "--out", str(tmp_path / "out")]
    if command != "fit":
        args += ["--model-dir", str(fit_dir)]
    assert main(args) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: config file {cfg}: unknown key(s) ")
    assert all(repr(key) in line for key in config)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, config",
    [("fit", {"seed": None}), ("sweep", {"fuzziness": [2]}), ("fit", {"data": 5})],
)
def test_config_value_of_the_wrong_type_exits_2(workspace, tmp_path, capsys, command, config):
    data_dir, _ = workspace
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"data": str(data_dir / "synthetic.csv"), **config}), encoding="utf-8")
    rc = main([command, "--input-col", "u", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    (line,) = capsys.readouterr().err.splitlines()
    (key,) = config
    assert line.startswith(f"error: {key} must be of type ")


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


def test_bad_cpms_range(workspace, tmp_path):
    data_dir, _ = workspace
    rc = main(
        [
            "sweep",
            "--data",
            str(data_dir / "synthetic.csv"),
            "--input-col",
            "u",
            "--cpms-range",
            "16-36",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 2


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
