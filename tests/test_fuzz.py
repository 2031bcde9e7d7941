"""The exit-code contract under seeded fuzzing.

Every command returns 0 on success, 1 on a numerical failure and 2 on an
input problem; it raises nothing, and it writes no ``nan`` or ``inf`` into
an output file. Each family below mutates valid inputs from a fixed seed and
runs ``cli.main`` in process with ``RuntimeWarning`` as an error: model
directories (``model.json``, ``space.json``, ``report.json``), the
``--config`` files of ``fit`` and ``sweep``, ``synth`` specs, and the cells
of a data CSV, finite magnitudes of 1e154 and more among them. A failing
case is named by its family, its number and the command it ran.
"""

import copy
import json
import math
import time
import warnings

import numpy as np
import pytest

from iarx.cli import main
from iarx.errors import ConvergenceWarning

CASES = 150  # per family, about 8 ms each
SECONDS = 60.0  # per family; a family that runs this long has a case that hangs or blows up

# Replacement values: every JSON type, zero, the ends of the float range,
# huge and tiny finite magnitudes, non-finite numbers (json writes them as
# NaN and Infinity) and cpms ranges. Integers stay small, so that no spec
# asks for a series that fills memory.
WEIRD = [
    0, -1, 1, 2, 3, 100, 1000, 0.5, -0.0, 5e-324, 1e-300, 1e154, -1e154, 1e300, 1.7e308, -1.7e308,
    math.nan, math.inf, -math.inf, "", "3", "x", "2..3", "30..29", None, True, False, [], [1.0], {},
]

FIT_CONFIG = {"cpms": 26, "n": 3, "m": 1, "seed": 0, "fuzziness": 2.0, "fcm_tolerance": 1e-6, "fcm_iterations": 300}
SWEEP_CONFIG = {**{k: v for k, v in FIT_CONFIG.items() if k != "cpms"}, "cpms_range": "16..17"}


@pytest.fixture
def fitted(seed3_dir):
    """The default synthetic CSV and the model directory fitted on it, from the session's seed-3 chain."""
    return seed3_dir / "data" / "synthetic.csv", seed3_dir / "model"


def _paths(doc, prefix=()):
    """The path of every value below the root of a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def mutate_json(doc, rng) -> str:
    """The text of ``doc`` with one value replaced, rescaled, dropped or doubled, or cut short."""
    doc = copy.deepcopy(doc)
    paths = list(_paths(doc))
    path = paths[rng.integers(len(paths))]
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key, op = path[-1], rng.integers(5)
    value = parent[key]
    if op == 0:
        parent[key] = WEIRD[rng.integers(len(WEIRD))]
    elif op == 1 and isinstance(value, (int, float)) and not isinstance(value, bool):
        parent[key] = value * 10.0 ** int(rng.integers(-330, 309))
    elif op == 2:
        del parent[key]
    elif op == 3:
        if isinstance(parent, list):
            parent.insert(key, value)
        else:
            parent["extra"] = value
    else:
        text = json.dumps(doc)
        return text[: rng.integers(len(text))]
    return json.dumps(doc)


def mutate_csv(text: str, rng) -> str:
    """The CSV ``text`` with one cell replaced, one row cut short, the rows cut, or one column made constant."""
    header, *rows = text.splitlines()
    rows = [row.split(",") for row in rows]
    row, col, op = rng.integers(len(rows)), rng.integers(2), rng.integers(6)
    if op <= 2:  # a huge finite magnitude, the commonest case
        rows[row][col] = repr(float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(154.0, 308.2)))
    elif op == 3:
        rows[row][col] = str(rng.choice(["nan", "inf", "-inf", "", "x", "1e-320", "5e-324", "0"]))
    elif op == 4:
        rows = rows[: rng.integers(4)] if rng.integers(2) else rows[:row] + [rows[row][:1]] + rows[row + 1 :]
    else:
        for r in rows:
            r[col] = rows[row][col]
    return "\n".join([header, *(",".join(r) for r in rows)]) + "\n"


def _non_finite(out) -> list[str]:
    """The files under ``out`` that hold a ``nan`` or ``inf`` number."""
    bad = []
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".json":
            json.loads(text, parse_constant=lambda name: bad.append(f"{path.name}: {name}"))
            continue
        for line in text.splitlines()[1:]:
            for cell in line.split(","):
                try:
                    value = float(cell)
                except ValueError:  # a label, a flag or an empty field of a failed sweep cell
                    continue
                if not math.isfinite(value):
                    bad.append(f"{path.name}: {line}")
                    break
    return bad


def run_case(args, out, capsys) -> str | None:
    """Run one command; what breaks the contract, or None."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            warnings.simplefilter("ignore", ConvergenceWarning)  # a mutated iteration cap may stop early
            rc = main([*args, "--out", str(out)])
    except Exception as exc:  # any exception breaks the contract
        return f"raised {exc!r}"
    err = capsys.readouterr().err
    if rc not in (0, 1, 2):
        return f"returned {rc!r}"
    if rc and (out.exists() or not err.startswith("error: ")):
        return f"returned {rc} with {'an output directory' if out.exists() else 'no error line'}"
    bad = _non_finite(out) if out.exists() else []
    return f"wrote non-finite numbers: {bad[:3]}" if bad else None


def _model_dir_case(i, rng, tmp_path, fitted):
    data, model = fitted
    name = ("model.json", "space.json", "report.json")[rng.integers(3)]
    case = tmp_path / f"case{i}"
    case.mkdir()
    for file in ("model.json", "space.json", "report.json"):
        (case / file).write_bytes((model / file).read_bytes())
    (case / name).write_text(mutate_json(json.loads((model / name).read_text()), rng), encoding="utf-8")
    command = ("eval", "robust")[rng.integers(2)]
    args = [command, "--data", str(data), "--input-col", "u", "--model-dir", str(case)]
    return f"{command} on a mutated {name}", args


def _config_case(i, rng, tmp_path, fitted):
    data, _ = fitted
    command, config = (("fit", FIT_CONFIG), ("sweep", SWEEP_CONFIG))[rng.integers(2)]
    path = tmp_path / f"config{i}.json"
    path.write_text(mutate_json(config, rng), encoding="utf-8")
    args = [command, "--data", str(data), "--input-col", "u", "--config", str(path)]
    return f"{command} --config {path.read_text()}", args


def _spec_case(i, rng, tmp_path, fitted):
    data, _ = fitted
    spec = json.loads((data.parent / "truth.json").read_text())
    path = tmp_path / f"spec{i}.json"
    path.write_text(mutate_json(spec, rng), encoding="utf-8")
    return f"synth --config {path.read_text()}", ["synth", "--config", str(path)]


def _csv_case(i, rng, tmp_path, fitted):
    data, model = fitted
    path = tmp_path / f"data{i}.csv"
    path.write_text(mutate_csv(data.read_text(), rng), encoding="utf-8")
    command = ("fit", "eval", "robust")[rng.integers(3)]
    args = [command, "--data", str(path), "--input-col", "u"]
    return f"{command} on a mutated CSV", args if command == "fit" else [*args, "--model-dir", str(model)]


@pytest.mark.parametrize(
    "seed, family", [(0, _model_dir_case), (1, _config_case), (2, _spec_case), (3, _csv_case)],
    ids=["model-dir", "config", "spec", "csv"],
)
def test_mutated_inputs_keep_the_exit_code_contract(seed, family, tmp_path, fitted, capsys):
    rng = np.random.default_rng(seed)
    capsys.readouterr()
    failures, start = [], time.perf_counter()
    for i in range(CASES):
        what, args = family(i, rng, tmp_path, fitted)
        broken = run_case(args, tmp_path / f"out{i}", capsys)
        if broken:
            failures.append(f"case {i}, {what}: {broken}")
    elapsed = time.perf_counter() - start
    assert failures == []
    assert elapsed < SECONDS, f"{CASES} cases took {elapsed:.1f} s"
