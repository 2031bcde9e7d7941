"""One owner per series rule of the fit path.

The orders, the sample count, equal lengths and finite samples are each
checked by one function of ``iarx.errors``. Every entry point that a rule
applies to raises that rule's class with that rule's message, in which only
the names of the entry point's own arguments differ.
"""

import numpy as np
import pytest

from iarx.errors import DataError
from iarx.model import IarxParams, fit
from iarx.pattern_space import fcm_cluster
from iarx.pipeline import _encode, fit_model, forecast_series, sweep_cpms

ENTRIES = {
    "IarxParams": lambda s, n, m: IarxParams(n=n, m=m, A=[0.0] * 5, C=[0.0] * 5),
    "fit": lambda s, n, m: fit(s["centers"], s["radii"], s["u"], n, m),
    "fit_model": lambda s, n, m: fit_model(s["data"], s["u"], 26, n, m),
    "sweep_cpms": lambda s, n, m: sweep_cpms(s["data"], s["u"], [26], n, m),
    "forecast_series": lambda s, n, m: forecast_series(s["model"], s["data"], s["u"]),
    "fcm_cluster": lambda s, n, m: fcm_cluster(s["data"], 26),
}
ORDERS = ("IarxParams", "fit", "fit_model", "sweep_cpms")
PIPELINE = ("fit_model", "sweep_cpms", "forecast_series")


def _keep(s):
    pass


def _first_seven(s):  # one sample short of the 8 that n = 3, m = 1 need
    for name in ("data", "u", "centers", "radii"):
        s[name] = s[name][:7]


def _drop_last(name):
    return lambda s: s.update({name: s[name][:-1]})


def _spoil(name, value):
    def change(s):
        s[name][100] = value

    return change


# rule: (orders, change to the default series, class, {entry point: message})
RULES = {
    "order-n": ((0, 1), _keep, ValueError, dict.fromkeys(ORDERS, "autoregressive order n must be >= 1, got 0")),
    "order-m": ((3, -1), _keep, ValueError, dict.fromkeys(ORDERS, "input order m must be >= 0, got -1")),
    "integer-order": (
        (1.5, 1), _keep, ValueError, dict.fromkeys(ORDERS, "autoregressive order n must be an integer, got 1.5")
    ),
    "sample-count": (
        (3, 1),
        _first_seven,
        DataError,
        dict.fromkeys(("fit", "fit_model", "sweep_cpms"), "need at least 8 samples to fit orders n=3, m=1"),
    ),
    "input-length": (
        (3, 1),
        _drop_last("u"),
        DataError,
        {
            "fit": "centers length 864 does not match inputs length 863",
            **dict.fromkeys(PIPELINE, "data length 864 does not match u length 863"),
        },
    ),
    "radius-length": (
        (3, 1), _drop_last("radii"), DataError, {"fit": "centers length 864 does not match radii length 863"}
    ),
    "nan-center": ((3, 1), _spoil("centers", np.nan), DataError, {"fit": "centers sample 100 is not finite"}),
    "nan-radius": ((3, 1), _spoil("radii", np.nan), DataError, {"fit": "radii sample 100 is not finite"}),
    "inf-input": (
        (3, 1),
        _spoil("u", np.inf),
        DataError,
        {"fit": "inputs sample 100 is not finite", **dict.fromkeys(PIPELINE, "u sample 100 is not finite")},
    ),
    "nan-data": (
        (3, 1),
        _spoil("data", np.nan),
        DataError,
        dict.fromkeys((*PIPELINE, "fcm_cluster"), "data sample 100 is not finite"),
    ),
}


@pytest.fixture
def series(default_result, default_model):
    """Copies of the default series and of its encoded centers and radii, with the default model."""
    _, centers, radii = _encode(default_model.space, default_result.data)
    s = {"data": default_result.data, "u": default_result.u, "centers": centers, "radii": radii}
    return {**{name: values.copy() for name, values in s.items()}, "model": default_model}


@pytest.mark.parametrize(
    "rule, entry",
    [pytest.param(rule, entry, id=f"{rule}-{entry}") for rule, spec in RULES.items() for entry in spec[3]],
)
def test_each_entry_point_raises_the_error_of_the_rules_owner(series, rule, entry):
    (n, m), change, cls, messages = RULES[rule]
    change(series)
    with pytest.raises(cls) as info:
        ENTRIES[entry](series, n, m)
    assert (type(info.value), str(info.value)) == (cls, messages[entry])


def test_every_entry_point_runs_on_the_unchanged_series(series):
    # so each case above fails by its change alone
    for call in ENTRIES.values():
        call(series, 3, 1)
