"""Exception taxonomy shared across the package.

Two broad families matter to callers: numerical failures raised while
clustering, identifying, simulating or forecasting (``ClusteringError``,
``IdentificationError``, ``SimulationError``), and input problems raised
while reading data or resolving configuration (``DataError``). The
command line maps the first family to exit code 1 and the second to exit
code 2.

``ConvergenceWarning`` is a warning, not an error: an iterative solver that
stops at its iteration cap still returns its last iterate.

The checks that several modules share live here too, one function per rule;
``fit_series`` runs those of a fit and owns its sample count.
"""

import json
import operator

import numpy as np

__all__ = [
    "IarxError",
    "DataError",
    "ClusteringError",
    "IdentificationError",
    "SimulationError",
    "ConvergenceWarning",
    "integer",
    "orders",
    "same_length",
    "all_finite",
    "fit_series",
    "read_json",
    "json_value",
    "json_floats",
    "json_field",
    "json_fields",
]


class IarxError(Exception):
    """Base class for all package-specific errors."""


class DataError(IarxError):
    """Malformed, degenerate or inconsistent input: data, files or command-line flags."""


class ClusteringError(IarxError):
    """Pattern-space construction failed (empty cluster, unordered classes)."""


class IdentificationError(IarxError):
    """Parameter identification failed (rank deficiency, solver breakdown)."""


class SimulationError(IarxError):
    """Running the model diverged or could not proceed.

    Raised when synthetic data generation diverges and when a forecast
    produces a non-finite interval bound.
    """


class ConvergenceWarning(UserWarning):
    """An iterative solver stopped at its iteration cap before converging."""


def read_json(path):
    """The JSON document in the file ``path``; text that does not parse is a ``DataError`` naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:  # not JSON, nested too deep, or not UTF-8
            raise DataError(f"{path}: {exc}") from None


_JSON_KINDS = {int: "an integer", float: "a number", str: "a string", list: "an array"}


def json_value(value, kind):
    """``value`` as ``kind`` if it has that JSON type, else ``TypeError``.

    ``int`` takes an integer only (not a bool, not ``2.0`` or ``1e20``),
    ``float`` an integer or a float but not a bool, ``str`` a string and
    ``list`` an array.
    """
    if kind in (str, list) and isinstance(value, kind):
        return value
    if not isinstance(value, bool):  # a bool is an int to Python, never a number to JSON
        if kind is int and isinstance(value, int):
            return value
        if kind is float and isinstance(value, (int, float)):
            try:
                return float(value)
            except OverflowError:
                raise ValueError(f"{value!r} is out of range for a float") from None
    raise TypeError(f"expected {_JSON_KINDS[kind]}, got {value!r}")


def integer(value, name: str, minimum: int | None = None) -> int:
    """The integer setting ``name`` as an ``int``, or a ``ValueError`` naming it.

    A Python or numpy integer passes (:func:`operator.index`), unless it is below ``minimum``.
    """
    try:
        number = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if minimum is not None and number < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {number}")
    return number


def orders(n, m) -> tuple[int, int]:
    """The model orders as ints: ``n`` an integer >= 1 and ``m`` one >= 0, each checked by :func:`integer`."""
    return integer(n, "autoregressive order n", 1), integer(m, "input order m", 0)


def same_length(**series) -> list[np.ndarray]:
    """The named series as float vectors, in order; one whose length differs from the first's is a ``DataError``."""
    arrays = [np.asarray(values, dtype=float).ravel() for values in series.values()]
    first, *names = series
    for name, values in zip(names, arrays[1:]):
        if values.size != arrays[0].size:
            raise DataError(f"{first} length {arrays[0].size} does not match {name} length {values.size}")
    return arrays


def all_finite(start: int = 0, **series) -> None:
    """A ``DataError`` naming the first non-finite sample of the named series, in order, counted from ``start``."""
    for name, values in series.items():
        finite = np.isfinite(values)
        if not finite.all():
            raise DataError(f"{name} sample {start + int(np.argmin(finite))} is not finite")


def fit_series(n, m, **series) -> tuple:
    """``(n, m, *series)`` checked for a fit: the orders by :func:`orders`, the series by :func:`same_length`
    and :func:`all_finite`. Fewer than ``1 + n + m + max(n, m)`` samples, which leave fewer steps with a full
    lag window than coefficients, is a ``DataError``."""
    n, m = orders(n, m)
    arrays = same_length(**series)
    if arrays[0].size < 1 + n + m + max(n, m):
        raise DataError(f"need at least {1 + n + m + max(n, m)} samples to fit orders n={n}, m={m}")
    all_finite(**dict(zip(series, arrays)))
    return (n, m, *arrays)


def json_floats(values) -> list[float]:
    """A JSON array of numbers as a list of floats; see :func:`json_value`."""
    return [json_value(v, float) for v in json_value(values, list)]


def json_field(doc, key: str, kind, what: str):
    """Field ``key`` of the JSON object ``doc``, described by ``what``.

    ``kind`` is a JSON type checked by :func:`json_value` (``int``,
    ``float``, ``str`` or ``list``) or a function that converts the raw
    value. A ``doc`` that is not an object, a missing ``key`` or a value of
    the wrong type, or that the function rejects with ``TypeError``,
    ``ValueError`` or ``DataError``, raises ``DataError`` naming ``what`` and the field.
    """
    if not isinstance(doc, dict):
        raise DataError(f"{what}: expected a JSON object, got {type(doc).__name__}")
    if key not in doc:
        raise DataError(f"{what}: missing field {key!r}")
    try:
        if kind in _JSON_KINDS:
            return json_value(doc[key], kind)
        return kind(doc[key])
    except (TypeError, ValueError, DataError) as exc:
        raise DataError(f"{what}: field {key!r} is invalid: {exc}") from None


def json_fields(doc, kinds: dict, what: str) -> list:
    """The values of the fields of the JSON object ``doc`` that ``kinds`` lists, in its order.

    ``kinds`` maps each key to its kind; each field is read by :func:`json_field`, so each is
    required. A key of ``doc`` that ``kinds`` does not list raises ``DataError`` naming ``what`` and the key.
    """
    values = [json_field(doc, key, kind, what) for key, kind in kinds.items()]
    unknown = [key for key in doc if key not in kinds]
    if unknown:
        raise DataError(f"{what}: unknown field(s) {', '.join(map(repr, unknown))}")
    return values
