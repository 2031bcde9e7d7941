"""Exception taxonomy shared across the package.

Two broad families matter to callers: numerical failures raised while
clustering, identifying, simulating or forecasting (``ClusteringError``,
``IdentificationError``, ``SimulationError``), and input problems raised
while reading data or resolving configuration (``DataError``,
``ConfigError``). The command line maps the first family to exit code 1
and the second to exit code 2.

``ConvergenceWarning`` is a warning, not an error: an iterative solver that
stops at its iteration cap still returns its last iterate.
"""

__all__ = [
    "IarxError",
    "DataError",
    "ConfigError",
    "ClusteringError",
    "IdentificationError",
    "SimulationError",
    "ConvergenceWarning",
    "json_field",
]


class IarxError(Exception):
    """Base class for all package-specific errors."""


class DataError(IarxError):
    """Malformed, degenerate or inconsistent input data."""


class ConfigError(IarxError):
    """Invalid run configuration (flags, config files, missing paths)."""


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


def json_field(doc, key: str, convert, what: str):
    """``convert(doc[key])`` for the JSON object ``doc``, described by ``what``.

    A ``doc`` that is not an object, a missing ``key`` or a value that
    ``convert`` rejects raises ``DataError`` naming ``what`` and the field.
    """
    if not isinstance(doc, dict):
        raise DataError(f"{what}: expected a JSON object, got {type(doc).__name__}")
    if key not in doc:
        raise DataError(f"{what}: missing field {key!r}")
    try:
        return convert(doc[key])
    except (TypeError, ValueError) as exc:
        raise DataError(f"{what}: field {key!r} is invalid: {exc}") from None
