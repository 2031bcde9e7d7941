"""Data loading, preprocessing, and synthetic series generation."""

from __future__ import annotations

import csv
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import DataError, SimulationError, integer, json_field, json_fields, json_floats
from .model import IarxParams

__all__ = [
    "RawDataset",
    "WhiteNoiseInput",
    "StepScheduleInput",
    "SyntheticSpec",
    "SynthesisResult",
    "load_csv",
    "zero_mean_normalize",
    "pca_project",
    "synthesize",
    "default_synthetic_spec",
]

# Simulated centers beyond this magnitude mean the recursion is running away.
DIVERGENCE_LIMIT = 1e6


@dataclass(frozen=True)
class RawDataset:
    """Named numeric columns of equal length, as read from a CSV file."""

    columns: dict[str, np.ndarray]

    def __post_init__(self):
        if not self.columns:
            raise DataError("dataset has no columns")
        lengths = {name: len(col) for name, col in self.columns.items()}
        if len(set(lengths.values())) != 1:
            raise DataError(f"columns differ in length: {lengths}")
        length = next(iter(lengths.values()))
        if length < 2:
            raise DataError(f"dataset needs at least 2 rows, got {length}")


def load_csv(path) -> RawDataset:
    """Read a headered CSV of numeric columns.

    Rows are validated as they stream in: a ragged row or an unparseable
    cell raises ``DataError`` naming the 1-based file row and the column, a row
    the ``csv`` reader rejects names the row, and text that is not UTF-8 the file.
    The parsed table is then checked at once: the first ``nan`` or ``inf``
    cell in file order, and a file with fewer than 2 rows, is a
    ``DataError`` naming the file as well.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise DataError(f"{path}: file is empty")
            if not header:
                raise DataError(f"{path}: header row 1 is empty")
            names = [name.strip() for name in header]
            if any(not name for name in names):
                raise DataError(f"{path}: header row 1 has an empty column name")
            if len(set(names)) != len(names):
                raise DataError(f"{path}: header row 1 has duplicate column names")
            data: list[list[float]] = [[] for _ in names]
            for row_no, row in enumerate(reader, start=2):
                if len(row) != len(names):
                    raise DataError(
                        f"{path}: row {row_no} has {len(row)} cells, expected {len(names)}"
                    )
                for name, series, cell in zip(names, data, row):
                    try:
                        series.append(float(cell))
                    except ValueError:
                        raise DataError(
                            f"{path}: row {row_no}, column {name!r}: "
                            f"could not parse {cell.strip()!r} as a number"
                        ) from None
        except csv.Error as exc:  # a cell over the field size limit, or a NUL byte on Python 3.10
            raise DataError(f"{path}: row {reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: {exc}") from None
    table = np.array(data, dtype=float)  # one row per column
    bad = ~np.isfinite(table)
    if bad.any():
        row = int(bad.any(axis=0).argmax())
        col = int(bad[:, row].argmax())
        raise DataError(
            f"{path}: row {row + 2}, column {names[col]!r}: {float(table[col, row])!r} is not a finite number"
        )
    try:
        return RawDataset(columns=dict(zip(names, table)))
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def zero_mean_normalize(column) -> tuple[np.ndarray, float, float]:
    """Center a column and divide by its population standard deviation.

    Returns ``(normalized, mean, std)`` so the transform can be inverted.
    A constant column (zero standard deviation), or finite values so large
    that their mean or standard deviation overflows, raises ``DataError``.
    """
    values = np.asarray(column, dtype=float).ravel()
    if values.size < 2:
        raise DataError(f"need at least 2 values to normalize, got {values.size}")
    if not np.all(np.isfinite(values)):
        raise DataError("column contains non-finite values")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(values.mean())
        std = float(values.std())  # population form: divide by N
    if not (np.isfinite(mean) and np.isfinite(std)):
        raise DataError(f"values are too large to normalize: mean {mean!r}, standard deviation {std!r}")
    if std == 0.0:
        raise DataError("column is constant; zero-mean normalization is undefined")
    return (values - mean) / std, mean, std


def pca_project(columns) -> np.ndarray:
    """Project multi-column data onto its leading principal component.

    ``columns`` is an (n_rows, n_cols) array, normally already normalized
    per column. The direction is the leading eigenvector of the sample
    covariance; its sign is fixed by making the first nonzero loading
    positive. A (near-)tie between the two largest eigenvalues leaves the
    direction undefined and raises ``DataError``.
    """
    data = np.asarray(columns, dtype=float)
    if data.ndim != 2:
        raise DataError(f"expected a 2-D column stack, got ndim={data.ndim}")
    n_rows, n_cols = data.shape
    if n_cols < 2:
        raise DataError(f"need at least 2 columns for a projection, got {n_cols}")
    if n_rows <= n_cols:
        raise DataError(f"need more rows than columns, got {n_rows} rows x {n_cols} columns")
    if not np.all(np.isfinite(data)):
        raise DataError("data contains non-finite values")

    cov = np.cov(data, rowvar=False)  # sample covariance, ddof = 1
    eigenvalues, eigenvectors = np.linalg.eigh(cov)
    leading = eigenvalues[-1]
    runner_up = eigenvalues[-2]
    if leading - runner_up <= 1e-9 * max(1.0, abs(leading)):
        raise DataError(
            "leading eigenvalues are tied "
            f"({leading!r} vs {runner_up!r}); principal direction is undefined"
        )
    direction = eigenvectors[:, -1]
    nonzero = np.flatnonzero(np.abs(direction) > 1e-12)
    if nonzero.size and direction[nonzero[0]] < 0.0:
        direction = -direction
    return data @ direction


@dataclass(frozen=True)
class WhiteNoiseInput:
    """Input driven by uniform white noise on [-amplitude, +amplitude]."""

    amplitude: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.amplitude < np.inf:
            raise ValueError(f"amplitude must be finite and >= 0, got {self.amplitude!r}")
        if self.amplitude > np.finfo(float).max / 2:  # the draws span 2 * amplitude
            raise ValueError(f"amplitude must be at most half the largest float, got {self.amplitude!r}")

    def generate(self, length: int, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(-self.amplitude, self.amplitude, size=length)

    def to_json(self) -> dict:
        return {"kind": "white", "amplitude": self.amplitude}


@dataclass(frozen=True)
class StepScheduleInput:
    """Piecewise-constant input cycling through fixed levels."""

    levels: tuple[float, ...]
    period: int

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(float(v) for v in self.levels))
        if not self.levels:
            raise ValueError("step schedule needs at least one level")
        if not np.all(np.isfinite(self.levels)):
            raise ValueError(f"step levels must be finite, got {list(self.levels)}")
        object.__setattr__(self, "period", integer(self.period, "step period", 1))

    def generate(self, length: int, rng: np.random.Generator) -> np.ndarray:
        # a gather allocates one sample per step whatever the period; the cap keeps the division in int64
        steps = np.arange(length) // min(self.period, length)
        return np.asarray(self.levels)[steps % len(self.levels)]

    def to_json(self) -> dict:
        return {"kind": "steps", "levels": list(self.levels), "period": self.period}


def _input_from_json(doc):
    what = "input process"
    kind = json_field(doc, "kind", str, what)
    if kind == "white":
        cls, kinds = WhiteNoiseInput, {"kind": str, "amplitude": float}
    elif kind == "steps":
        cls, kinds = StepScheduleInput, {"kind": str, "levels": json_floats, "period": int}
    else:
        raise DataError(f"{what}: unknown kind {kind!r}")
    fields = json_fields(doc, kinds, what)[1:]
    try:
        return cls(*fields)
    except ValueError as exc:  # the fields parsed, but do not make an input process
        raise DataError(f"{what}: {exc}") from None


@dataclass(frozen=True)
class SyntheticSpec:
    """Complete, repeatable description of one synthetic dataset."""

    length: int
    true_params: IarxParams
    noise_center: float
    noise_radius: float
    input_process: WhiteNoiseInput | StepScheduleInput
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "length", integer(self.length, "length"))
        width = 1 + self.true_params.n + self.true_params.m
        if self.length < 10 * width:
            raise ValueError(
                f"length {self.length} is too short; need at least 10 * (1 + n + m) = {10 * width}"
            )
        if not (0.0 <= self.noise_center < np.inf and 0.0 <= self.noise_radius < np.inf):
            raise ValueError(
                f"noise levels must be finite and >= 0, got {self.noise_center!r}, {self.noise_radius!r}"
            )
        object.__setattr__(self, "seed", integer(self.seed, "seed", 0))

    def to_json(self) -> dict:
        return {
            "length": self.length,
            "true_params": self.true_params.to_json(),
            "noise_center": self.noise_center,
            "noise_radius": self.noise_radius,
            "input_process": self.input_process.to_json(),
            "seed": self.seed,
        }

    @classmethod
    def from_json(cls, doc) -> "SyntheticSpec":
        """The spec of :meth:`to_json` output; a missing, mistyped or unknown
        field, or values the constructor rejects, is a ``DataError``."""
        what = "synthetic spec"
        kinds = {"length": int, "true_params": IarxParams.from_json, "noise_center": float,
                 "noise_radius": float, "input_process": _input_from_json, "seed": int}
        fields = json_fields(doc, kinds, what)
        try:
            return cls(*fields)
        except ValueError as exc:  # the fields parsed, but do not make a spec
            raise DataError(f"{what}: {exc}") from None


@dataclass(frozen=True)
class SynthesisResult:
    """A synthetic series; its spec's ``true_params`` are the parameters that generated it.

    ``data`` is the scalar stream handed to the pattern-space pipeline (the
    interval centers); ``radii`` are the matching interval radii, for direct
    identification experiments.
    """

    data: np.ndarray
    u: np.ndarray
    radii: np.ndarray


def synthesize(spec: SyntheticSpec) -> SynthesisResult:
    """Simulate the interval ARX recursion forward from a seeded history.

    Centers follow the center channel plus Gaussian noise; radii follow the
    radius channel plus folded Gaussian noise, floored at zero. The scalar
    data stream is the center series. Deterministic for a fixed spec. Each
    step sums Python floats in ``predict_bounds``' order: the first lag's
    product plus the intercept, each further term in column order, the noise.
    Raises ``SimulationError`` if the center series diverges (unstable
    generating parameters) or a radius overflows a float.
    """
    params = spec.true_params
    n, m = params.n, params.m
    rng = np.random.default_rng(spec.seed)
    kmin = max(n, m)
    inputs = array("d", spec.input_process.generate(spec.length, rng).tobytes())
    centers = array("d", rng.normal(0.0, 0.5, size=kmin).tobytes())
    radii = array("d", np.abs(rng.normal(0.0, 0.1, size=kmin)).tobytes())
    noise_c = array("d", rng.normal(0.0, spec.noise_center, size=spec.length).tobytes())
    noise_r = array("d", np.abs(rng.normal(0.0, spec.noise_radius, size=spec.length)).tobytes())
    a, c = params.A.tolist(), params.C.tolist()
    output_lags, input_lags = range(2, n + 1), range(1, m + 1)
    for k in range(kmin, spec.length):
        center = a[1] * centers[k - 1] + a[0]
        radius = c[1] * radii[k - 1] + c[0]
        for j in output_lags:
            center += a[j] * centers[k - j]
            radius += c[j] * radii[k - j]
        for ell in input_lags:
            center += a[n + ell] * inputs[k - ell]
            radius += c[n + ell] * abs(inputs[k - ell])
        center += noise_c[k]
        radius = max(0.0, radius + noise_r[k])
        if not abs(center) <= DIVERGENCE_LIMIT:  # NaN fails this test too
            raise SimulationError(
                f"simulated center diverged to {center!r} at step {k}; the generating parameters are unstable"
            )
        if not radius < np.inf:
            raise SimulationError(
                f"simulated radius overflowed to {radius!r} at step {k}; "
                "the radius noise or the generating parameters are too large"
            )
        centers.append(center)
        radii.append(radius)
    data, u, radii = (np.frombuffer(series) for series in (centers, inputs, radii))
    return SynthesisResult(data=data, u=u, radii=radii)


# Setpoint program for the default dataset: a shuffled staircase over 18
# evenly spaced levels in [-1, 1] (each held for 24 samples) plus a single
# high excursion (2.5).  The steady-state map x* = 530 + 60*u puts the bulk
# of the series in [470, 590] with the excursion near 680, so the operating
# range is covered nearly uniformly — every pattern class ends up anchored
# to at least one dwell level — while the excursion leaves one deliberately
# wide, sparsely visited class at the top of the range.
_DEFAULT_SETPOINTS = (
    -0.294118, 0.882353, -0.176471, 0.176471, -0.764706, 0.294118,
    -1.0, 0.764706, 1.0, 0.647059, 0.058824, 0.411765,
    -0.411765, 0.529412, -0.647059, -0.529412, -0.058824, -0.882353,
    2.5, 0.176471, -0.529412, -0.764706, 0.529412, -0.176471,
    0.411765, 0.411765, 1.0, -0.176471, -0.647059, 0.294118,
    0.882353, 1.0, 0.764706, 0.411765, -0.294118, -0.176471,
)


def default_synthetic_spec(seed: int = 3) -> SyntheticSpec:
    """The dataset spec used throughout the examples and experiments.

    A slow third-order process driven by a stepped setpoint program, living
    at a temperature-like scale (roughly 470-680): it dwells on each level
    long enough to settle, visits the levels in a scrambled order, and makes
    one brief excursion well above the normal operating band.
    """
    return SyntheticSpec(
        length=864,
        true_params=IarxParams(
            n=3,
            m=1,
            A=[233.2, 0.50, 0.10, -0.04, 26.4],
            C=[0.3, 0.30, 0.05, 0.02, 0.4],
        ),
        noise_center=0.6,
        noise_radius=0.25,
        input_process=StepScheduleInput(levels=_DEFAULT_SETPOINTS, period=24),
        seed=seed,
    )
