"""Pattern moving space: fuzzy c-means over a scalar series, class intervals.

A pattern space partitions a one-dimensional data series into ``k`` fuzzy
c-means clusters, hardens the memberships, and represents every class by
the closed interval spanning its members. Classes are kept sorted by
ascending cluster center and numbered ``1..k``; the class count is the
cardinality of the space.

Classification of an arbitrary interval is nearest-neighbor under the
Hausdorff distance, and measuring a class returns its stored interval
object, so anything routed through classify-then-measure is bit-identical
to one of the class intervals.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ClusteringError, ConvergenceWarning, DataError, json_field
from .intervals import Interval

__all__ = [
    "FcmConfig",
    "PatternClass",
    "PatternSpace",
    "fcm_cluster",
    "build_space",
]

# classify_bounds measures this many (interval, class) distances at a time,
# so its work arrays stay cache-sized however long the series is.
_BLOCK_PAIRS = 1 << 16


@dataclass(frozen=True)
class FcmConfig:
    """Fuzzy c-means settings.

    ``k`` is the target cluster count. ``tolerance`` bounds the maximum
    center movement between iterations at convergence.
    """

    k: int
    fuzziness: float = 2.0
    tolerance: float = 1e-6
    max_iterations: int = 300
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"cluster count must be >= 1, got {self.k}")
        if not self.fuzziness > 1.0:
            raise ValueError(f"fuzziness must exceed 1, got {self.fuzziness!r}")
        if not self.tolerance > 0.0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance!r}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")


def _farthest_point_init(values: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Pick k distinct data values: a seeded start, then greedy farthest points."""
    distinct = np.unique(values)
    if distinct.size < k:
        raise ClusteringError(f"cannot seed {k} clusters from {distinct.size} distinct value(s)")
    centers = np.empty(k)
    centers[0] = distinct[rng.integers(distinct.size)]
    min_dist = np.abs(distinct - centers[0])
    for i in range(1, k):
        centers[i] = distinct[np.argmax(min_dist)]
        np.minimum(min_dist, np.abs(distinct - centers[i]), out=min_dist)
    return centers


def _reformulate(d2: np.ndarray, fuzziness: float) -> tuple[np.ndarray, float]:
    """Hathaway & Bezdek's reformulated objective R(V) from the squared distances ``d2`` (k x N).

    Overwrites ``d2`` with r = (nearest / d2) ** (1 / (fuzziness - 1)), where
    ``nearest`` is the column minimum; a point on a center gets r = 1 at the
    first such center and 0 elsewhere. The optimal memberships for these
    centers are U = r / s with s = sum_i r >= 1. Returns ``(s ** -fuzziness,
    R)`` with R = sum_j nearest_j * s_j ** (1 - fuzziness), which equals the
    objective J(U, V) at that U.
    """
    nearest = d2.min(axis=0)
    on_center = np.flatnonzero(nearest == 0.0)
    if on_center.size:
        rows = np.argmax(d2[:, on_center] == 0.0, axis=0)
        d2[:, on_center] = 1.0
    # Ratios to the nearest center lie in [0, 1], so the powers cannot overflow.
    r = np.divide(nearest, d2, out=d2)
    if on_center.size:
        r[rows, on_center] = 1.0
    if fuzziness != 2.0:
        r **= 1.0 / (fuzziness - 1.0)
    s = r.sum(axis=0)
    scale = s ** -fuzziness
    return scale, float(np.dot(nearest * s, scale))


def fcm_cluster(data, config: FcmConfig) -> tuple[np.ndarray, np.ndarray]:
    """Cluster a scalar series by fuzzy c-means with hardened assignments.

    Runs the alternating update of Bezdek, Ehrlich & Full (1984), reformulated
    in the centers alone (see ``_reformulate``), until no center moves by
    ``config.tolerance`` or more. Returns ``(centers, assignments)`` where
    ``centers`` has shape ``(k,)`` and ``assignments`` maps each point to the
    0-based cluster of the nearest center (ties to the lowest index); in exact
    arithmetic that is the cluster of maximal membership for every fuzziness.
    Raises ``ClusteringError`` when a cluster ends up with no hard members, so
    callers may retry with a new seed, or when the objective R rises on any
    center set, the last included. Warns with ``ConvergenceWarning`` when
    ``config.max_iterations`` pass without convergence; the last centers are
    still returned.
    """
    values = np.asarray(data, dtype=float).ravel()
    if values.size == 0:
        raise ClusteringError("cannot cluster an empty series")
    if not np.all(np.isfinite(values)):
        raise ClusteringError("data series contains non-finite values")
    if config.k > values.size:
        raise ClusteringError(
            f"cluster count {config.k} exceeds the {values.size} data point(s)"
        )

    rng = np.random.default_rng(config.seed)
    centers = _farthest_point_init(values, config.k, rng)
    work = np.empty((config.k, values.size))  # squared distances, then r, every pass
    ones_x = np.stack([np.ones_like(values), values])
    scaled = np.empty_like(ones_x)  # [1, x] * s ** -fuzziness

    prev_objective = shift = np.inf
    iteration = 0
    while True:
        np.subtract(centers[:, None], values[None, :], out=work)
        final = shift < config.tolerance or iteration == config.max_iterations
        if final:
            assignments = np.argmin(np.abs(work, out=work), axis=0)
        scale, objective = _reformulate(np.multiply(work, work, out=work), config.fuzziness)
        # R(V_t+1) <= J(U_t, V_t+1) <= R(V_t), so R must not rise. A NaN,
        # e.g. from squared distances that overflow, fails the test as well.
        if not objective <= prev_objective * (1.0 + 1e-12) + 1e-12:
            raise ClusteringError(
                f"fcm objective failed to decrease at iteration {iteration}: "
                f"{prev_objective!r} -> {objective!r}"
            )
        prev_objective = objective
        if final:
            break
        iteration += 1
        # U ** fuzziness = r ** fuzziness * scale, so one product gives mass and numerator.
        if config.fuzziness == 2.0:
            weights = np.multiply(work, work, out=work)
        else:
            weights = np.power(work, config.fuzziness, out=work)
        np.multiply(ones_x, scale, out=scaled)
        mass, numer = (weights @ scaled.T).T
        if np.any(mass == 0.0):
            raise ClusteringError("a cluster lost all membership mass; reseed and retry")
        new_centers = numer / mass
        shift = float(np.max(np.abs(new_centers - centers)))
        centers = new_centers
    if shift >= config.tolerance:
        warnings.warn(
            ConvergenceWarning(
                f"fuzzy c-means with k={config.k} did not converge in "
                f"{config.max_iterations} iterations: final center shift "
                f"{shift:.3g} is not below the tolerance {config.tolerance:g}"
            ),
            stacklevel=2,
        )

    counts = np.bincount(assignments, minlength=config.k)
    if np.any(counts == 0):
        empty = int(np.flatnonzero(counts == 0)[0])
        raise ClusteringError(
            f"cluster {empty} has no hard-assigned members; reseed and retry"
        )
    return centers, assignments


@dataclass(frozen=True)
class PatternClass:
    """One class of the space: 1-based id, span interval, cluster center."""

    id: int
    interval: Interval
    center: float

    def __post_init__(self):
        if self.id < 1:
            raise ValueError(f"class id must be >= 1, got {self.id}")


class PatternSpace:
    """An ordered collection of pattern classes over a scalar series.

    Classes are sorted by strictly ascending cluster center with ids
    ``1..cpms``; their interval lower bounds must be non-decreasing in the
    same order. Construction validates both, whether the classes come from
    clustering or from a serialized file.
    """

    __slots__ = ("_classes", "_lowers", "_uppers")

    def __init__(self, classes):
        classes = tuple(classes)
        if not classes:
            raise ClusteringError("a pattern space needs at least one class")
        ids = [cls.id for cls in classes]
        if ids != list(range(1, len(classes) + 1)):
            raise ClusteringError(f"class ids must run 1..{len(classes)} in order, got {ids}")
        centers = [cls.center for cls in classes]
        if any(b <= a for a, b in zip(centers, centers[1:])):
            raise ClusteringError(f"class centers must strictly ascend, got {centers}")
        lowers = [cls.interval.lower for cls in classes]
        if any(b < a for a, b in zip(lowers, lowers[1:])):
            raise ClusteringError(
                f"class interval lower bounds must be non-decreasing, got {lowers}"
            )
        self._classes = classes
        self._lowers = np.array(lowers)
        self._uppers = np.array([cls.interval.upper for cls in classes])
        self._lowers.setflags(write=False)
        self._uppers.setflags(write=False)

    @property
    def classes(self) -> tuple[PatternClass, ...]:
        return self._classes

    @property
    def cpms(self) -> int:
        """Cardinality of the pattern moving space (the class count)."""
        return len(self._classes)

    @property
    def lowers(self) -> np.ndarray:
        """Lower bounds of the class intervals in id order (read-only)."""
        return self._lowers

    @property
    def uppers(self) -> np.ndarray:
        """Upper bounds of the class intervals in id order (read-only)."""
        return self._uppers

    def classify_bounds(self, lower, upper) -> np.ndarray:
        """Ids of the classes Hausdorff-nearest to the intervals ``[lower[i], upper[i]]``.

        The distance to a class is ``max(|lower - class lower|, |upper -
        class upper|)``; ties resolve to the lowest id. Returns a 1-based
        integer array with the shape of ``lower``.
        """
        lower = np.asarray(lower, dtype=float).ravel()
        upper = np.asarray(upper, dtype=float).ravel()
        if lower.size != upper.size:
            raise ValueError(f"{lower.size} lower bounds but {upper.size} upper bounds")
        cpms = self._lowers.size
        rows = max(1, min(lower.size, _BLOCK_PAIRS // cpms))
        dist = np.empty((rows, cpms))
        other = np.empty((rows, cpms))
        ids = np.empty(lower.size, dtype=np.intp)
        for start in range(0, lower.size, rows):
            stop = min(start + rows, lower.size)
            d, o = dist[: stop - start], other[: stop - start]
            np.subtract.outer(lower[start:stop], self._lowers, out=d)
            np.abs(d, out=d)
            np.subtract.outer(upper[start:stop], self._uppers, out=o)
            np.abs(o, out=o)
            np.maximum(d, o, out=d)
            np.argmin(d, axis=1, out=ids[start:stop])
        ids += 1
        return ids

    def classify(self, x: Interval) -> int:
        """Id of the class whose interval is Hausdorff-nearest to ``x``.

        Ties resolve to the lowest id.
        """
        return int(self.classify_bounds(x.lower, x.upper)[0])

    def measure(self, class_id: int) -> Interval:
        """The stored interval of class ``class_id`` (1-based)."""
        if not 1 <= class_id <= len(self._classes):
            raise ValueError(
                f"class id {class_id} out of range 1..{len(self._classes)}"
            )
        return self._classes[class_id - 1].interval

    def encode_series(self, data) -> list[Interval]:
        """Map each scalar to the class interval nearest its degenerate embedding.

        A scalar ``x`` is treated as the interval ``[x, x]``, classified, and
        measured; the result list therefore contains only class intervals.
        """
        values = np.asarray(data, dtype=float).ravel()
        return [self._classes[i - 1].interval for i in self.classify_bounds(values, values)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, PatternSpace):
            return NotImplemented
        return self._classes == other._classes

    def __repr__(self) -> str:
        return f"PatternSpace(cpms={self.cpms})"

    def to_json(self) -> dict:
        return {
            "cpms": self.cpms,
            "classes": [
                {
                    "id": cls.id,
                    "lower": cls.interval.lower,
                    "upper": cls.interval.upper,
                    "center": cls.center,
                }
                for cls in self._classes
            ],
        }

    @classmethod
    def from_json(cls, doc) -> "PatternSpace":
        """The space of :meth:`to_json` output; a missing or mistyped field, or
        classes that do not form a valid space, is a ``DataError``."""
        classes = []
        for position, entry in enumerate(json_field(doc, "classes", list, "pattern space"), start=1):
            class_id, lower, upper, center = (
                json_field(entry, key, kind, f"pattern space class {position}")
                for key, kind in (("id", int), ("lower", float), ("upper", float), ("center", float))
            )
            classes.append(PatternClass(id=class_id, interval=Interval(lower, upper), center=center))
        declared = json_field(doc, "cpms", int, "pattern space")
        if declared != len(classes):
            raise DataError(
                f"pattern space: declared cpms {declared} does not match the {len(classes)} classes"
            )
        try:
            return cls(classes)
        except ClusteringError as exc:
            raise DataError(f"pattern space: {exc}") from None

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "PatternSpace":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))


def build_space(data, config: FcmConfig) -> PatternSpace:
    """Cluster a scalar series and assemble the ordered pattern space.

    Each cluster becomes a class spanning ``[min, max]`` of its hard
    members; classes are reordered by ascending center and renumbered.
    """
    values = np.asarray(data, dtype=float).ravel()
    centers, assignments = fcm_cluster(values, config)
    order = np.argsort(centers, kind="stable")
    classes = []
    for rank, idx in enumerate(order, start=1):
        members = values[assignments == idx]
        classes.append(
            PatternClass(
                id=rank,
                interval=Interval(members.min(), members.max()),
                center=float(centers[idx]),
            )
        )
    return PatternSpace(classes)
