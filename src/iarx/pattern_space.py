"""Pattern moving space: fuzzy c-means over a scalar series, class intervals.

A pattern space partitions a one-dimensional data series into ``k`` fuzzy
c-means clusters, hardens the memberships, and represents every class by
the closed interval spanning its members. Classes are kept sorted by
ascending cluster center and numbered ``1..k``; the class count is the
cardinality of the space.

Classification of an interval is nearest-neighbor under the Hausdorff
distance, and the space keeps its class bounds as read-only arrays, so an
interval taken from them by class id is bit-identical to that class's
interval.
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

# classify_bounds measures each interval against this many neighbouring
# classes, found through a uniform grid over the class lower bounds with this
# many cells per class. At 16 cells the window certifies every encoding and
# snap of the default series at each class count of the default sweep, raw
# and z-scored; at 4 or 8 a few rows fall back to the full scan.
_WINDOW = 3
_CELLS_PER_CLASS = 16

# The full scan, which settles the intervals a window cannot certify, measures
# this many (interval, class) distances at a time, so its work arrays stay
# cache-sized however many intervals reach it.
_BLOCK_PAIRS = 1 << 16


@dataclass(frozen=True)
class FcmConfig:
    """Fuzzy c-means settings; the cluster count is an argument of its own.

    ``tolerance`` bounds the maximum center movement between iterations at
    convergence.
    """

    fuzziness: float = 2.0
    tolerance: float = 1e-6
    max_iterations: int = 300
    seed: int = 0

    def __post_init__(self):
        if not 1.0 < self.fuzziness < np.inf:
            raise ValueError(f"fuzziness must exceed 1 and be finite, got {self.fuzziness!r}")
        if not self.tolerance > 0.0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance!r}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


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


def fcm_cluster(data, k: int, config: FcmConfig = FcmConfig()) -> tuple[np.ndarray, np.ndarray]:
    """Cluster a scalar series into ``k`` fuzzy c-means clusters, hardened.

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
    if k < 1:
        raise ValueError(f"cluster count must be >= 1, got {k}")
    if k > values.size:
        raise ClusteringError(f"cluster count {k} exceeds the {values.size} data point(s)")

    rng = np.random.default_rng(config.seed)
    centers = _farthest_point_init(values, k, rng)
    work = np.empty((k, values.size))  # squared distances, then r, every pass
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
                f"fuzzy c-means with k={k} did not converge in "
                f"{config.max_iterations} iterations: final center shift "
                f"{shift:.3g} is not below the tolerance {config.tolerance:g}"
            ),
            stacklevel=2,
        )

    counts = np.bincount(assignments, minlength=k)
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


class _WindowTable:
    """Where :meth:`PatternSpace.classify_bounds` looks for an interval's nearest class.

    A uniform grid spans ``[lo, hi]``, the first and last class lower
    bounds; cell ``c`` holds the lower bounds ``origin + [c, c + 1) / scale``.
    For the cell's midpoint, ``j`` is the last class whose lower bound does
    not exceed it, and the cell's window is the classes ``j - 1 .. j + 1``
    (shifted inside ``0 .. cpms - 1`` at either end). Per cell the table
    keeps the window's first class (``first``), the bounds of the window's
    classes in offset order (one row per offset), and the class lower bounds
    just outside the window (``left``, ``right``; infinite where the window
    reaches the first or last class).
    """

    __slots__ = ("lo", "hi", "origin", "scale", "first", "lowers", "uppers", "left", "right")

    def __init__(self, lowers: np.ndarray, uppers: np.ndarray):
        cpms = lowers.size
        width = min(_WINDOW, cpms)
        cells = _CELLS_PER_CLASS * cpms
        self.lo, self.hi = float(lowers[0]), float(lowers[-1])
        span = self.hi - self.lo
        scale = cells / span if span > 0.0 else 0.0
        if 0.0 < scale < np.inf:
            midpoints = self.lo + (np.arange(cells + 1) + 0.5) * (span / cells)
            start = np.searchsorted(lowers, midpoints, side="right") - 1 - width // 2
            self.origin, self.scale, self.first = self.lo, scale, np.clip(start, 0, cpms - width)
        else:  # a zero, vanishing or overflowing span: one cell, at the first class
            self.origin, self.scale, self.first = 0.0, 0.0, np.zeros(1, dtype=np.intp)
        window = self.first + np.arange(width)[:, None]
        self.lowers, self.uppers = lowers[window], uppers[window]
        padded = np.concatenate(([-np.inf], lowers, [np.inf]))
        self.left, self.right = padded[self.first], padded[self.first + width + 1]

    def classify(self, lower: np.ndarray, upper: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(index, certified)``: the 0-based nearest class within each
        interval's window, and whether no class outside it can win."""
        # fmax/fmin send NaN to the first cell, so the cast below never sees it.
        cell = np.fmax(lower, self.lo)
        np.fmin(cell, self.hi, out=cell)
        cell -= self.origin
        cell *= self.scale
        cell = cell.astype(np.intp)
        best = np.empty_like(lower)
        dist = np.empty_like(lower)
        other = np.empty_like(lower)
        offset = np.zeros(lower.size, dtype=np.int8)
        closer = np.empty(lower.size, dtype=bool)
        for i, (class_lowers, class_uppers) in enumerate(zip(self.lowers, self.uppers)):
            d = best if i == 0 else dist
            np.subtract(lower, class_lowers.take(cell), out=d)
            np.abs(d, out=d)
            np.subtract(upper, class_uppers.take(cell), out=other)
            np.abs(other, out=other)
            np.maximum(d, other, out=d)
            if i:
                np.less(dist, best, out=closer)
                np.copyto(offset, i, where=closer)
                np.minimum(best, dist, out=best)
        # An infinite bound meets an infinite sentinel as NaN, which certifies nothing.
        with np.errstate(invalid="ignore"):
            certified = np.subtract(lower, self.left.take(cell), out=dist) > best
            certified &= np.subtract(self.right.take(cell), lower, out=other) >= best
        index = self.first.take(cell)
        index += offset
        return index, certified


class PatternSpace:
    """An ordered collection of pattern classes over a scalar series.

    Classes are sorted by strictly ascending cluster center with ids
    ``1..cpms``; their interval lower bounds must be non-decreasing in the
    same order. Construction validates both, whether the classes come from
    clustering or from a serialized file.
    """

    __slots__ = ("_classes", "_lowers", "_uppers", "_window")

    def __init__(self, classes):
        classes = tuple(classes)
        if not classes:
            raise ClusteringError("a pattern space needs at least one class")
        ids = [cls.id for cls in classes]
        if ids != list(range(1, len(classes) + 1)):
            raise ClusteringError(f"class ids must run 1..{len(classes)} in order, got {ids}")
        centers = [cls.center for cls in classes]
        if not np.all(np.isfinite(centers)):
            raise ClusteringError(f"class centers must be finite, got {centers}")
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
        self._window = _WindowTable(self._lowers, self._uppers)

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

        Each interval is measured against the ``_WINDOW`` classes
        ``j - 1 .. j + 1``, where ``j`` is the last class whose lower bound
        does not exceed the midpoint of the grid cell that holds the
        interval's lower bound (see :class:`_WindowTable`), keeping the
        first strict minimum ``best``. Because the lower bounds do not
        decrease and rounded subtraction is monotone, every class left of
        the window is farther than ``best`` when ``lower`` minus the last
        lower bound before the window exceeds ``best``, and no class right
        of it is nearer when the first lower bound after the window minus
        ``lower`` is at least ``best``. Intervals that fail either test
        (overlapping or nested classes, wide intervals, non-finite bounds)
        are measured against every class, so the ids are always those of a
        full scan.
        """
        lower = np.asarray(lower, dtype=float).ravel()
        upper = np.asarray(upper, dtype=float).ravel()
        if lower.size != upper.size:
            raise ValueError(f"{lower.size} lower bounds but {upper.size} upper bounds")
        ids, certified = self._window.classify(lower, upper)
        stray = np.flatnonzero(~certified)
        if stray.size:
            ids[stray] = self._scan(lower[stray], upper[stray])
        ids += 1
        return ids

    def _scan(self, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
        """0-based index of the nearest class of every interval, measured against all classes."""
        cpms = self._lowers.size
        rows = max(1, min(lower.size, _BLOCK_PAIRS // cpms))
        dist = np.empty((rows, cpms))
        other = np.empty((rows, cpms))
        index = np.empty(lower.size, dtype=np.intp)
        for start in range(0, lower.size, rows):
            stop = min(start + rows, lower.size)
            d, o = dist[: stop - start], other[: stop - start]
            np.subtract.outer(lower[start:stop], self._lowers, out=d)
            np.abs(d, out=d)
            np.subtract.outer(upper[start:stop], self._uppers, out=o)
            np.abs(o, out=o)
            np.maximum(d, o, out=d)
            np.argmin(d, axis=1, out=index[start:stop])
        return index

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
            what = f"pattern space class {position}"
            class_id, lower, upper, center = (
                json_field(entry, key, kind, what)
                for key, kind in (("id", int), ("lower", float), ("upper", float), ("center", float))
            )
            try:
                classes.append(PatternClass(id=class_id, interval=Interval(lower, upper), center=center))
            except ValueError as exc:
                raise DataError(f"{what}: {exc}") from None
        declared = json_field(doc, "cpms", int, "pattern space")
        if declared != len(classes):
            raise DataError(
                f"pattern space: declared cpms {declared} does not match the {len(classes)} classes"
            )
        try:
            return cls(classes)
        except ClusteringError as exc:
            raise DataError(f"pattern space: {exc}") from None

    @classmethod
    def load(cls, path) -> "PatternSpace":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))


def build_space(data, k: int, config: FcmConfig = FcmConfig()) -> PatternSpace:
    """Cluster a scalar series into ``k`` classes and assemble the ordered pattern space.

    Each cluster becomes a class spanning ``[min, max]`` of its hard
    members; classes are reordered by ascending center and renumbered.
    """
    values = np.asarray(data, dtype=float).ravel()
    centers, assignments = fcm_cluster(values, k, config)
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
