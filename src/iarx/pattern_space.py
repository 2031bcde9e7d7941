"""Pattern moving space: fuzzy c-means over a scalar series, class intervals.

A pattern space partitions a one-dimensional data series into ``k`` fuzzy
c-means clusters, hardens the memberships, and represents every class by
the closed interval spanning its members. Classes are kept sorted by
ascending cluster center and numbered ``1..k``; the class count is the
cardinality of the space.

Classification of an interval is nearest-neighbor under the Hausdorff
distance, and the space keeps its class bounds as read-only arrays, so an
interval taken from them by class id is bit-identical to that class's
interval. The space keeps one uniform grid over its class extent
(``_GridTable``), and both searches read it. For a single value ``x``, the
degenerate interval ``[x, x]``, the nearest class is a step function of
``x``; a cell holds it where it is proven nearest for every float of the
cell, so a series is encoded with one cell computation and one lookup per
sample, and the other samples go to ``classify_bounds``. That measures an
interval against the three classes of the window of the cell that holds
its lower bound, and against every class where a certificate cannot rule
the others out; either way the ids are those of a full scan.
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
# classes, the window of the grid cell that holds its lower bound.
_WINDOW = 3

# The full scan, which settles the intervals a window cannot certify, measures
# this many (interval, class) distances at a time, so its work arrays stay
# cache-sized however many intervals reach it.
_BLOCK_PAIRS = 1 << 16

# A space keeps one uniform grid over its class extent with this many cells
# per class (see _GridTable), and reads a sample's class and an interval's
# window from it. At 64 cells about 3 % of the samples of the default series
# land in a cell that a class boundary crosses and need one more comparison,
# at 16 cells 12 %; the build of a finer grid costs more in every space.
_GRID_CELLS = 64
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)


@dataclass(frozen=True)
class FcmConfig:
    """Fuzzy c-means settings; the cluster count is an argument of its own.

    ``tolerance`` bounds the largest center movement of the last plain step,
    and ``max_iterations`` caps the passes over the data (see ``fcm_cluster``).
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

    Iterates the centers-only form ``V -> T(V)`` of the alternating update of
    Bezdek, Ehrlich & Full (1984), which never raises the objective R (see
    ``_reformulate``), in SQUAREM cycles (Varadhan & Roland 2008): plain steps
    ``V1 = T(V0)``, ``V2 = T(V1)``, then ``Vp = V0 + 2a r + a^2 v`` with ``r =
    V1 - V0``, ``v = V2 - V1 - r``, ``a = clip(|r| / |v|, 1, smax)``; ``smax``
    starts at 1, doubles when an accepted ``a`` reached it, halves on each
    rejection. ``Vp`` starts the next cycle if it keeps the strict center
    order of ``V2`` inside the data range, moves each boundary count (points
    below the midpoint of two neighbouring centers) the way ``V0 -> V2`` did
    or not at all, and has ``R(Vp) <= R(V1)``; else ``V2`` does. It stops
    once a plain step moves no center by ``config.tolerance`` or more.

    Returns ``(centers, assignments)`` where ``centers`` has shape ``(k,)``
    and ``assignments`` maps each point to the 0-based cluster of the nearest
    center (ties to the lowest index); in exact arithmetic that is the
    cluster of maximal membership for every fuzziness. Raises ``DataError``
    naming the first non-finite point, or for more clusters than points;
    ``ClusteringError`` when a cluster ends up with no hard members or no
    membership mass, so callers may retry with a new seed, or when R rises on
    any accepted center set, the last included. Warns with
    ``ConvergenceWarning`` when ``config.max_iterations`` passes over the k x
    N distances, one per center set measured (a rejected ``Vp`` included),
    run out before convergence; the last centers are still returned.
    """
    values = np.asarray(data, dtype=float).ravel()
    if values.size == 0:
        raise ClusteringError("cannot cluster an empty series")
    if not np.isfinite(values).all():
        raise DataError(f"data sample {np.flatnonzero(~np.isfinite(values))[0]} is not finite")
    if k < 1:
        raise ValueError(f"cluster count must be >= 1, got {k}")
    if k > values.size:
        raise DataError(f"cluster count {k} exceeds the {values.size} data point(s)")

    rng = np.random.default_rng(config.seed)
    work = np.empty((k, values.size))  # squared distances, then r, every pass
    ones_x = np.stack([np.ones_like(values), values])
    scaled = np.empty_like(ones_x)  # [1, x] * s ** -fuzziness
    ordered = np.sort(values)

    prev_objective = shift = np.inf
    iteration, bound, a = 0, 1.0, 0.0
    cycle = [_farthest_point_init(values, k, rng)]  # V0, V1, V2, then Vp on trial
    while True:
        centers = cycle[-1]
        np.subtract(centers[:, None], values[None, :], out=work)
        final = shift < config.tolerance or iteration == config.max_iterations
        if final:
            assignments = np.argmin(np.abs(work, out=work), axis=0)
        scale, objective = _reformulate(np.multiply(work, work, out=work), config.fuzziness)
        if len(cycle) == 4 and not objective <= prev_objective:  # R(Vp) > R(V1)
            cycle, iteration, bound = cycle[2:3], iteration + 1, 0.5 * bound
            continue
        # R(T(V)) <= J(U, T(V)) <= R(V), so R must not rise. A NaN, e.g. from
        # squared distances that overflow, fails the test as well.
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
        if len(cycle) == 4:  # Vp is accepted and starts the next cycle
            bound *= 2.0 if a == bound else 1.0
            del cycle[:3]
        cycle.append(numer / mass)
        shift = float(np.max(np.abs(cycle[-1] - cycle[-2])))
        if len(cycle) < 3 or shift < config.tolerance or iteration == config.max_iterations:
            continue
        v0, v1, v2 = cycle
        r, v = v1 - v0, (v2 - v1) - (v1 - v0)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            a = min(max(float(np.sqrt((r @ r) / (v @ v))), 1.0), bound)
            trial = v0 + (2.0 * a) * r + (a * a) * v
        order = np.argsort(v2)
        ascending = trial[order]
        if ordered[0] <= ascending[0] <= ascending[-1] <= ordered[-1] and (ascending[1:] > ascending[:-1]).all():
            # boundary counts of V0, V2 and Vp: the points below the midpoint of two neighbouring centers
            c = np.stack((np.sort(v0), v2[order], ascending))
            moved, step = np.sign(np.diff(np.searchsorted(ordered, 0.5 * (c[:, 1:] + c[:, :-1])), axis=0))
            if ((step == 0) | (step == moved)).all():
                cycle.append(trial)
                continue
        cycle, bound = cycle[2:], 0.5 * bound
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


class _GridTable:
    """One uniform grid over the class extent: per cell, an encoding code and a snap window.

    The grid spans ``[origin, top]``, the class extent ``[L_1, U_k]`` widened
    by two cells at either end, and maps ``x`` to the cell ``int((clip(x) -
    origin) * scale)``; NaN and values beyond the grid land in the first or
    the last cell. The map is monotone in ``x``. A zero or non-finite span
    leaves a single cell.

    Window. Per cell the table keeps the classes that
    :meth:`PatternSpace.classify_bounds` tries first for an interval whose
    lower bound lies in the cell: the id of the first (``first``), their
    upper bounds (``window_uppers``, one row per offset), and their lower
    bounds between the class lower bounds just outside them
    (``window_lowers``; infinite past the first or the last class). As
    ``classify_bounds`` certifies each answer, no window needs a code.

    Encoding. The distance of ``[x, x]`` to class ``j`` rounds to
    ``max(fl(x - L_j), fl(U_j - x))``. When the class bounds ``L`` and ``U``
    both strictly increase, class ``j`` is the nearest in exact arithmetic
    on ``(t_{j-1}, t_j]``, where ``t_j = (L_j + U_{j+1}) / 2``, and any other
    class is farther by at least ``min(2 |x - t|, s)``, with ``t`` the
    breakpoint next to the nearest class on that class's side and ``s`` the
    least step of ``L`` or ``U``. For ``x`` in ``[origin, top]`` the two
    rounded distances of a comparison err by less than ``E = 2 eps
    (|origin| + |top|)`` together; ``E`` also adds the least normal float,
    which bounds the error of halving a subnormal ``t_j``. So where every
    step exceeds ``2 E``, the rounded argmin (ties to the lowest id) is the
    exact one at every ``x`` at least ``2 E`` from every breakpoint; where
    only ``t_j`` is nearer, only classes ``j`` and ``j + 1`` can win, and
    ``j`` wins exactly when ``fl(x - L_j) <= fl(U_{j+1} - x)``. The cells
    that can hold a value within ``2 E`` of ``t_j`` run from the cell of
    ``t_j - 2 E`` to that of ``t_j + 2 E``, computed by the same map. With
    ``b`` the breakpoints wholly below a cell and ``r`` those that reach it,
    ``code`` holds ``b - k r``: the 0-based class ``b`` when ``r = 0``; ``b
    - k``, in ``[-k, -1]``, when ``t_b`` alone reaches it; and less than
    ``-k`` for cells that two breakpoints reach, the first and the last
    cell, and every cell of a space with a step of ``2 E`` or less.
    """

    __slots__ = ("origin", "top", "scale", "code", "lowers", "uppers", "first", "window_lowers", "window_uppers")

    def __init__(self, lowers: np.ndarray, uppers: np.ndarray):
        self.lowers, self.uppers = lowers, uppers
        k = lowers.size
        cells = _GRID_CELLS * k
        span = float(uppers[-1] - lowers[0])
        pad = 2.0 * span / cells
        origin, top = float(lowers[0]) - pad, float(uppers[-1]) + pad
        scale = cells / span if span > 0.0 else 0.0
        if not (0.0 < scale < np.inf and top - origin < np.inf):  # a zero or non-finite span: one cell
            origin = top = scale = 0.0
        self.origin, self.top, self.scale = origin, top, scale
        size = int((top - origin) * scale) + 1  # the map of top, as _cells computes it
        width = min(_WINDOW, k)
        midpoints = origin + (np.arange(size) + 0.5) * (span / cells)
        start = np.searchsorted(lowers, midpoints, side="right") - width // 2
        self.first = np.clip(start, 1, k - width + 1)
        # the window's class ids; window_lowers adds the lower bound before and after it as rows
        rows = self.first + np.arange(-1, width + 1)[:, None]
        self.window_lowers = np.concatenate(([-np.inf], lowers, [np.inf]))[rows]
        self.window_uppers = uppers[rows[1:-1] - 1]
        rounding = 2.0 * _EPS * (abs(origin) + abs(top)) + _TINY
        steps = np.minimum(lowers[1:] - lowers[:-1], uppers[1:] - uppers[:-1])
        if not (scale and (steps > 2.0 * rounding).all()):
            self.code = np.full(size, -2 * k, dtype=np.intp)
            return
        breaks = 0.5 * (lowers[:-1] + uppers[1:])
        low, high = self._cells(np.add.outer((-2.0 * rounding, 2.0 * rounding), breaks))
        # a breakpoint reaches the cells low .. high; b counts those with high
        # below a cell and r + b those with low not above it, so b - k r =
        # (k + 1) b - k (r + b) is one running sum over the cells
        ended = np.bincount(high + 1, minlength=size)[:size]
        code = np.add.accumulate((k + 1) * ended - k * np.bincount(low, minlength=size))
        code[0] = code[-1] = -2 * k
        self.code = code

    def _cells(self, x: np.ndarray) -> np.ndarray:
        # fmax/fmin send NaN to the first cell, so the cast never sees it
        cell = np.fmax(x, self.origin)
        np.fmin(cell, self.top, out=cell)
        cell -= self.origin
        cell *= self.scale
        return cell.astype(np.intp)

    def encode(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(index, stray)``: the 0-based nearest class of each ``[x, x]``, and the
        positions the table cannot settle, whose index is negative."""
        index = self.code.take(self._cells(x))
        stray = np.flatnonzero(index < 0)
        if stray.size:
            j = index[stray] + self.lowers.size
            split = j >= 0
            at, j = stray[split], j[split]
            point = x[at]
            index[at] = j + (point - self.lowers.take(j) > self.uppers.take(j + 1) - point)
            stray = stray[~split]
        return index, stray


class PatternSpace:
    """An ordered collection of pattern classes over a scalar series.

    Classes are sorted by strictly ascending cluster center with ids
    ``1..cpms``; their interval lower bounds must be non-decreasing in the
    same order. Construction validates both, whether the classes come from
    clustering or from a serialized file.
    """

    __slots__ = ("_classes", "_lowers", "_uppers", "_grid")

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
        top = float(self._uppers.max())
        with np.errstate(over="ignore"):  # the grid spans the extent and the encoding halves L + U
            if not (top - lowers[0] < np.inf and np.isfinite(self._lowers + self._uppers).all()):
                raise ClusteringError(f"class bounds from {lowers[0]!r} to {top!r} overflow a float")
        self._lowers.setflags(write=False)
        self._uppers.setflags(write=False)
        self._grid = _GridTable(self._lowers, self._uppers)

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
        ``j - 1 .. j + 1`` (shifted inside ``1 .. cpms`` at either end),
        where ``j`` is the last class whose lower bound does not exceed the
        midpoint of the cell of the space's grid that holds the interval's
        lower bound (see :class:`_GridTable`), keeping the first strict
        minimum ``best``. Because the lower bounds do not decrease and
        rounded subtraction is monotone, every class left of the window is
        farther than ``best`` when ``lower`` minus the last lower bound
        before the window exceeds ``best``, and no class right of it is
        nearer when the first lower bound after the window minus ``lower``
        is at least ``best``. Intervals that fail either test (overlapping
        or nested classes, wide intervals, non-finite bounds) are measured
        against every class, so the ids are always those of a full scan.
        """
        lower = np.asarray(lower, dtype=float).ravel()
        upper = np.asarray(upper, dtype=float).ravel()
        if lower.size != upper.size:
            raise ValueError(f"{lower.size} lower bounds but {upper.size} upper bounds")
        grid = self._grid
        cell = grid._cells(lower)
        best = np.empty_like(lower)
        dist = np.empty_like(lower)
        other = np.empty_like(lower)
        offset = np.zeros(lower.size, dtype=np.int8)
        closer = np.empty(lower.size, dtype=bool)
        for i, (class_lowers, class_uppers) in enumerate(zip(grid.window_lowers[1:-1], grid.window_uppers)):
            d = best if i == 0 else dist
            np.subtract(lower, class_lowers.take(cell), out=d)
            np.abs(d, out=d)
            np.subtract(upper, class_uppers.take(cell), out=other)
            np.abs(other, out=other)
            np.maximum(d, other, out=d)
            if i:
                np.less(dist, best, out=closer)
                np.maximum(offset, closer.view(np.int8) * np.int8(i), out=offset)
                np.minimum(best, dist, out=best)
        # An infinite bound meets an infinite sentinel as NaN, which certifies nothing.
        with np.errstate(invalid="ignore"):
            certified = np.subtract(lower, grid.window_lowers[0].take(cell), out=dist) > best
            certified &= np.subtract(grid.window_lowers[-1].take(cell), lower, out=other) >= best
        ids = grid.first.take(cell)
        ids += offset
        stray = np.flatnonzero(~certified)
        if stray.size:
            ids[stray] = self._scan(lower[stray], upper[stray]) + 1
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
