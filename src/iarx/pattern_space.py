"""Pattern moving space: fuzzy c-means over a scalar series, class intervals.

A pattern space partitions a one-dimensional data series into ``k`` fuzzy
c-means clusters, hardens the memberships, and represents every class by
the closed interval spanning its members. Classes are kept sorted by
ascending cluster center and numbered ``1..k``; the class count is the
cardinality of the space.

Classification of an interval is nearest-neighbor under the Hausdorff
distance, and the space keeps its class bounds as read-only arrays, so an
interval taken from them by class id is bit-identical to that class's
interval. The space keeps one uniform grid over its class extent, and
both searches read it. For a single value ``x``, the degenerate interval
``[x, x]``, the nearest class is a step function of ``x``; a cell holds it
where it is proven nearest for every float of the cell, so
``classify_points`` encodes a series with one cell computation and one
lookup per sample, and sends the other samples to ``classify_bounds``.
That measures an interval against the pair of classes of the cell that
holds its lower bound, and against every class where a certificate cannot
rule the others out; either way the ids are those of a full scan.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ClusteringError, ConvergenceWarning, DataError, integer, json_fields, read_json
from .intervals import Interval

__all__ = ["FcmConfig", "PatternClass", "PatternSpace", "fcm_cluster", "build_space"]

# The full scan, which settles the intervals a pair cannot certify, measures
# this many (interval, class) distances at a time, so its work arrays stay
# cache-sized however many intervals reach it.
_BLOCK_PAIRS = 1 << 16

# A space keeps one uniform grid over its class extent with this many cells
# per class (see PatternSpace), and reads a sample's class and an interval's
# pair from it. At 64 cells about 3 % of the samples of the default series
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
        object.__setattr__(self, "max_iterations", integer(self.max_iterations, "max_iterations", 1))
        object.__setattr__(self, "seed", integer(self.seed, "seed", 0))


def _farthest_point_init(ordered: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Pick k distinct values of the sorted series ``ordered``: a seeded start, then greedy farthest points."""
    keep = np.empty(ordered.size, dtype=bool)  # the first of each run of equal values, as np.unique keeps
    keep[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    distinct = ordered[keep]
    if distinct.size < k:
        raise ClusteringError(f"cannot seed {k} clusters from {distinct.size} distinct value(s)")
    centers = np.empty(k)
    centers[0] = distinct[rng.integers(distinct.size)]
    min_dist = np.abs(distinct - centers[0])
    for i in range(1, k):
        centers[i] = distinct[min_dist.argmax()]
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
    exact = not nearest.all()  # some point sits on a center
    if exact:
        on_center = np.flatnonzero(nearest == 0.0)
        rows = np.argmax(d2[:, on_center] == 0.0, axis=0)
        d2[:, on_center] = 1.0
    # Ratios to the nearest center lie in [0, 1], so the powers cannot overflow.
    r = np.divide(nearest, d2, out=d2)
    if exact:
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

    Returns ``(centers, counts)``: the ``k`` centers in ascending order and
    the sizes of their hard clusters, the runs of the sorted series between
    the midpoints of neighbouring centers (a point on a midpoint joins the
    upper run); in exact arithmetic a run holds the points nearest its
    center, the cluster of maximal membership for every fuzziness. Raises
    ``DataError`` naming the first non-finite point, or for more clusters
    than points; ``ClusteringError`` when a cluster ends up with no hard
    members or no membership mass, so callers may retry with a new seed, or
    when R rises on any accepted center set, the last included. Warns with
    ``ConvergenceWarning`` when ``config.max_iterations`` passes over the k x
    N distances, one per center set measured (a rejected ``Vp`` included),
    run out before convergence; the last centers are still returned.
    """
    values = np.asarray(data, dtype=float).ravel()
    if values.size == 0:
        raise ClusteringError("cannot cluster an empty series")
    if not np.isfinite(values).all():
        raise DataError(f"data sample {np.flatnonzero(~np.isfinite(values))[0]} is not finite")
    k = integer(k, "cluster count", 1)
    if k > values.size:
        raise DataError(f"cluster count {k} exceeds the {values.size} data point(s)")

    rng = np.random.default_rng(config.seed)
    work = np.empty((k, values.size))  # c - x, squared distances, then r, every pass
    ones_x = np.stack([np.ones_like(values), values])
    scaled = np.empty_like(ones_x)  # [1, x] * s ** -fuzziness
    ordered = np.sort(values)

    def below_midpoints(ascending):  # boundary counts: points below the midpoint of two neighbouring centers
        return ordered.searchsorted(0.5 * (ascending[1:] + ascending[:-1]))

    prev_objective = shift = np.inf
    iteration, bound, a = 0, 1.0, 0.0
    cycle = [_farthest_point_init(ordered, k, rng)]  # V0, V1, V2, then Vp on trial
    below = below_midpoints(np.sort(cycle[0]))  # of V0, carried from cycle to cycle
    while True:
        centers = cycle[-1]
        np.copyto(work, centers[:, None])  # then subtracting x row by row beats a column-row broadcast
        np.subtract(work, values, out=work)
        final = shift < config.tolerance or iteration == config.max_iterations
        scale, objective = _reformulate(np.multiply(work, work, out=work), config.fuzziness)
        if len(cycle) == 4 and not objective <= prev_objective:  # R(Vp) > R(V1)
            cycle, iteration, bound, below = cycle[2:3], iteration + 1, 0.5 * bound, below_v2
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
        if not mass.all():
            raise ClusteringError("a cluster lost all membership mass; reseed and retry")
        if len(cycle) == 4:  # Vp is accepted and starts the next cycle
            bound *= 2.0 if a == bound else 1.0
            del cycle[:3]
            below = below_vp
        cycle.append(numer / mass)
        delta = cycle[-1] - cycle[-2]  # V2 - V1 in a full cycle
        shift = float(np.abs(delta).max())
        if len(cycle) < 3 or shift < config.tolerance or iteration == config.max_iterations:
            continue
        v0, v1, v2 = cycle
        r = v1 - v0
        v = delta - r
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            a = min(max(float(np.sqrt((r @ r) / (v @ v))), 1.0), bound)
            trial = v0 + (2.0 * a) * r + (a * a) * v
        order = v2.argsort()
        ascending = trial[order]
        below_v2 = below_midpoints(v2[order])  # of the next V0, unless Vp is accepted
        if ordered[0] <= ascending[0] <= ascending[-1] <= ordered[-1] and (ascending[1:] > ascending[:-1]).all():
            below_vp = below_midpoints(ascending)
            moved, step = np.sign(below_v2 - below), np.sign(below_vp - below_v2)
            if ((step == 0) | (step == moved)).all():
                cycle.append(trial)
                continue
        cycle, bound, below = cycle[2:], 0.5 * bound, below_v2
    if shift >= config.tolerance:
        warnings.warn(
            ConvergenceWarning(
                f"fuzzy c-means with k={k} did not converge in "
                f"{config.max_iterations} iterations: final center shift "
                f"{shift:.3g} is not below the tolerance {config.tolerance:g}"
            ),
            stacklevel=2,
        )

    centers = np.sort(centers)
    counts = np.diff(below_midpoints(centers), prepend=0, append=values.size)
    if not counts.all():
        raise ClusteringError(f"cluster {np.argmin(counts)} has no hard-assigned members; reseed and retry")
    return centers, counts


@dataclass(frozen=True)
class PatternClass:
    """One class of the space: 1-based id, span interval, cluster center.

    Only :attr:`PatternSpace.classes` builds these, as a view of the arrays.
    """

    id: int
    interval: Interval
    center: float


class PatternSpace:
    """An ordered collection of pattern classes over a scalar series.

    The space is three read-only arrays of equal length: the lower and upper
    bounds of the class intervals and the cluster centers, class ``j`` at
    index ``j - 1``. Construction copies them and checks, whether the
    classes come from clustering or from a serialized file, that there is at
    least one class, that every bound is finite with lower <= upper, that
    the centers are finite and strictly ascend, that the lower bounds do not
    decrease, and that the class extent does not overflow a float.

    Grid. The space keeps one uniform grid over its class extent, with an
    encoding code and a snap pair per cell. The grid spans ``[_origin,
    _top]``, the class extent ``[L_1, U_k]`` widened by two cells at either
    end, and maps ``x`` to the cell ``int((clip(x) - _origin) * _scale)``;
    NaN and values beyond the grid land in the first or the last cell. The
    map is monotone in ``x``. A zero or non-finite span leaves a single cell.

    Pair. Per cell the space keeps the two classes ``j, j + 1`` that
    :meth:`classify_bounds` measures for an interval whose lower bound lies
    in the cell, ``j`` the last class whose lower bound does not exceed the
    cell's midpoint, clipped to ``1 .. k - 1``: ``_first`` holds ``j - 1``.
    The search reads ``U_j, U_{j+1}`` from ``uppers`` and ``L_{j-1} ..
    L_{j+2}`` from ``_padded = [-inf, L_1 .. L_k, +inf]``, whose interior
    is ``lowers``. As ``classify_bounds`` certifies each answer, no pair
    needs a code.

    Encoding. The distance of ``[x, x]`` to class ``j`` rounds to
    ``max(fl(x - L_j), fl(U_j - x))``. When the class bounds ``L`` and ``U``
    both strictly increase, class ``j`` is the nearest in exact arithmetic
    on ``(t_{j-1}, t_j]``, where ``t_j = (L_j + U_{j+1}) / 2``, and any other
    class is farther by at least ``min(2 |x - t|, s)``, with ``t`` the
    breakpoint next to the nearest class on that class's side and ``s`` the
    least step of ``L`` or ``U``. For ``x`` in ``[_origin, _top]`` the two
    rounded distances of a comparison err by less than ``E = 2 eps
    (|_origin| + |_top|)`` together; ``E`` also adds the least normal float,
    which bounds the error of halving a subnormal ``t_j``. So where every
    step exceeds ``2 E``, the rounded argmin (ties to the lowest id) is the
    exact one at every ``x`` at least ``2 E`` from every breakpoint; where
    only ``t_j`` is nearer, only classes ``j`` and ``j + 1`` can win, and
    ``j`` wins exactly when ``fl(x - L_j) <= fl(U_{j+1} - x)``. The cells
    that can hold a value within ``2 E`` of ``t_j`` run from the cell of
    ``t_j - 2 E`` to that of ``t_j + 2 E``, computed by the same map. With
    ``b`` the breakpoints wholly below a cell and ``r`` those that reach it,
    ``_code`` holds ``b - k r``: the 0-based class ``b`` when ``r = 0``; ``b
    - k``, in ``[-k, -1]``, when ``t_b`` alone reaches it; and less than
    ``-k`` for cells that two breakpoints reach, the first and the last
    cell, and every cell of a space with a step of ``2 E`` or less.
    """

    __slots__ = ("_lowers", "_padded", "_uppers", "_centers", "_classes", "_origin", "_top", "_scale", "_code", "_first")

    def __init__(self, lowers, uppers, centers):
        arrays = lowers, uppers, centers = [np.array(a, dtype=float) for a in (lowers, uppers, centers)]
        if not lowers.shape == uppers.shape == centers.shape == (centers.size,):
            raise ClusteringError(f"bounds and centers must be 1-D and of one length, got {[a.shape for a in arrays]}")
        if not centers.size:
            raise ClusteringError("a pattern space needs at least one class")
        bad = np.flatnonzero(~(np.isfinite(lowers) & np.isfinite(uppers) & (lowers <= uppers)))
        if bad.size:
            j = bad[0]
            raise ClusteringError(
                f"class {j + 1} bounds must be finite with lower <= upper, got [{lowers[j]}, {uppers[j]}]"
            )
        if not np.isfinite(centers).all():
            raise ClusteringError(f"class centers must be finite, got {centers.tolist()}")
        if not (centers[1:] > centers[:-1]).all():
            raise ClusteringError(f"class centers must strictly ascend, got {centers.tolist()}")
        if not (lowers[1:] >= lowers[:-1]).all():
            raise ClusteringError(
                f"class interval lower bounds must be non-decreasing, got {lowers.tolist()}"
            )
        bottom, top = float(lowers[0]), float(uppers.max())
        with np.errstate(over="ignore"):  # the grid spans the extent and the encoding halves L + U
            if not (top - bottom < np.inf and np.isfinite(lowers + uppers).all()):
                raise ClusteringError(f"class bounds from {bottom!r} to {top!r} overflow a float")
        self._padded = np.concatenate(([-np.inf], lowers, [np.inf]))
        for a in (self._padded, uppers, centers):
            a.setflags(write=False)
        self._lowers, self._uppers, self._centers = self._padded[1:-1], uppers, centers
        self._classes = None
        k = lowers.size
        cells = _GRID_CELLS * k
        span = float(uppers[-1] - lowers[0])
        pad = 2.0 * span / cells
        origin, top = float(lowers[0]) - pad, float(uppers[-1]) + pad
        scale = cells / span if span > 0.0 else 0.0
        if not (0.0 < scale < np.inf and top - origin < np.inf):  # a zero or non-finite span: one cell
            origin = top = scale = 0.0
        self._origin, self._top, self._scale = origin, top, scale
        size = int((top - origin) * scale) + 1  # the map of top, as _cells computes it
        midpoints = origin + (np.arange(size) + 0.5) * (span / cells)
        # a one-class space has no pair and reads none of these
        self._first = np.clip(np.searchsorted(lowers, midpoints, side="right"), 1, k - 1) - 1
        rounding = 2.0 * _EPS * (abs(origin) + abs(top)) + _TINY
        steps = np.minimum(lowers[1:] - lowers[:-1], uppers[1:] - uppers[:-1])
        if not (scale and (steps > 2.0 * rounding).all()):
            self._code = np.full(size, -2 * k, dtype=np.intp)
            return
        breaks = 0.5 * (lowers[:-1] + uppers[1:])
        low, high = self._cells(np.add.outer((-2.0 * rounding, 2.0 * rounding), breaks))
        # a breakpoint reaches the cells low .. high; b counts those with high
        # below a cell and r + b those with low not above it, so b - k r =
        # (k + 1) b - k (r + b) is one running sum over the cells
        ended = np.bincount(high + 1, minlength=size)[:size]
        code = np.add.accumulate((k + 1) * ended - k * np.bincount(low, minlength=size))
        code[0] = code[-1] = -2 * k
        self._code = code

    @property
    def classes(self) -> tuple[PatternClass, ...]:
        """The classes as objects, built from the arrays on first access."""
        if self._classes is None:
            self._classes = tuple(
                PatternClass(c["id"], Interval(c["lower"], c["upper"]), c["center"]) for c in self.to_json()["classes"]
            )
        return self._classes

    @property
    def cpms(self) -> int:
        """Cardinality of the pattern moving space (the class count)."""
        return self._lowers.size

    @property
    def lowers(self) -> np.ndarray:
        """Lower bounds of the class intervals in id order (read-only)."""
        return self._lowers

    @property
    def uppers(self) -> np.ndarray:
        """Upper bounds of the class intervals in id order (read-only)."""
        return self._uppers

    @property
    def centers(self) -> np.ndarray:
        """Cluster centers of the classes in id order (read-only)."""
        return self._centers

    def classify_points(self, x) -> np.ndarray:
        """Ids of the classes Hausdorff-nearest to the degenerate intervals ``[x[i], x[i]]``.

        The ids of ``classify_bounds(x, x)``, flattened alike: a sample's class
        is read from the code of its grid cell, with one comparison of two
        classes where a single breakpoint reaches the cell, and the samples no
        code settles go to :meth:`classify_bounds`.
        """
        x = np.asarray(x, dtype=float).ravel()
        index = self._code.take(self._cells(x))
        stray = np.flatnonzero(index < 0)
        j = index[stray] + self._lowers.size
        split = j >= 0
        at, j = stray[split], j[split]
        point = x[at]
        index[at] = j + (point - self._lowers.take(j) > self._uppers.take(j + 1) - point)
        stray = stray[~split]
        if stray.size:
            index[stray] = self.classify_bounds(x[stray], x[stray]) - 1
        return index + 1

    def classify_bounds(self, lower, upper) -> np.ndarray:
        """Ids of the classes Hausdorff-nearest to the intervals ``[lower[i], upper[i]]``.

        The distance to a class is ``max(|lower - class lower|, |upper -
        class upper|)``; ties resolve to the lowest id. The bounds are
        flattened, so the 1-based ids form a 1-D array of ``lower.size``:
        shape ``(6,)`` for bounds of shape ``(2, 3)``, ``(1,)`` for scalars.

        An interval is measured against the pair of classes ``j, j + 1``,
        where ``j`` is the last class whose lower bound does not exceed the
        midpoint of the grid cell that holds the interval's lower bound,
        clipped to ``1 .. cpms - 1`` (see the class docstring); ``best`` is
        the nearer of the two distances, the first on a tie. As the lower
        bounds do not decrease and rounded subtraction is monotone, no class
        left of the pair is as near when ``lower - L_{j-1}`` exceeds
        ``best``, nor right of it nearer when ``L_{j+2} - lower`` is at least
        ``best``. The intervals this leaves (overlapping or nested classes,
        wide intervals, non-finite bounds) are measured against every class,
        so the ids are always those of a full scan. A one-class space has no
        pair and answers 1 for every interval.
        """
        lower = np.asarray(lower, dtype=float).ravel()
        upper = np.asarray(upper, dtype=float).ravel()
        if lower.size != upper.size:
            raise ValueError(f"{lower.size} lower bounds but {upper.size} upper bounds")
        if self.cpms == 1:
            return np.ones(lower.size, dtype=np.intp)
        ids, certified = self._nearest_pair(lower, upper)
        stray = np.flatnonzero(~certified)
        if stray.size:
            ids[stray] = self._scan(lower[stray], upper[stray]) + 1
        return ids

    def _cells(self, x: np.ndarray) -> np.ndarray:
        # fmax/fmin send NaN to the first cell, so the cast never sees it
        cell = np.fmax(x, self._origin)
        np.fmin(cell, self._top, out=cell)
        cell -= self._origin
        cell *= self._scale
        return cell.astype(np.intp)

    def _nearest_pair(self, lower: np.ndarray, upper: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(ids, certified)``: the class of its cell's pair nearest each interval (the
        first on a tie), and where no other class can be nearer."""
        first = self._first.take(self._cells(lower))  # j - 1, so _padded[o:] gives L_{j-1+o}
        padded, uppers = self._padded, self._uppers
        # every index is in range, so mode="clip" changes none and lets take fill a buffer
        best, dist, other = np.empty_like(lower), np.empty_like(lower), np.empty_like(lower)
        for o, d in enumerate((best, dist)):
            np.subtract(lower, padded[o + 1 :].take(first, out=d, mode="clip"), out=d)
            np.abs(d, out=d)
            np.subtract(upper, uppers[o:].take(first, out=other, mode="clip"), out=other)
            np.abs(other, out=other)
            np.maximum(d, other, out=d)
        second = dist < best
        np.minimum(best, dist, out=best)
        padded.take(first, out=dist, mode="clip")
        padded[3:].take(first, out=other, mode="clip")
        # An infinite bound meets an infinite sentinel as NaN, which certifies nothing.
        with np.errstate(invalid="ignore"):
            certified = np.subtract(lower, dist, out=dist) > best
            certified &= np.subtract(other, lower, out=other) >= best
        first += 1  # the id of class j
        first += second
        return first, certified

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
        return self.to_json() == other.to_json()

    def __repr__(self) -> str:
        return f"PatternSpace(cpms={self.cpms})"

    def to_json(self) -> dict:
        return {
            "cpms": self.cpms,
            "classes": [
                {"id": j, "lower": lower, "upper": upper, "center": center}
                for j, (lower, upper, center) in enumerate(
                    zip(self._lowers.tolist(), self._uppers.tolist(), self._centers.tolist()), start=1
                )
            ],
        }

    @classmethod
    def from_json(cls, doc) -> "PatternSpace":
        """The space of :meth:`to_json` output; a missing, mistyped or unknown
        field, or classes that do not form a valid space, is a ``DataError``."""
        declared, classes = json_fields(doc, {"cpms": int, "classes": list}, "pattern space")
        ids, bounds = [], []
        for position, entry in enumerate(classes, start=1):
            class_id, *row = json_fields(
                entry, {"id": int, "lower": float, "upper": float, "center": float}, f"pattern space class {position}"
            )
            ids.append(class_id)
            bounds.append(row)
        if declared != len(ids):
            raise DataError(
                f"pattern space: declared cpms {declared} does not match the {len(ids)} classes"
            )
        if ids != list(range(1, len(ids) + 1)):
            raise DataError(f"pattern space: class ids must run 1..{len(ids)} in order, got {ids}")
        try:
            return cls(*np.array(bounds, dtype=float).reshape(-1, 3).T)
        except ClusteringError as exc:
            raise DataError(f"pattern space: {exc}") from None

    @classmethod
    def load(cls, path) -> "PatternSpace":
        return cls.from_json(read_json(path))


def build_space(data, k: int, config: FcmConfig = FcmConfig()) -> PatternSpace:
    """Cluster a scalar series into ``k`` classes and assemble the ordered pattern space.

    Class ``j`` spans the ``j``-th run of the sorted series, as ``fcm_cluster`` cuts it.
    """
    values = np.asarray(data, dtype=float).ravel()
    centers, counts = fcm_cluster(values, k, config)
    ordered, ends = np.sort(values), np.cumsum(counts)
    return PatternSpace(ordered[ends - counts], ordered[ends - 1], centers)
