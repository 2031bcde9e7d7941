"""Reference implementations the tests compare the package against.

Nothing in ``src/iarx`` imports this module. It holds three kinds of oracle.

``fcm_cluster``, ``_reformulate`` and ``_farthest_point_init`` are earlier
forms of production code, kept verbatim so that a test can hold a rewrite to
the exact results of the code it replaced. ``fcm_cluster`` and
``_reformulate`` are the fuzzy c-means of ``iarx.pattern_space`` as it stood
before its pass was rewritten for speed: the column-row broadcast for
``c - x``, a zero test of every column minimum on every pass, fresh center
differences for the shift and the SQUAREM step, re-sorted centers in the
SQUAREM guard and one argmin over the whole k x N array for the hard
assignments. The rewrite must return the same centers bit for bit, after
the same objective values, and cut the same partition, which
``hard_labels`` reads back per point. ``_farthest_point_init`` is the
seeding as it stood before it read the distinct values from the sorted
series that ``fcm_cluster`` keeps, through ``np.unique`` of its own copy.

``QpProblem``, ``assemble_qp`` and ``solve_qp_nonneg`` are an independent
route to the radius fit, not an earlier form of it: the quadratic program
``min C'HC - C'B  s.t.  C >= 0`` that ``iarx.model`` fits by active-set
nonnegative least squares, solved here by cyclic coordinate descent. The two
methods share only the design matrices and ``_qp_terms``, so their agreement
cross-checks ``nnls``.

``sub`` and ``hausdorff_distance`` are reference formulas that the package no
longer ships: interval subtraction, and the Hausdorff distance between two
intervals taken one pair at a time, which ``PatternSpace`` classification
must minimize.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from iarx.errors import ClusteringError, ConvergenceWarning, DataError, IdentificationError
from iarx.intervals import Interval
from iarx.model import _design_matrices, _frozen_array, _qp_terms
from iarx.pattern_space import FcmConfig


def sub(d: Interval, q: Interval) -> Interval:
    """Interval difference ``d - q``: ``[d.lower - q.upper, d.upper - q.lower]``; radii add."""
    return Interval(d.lower - q.upper, d.upper - q.lower)


def hausdorff_distance(d: Interval, q: Interval) -> float:
    """Hausdorff distance between two closed intervals: the larger of the two endpoint gaps."""
    return max(abs(d.lower - q.lower), abs(d.upper - q.upper))


def _farthest_point_init(values: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Pick k distinct data values: a seeded start, then greedy farthest points."""
    distinct = np.unique(values)
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


def hard_labels(values, counts) -> np.ndarray:
    """The 0-based cluster of every point, in ascending center order, from the
    run sizes ``counts`` of the sorted series that ``iarx.pattern_space.fcm_cluster`` returns."""
    values = np.asarray(values, dtype=float).ravel()
    labels = np.empty(values.size, dtype=np.intp)
    labels[np.argsort(values, kind="stable")] = np.repeat(np.arange(len(counts)), counts)
    return labels


# Sweep cap of the coordinate-descent QP solver.
QP_MAX_SWEEPS = 200_000


@dataclass(frozen=True)
class QpProblem:
    """Quadratic program data ``min C'HC - C'B`` with ``C >= 0``."""

    H: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        h = np.array(self.H, dtype=float, copy=True)
        b = _frozen_array(self.B, "B")
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ValueError(f"H must be square, got shape {h.shape}")
        if h.shape[0] != b.size:
            raise ValueError(f"H is {h.shape[0]}x{h.shape[0]} but B has length {b.size}")
        if not np.all(np.isfinite(h)):
            raise ValueError("H must be finite")
        if not np.array_equal(h, h.T):
            raise ValueError("H must be exactly symmetric")
        h.setflags(write=False)
        object.__setattr__(self, "H", h)
        object.__setattr__(self, "B", b)

    def objective(self, c) -> float:
        c = np.asarray(c, dtype=float)
        return float(c @ self.H @ c - c @ self.B)


def assemble_qp(centers, radii, inputs, n: int, m: int) -> QpProblem:
    """Quadratic-program data of the radius problem: ``H = sum x_abs x_abs'``, ``B = 2 sum y_r x_abs``.

    ``H`` is assembled so that it is exactly symmetric, and it is positive
    semidefinite by construction.
    """
    _, _, x_abs, y_r = _design_matrices(centers, radii, inputs, n, m)
    h, b = _qp_terms(x_abs, y_r)
    return QpProblem(H=h, B=b)


def solve_qp_nonneg(qp: QpProblem) -> np.ndarray:
    """Minimize ``c'Hc - c'B`` over ``c >= 0`` by cyclic coordinate descent.

    Each coordinate update is the exact one-dimensional minimizer projected
    onto the nonnegative half-line. Runs until the KKT residual drops below
    a tolerance scaled to ``B``; independent of the active-set route in
    :func:`nnls`, which makes the pair usable as mutual cross-checks.
    """
    h = qp.H
    b = qp.B
    nvar = b.size
    diag = np.diag(h).copy()
    tol = 1e-10 * (1.0 + float(np.max(np.abs(b), initial=0.0)))
    # A PSD matrix with a zero diagonal entry has a zero row/column there:
    # the objective is linear in that coordinate and bounded only if B <= 0.
    dead = diag <= 0.0
    if np.any(dead & (b > tol)):
        raise IdentificationError("qp is unbounded below along a zero-curvature coordinate")

    c = np.zeros(nvar)
    grad = -b.copy()  # gradient of the objective, 2Hc - B, at c = 0
    for sweep in range(1, QP_MAX_SWEEPS + 1):
        for j in range(nvar):
            if dead[j]:
                continue
            cand = c[j] - grad[j] / (2.0 * diag[j])
            if cand < 0.0:
                cand = 0.0
            delta = cand - c[j]
            if delta != 0.0:
                grad += (2.0 * delta) * h[:, j]
                c[j] = cand
        if sweep % 64 == 0:
            grad = 2.0 * (h @ c) - b  # shed accumulated drift
        residual = np.where(c > 0.0, np.abs(grad), np.maximum(-grad, 0.0))
        residual[dead] = 0.0
        if float(residual.max(initial=0.0)) <= tol:
            return c
    raise IdentificationError(
        f"qp coordinate descent did not converge within {QP_MAX_SWEEPS} sweeps"
    )
