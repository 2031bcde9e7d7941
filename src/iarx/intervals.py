"""Closed real intervals with dual bounds / center-radius views.

Bounds are the canonical stored representation; ``center`` and ``radius``
are derived on demand, so the two views cannot drift apart. Intervals are
immutable and every operation is a pure function, safe to share freely.

Beyond sums, differences and scalar products, the module provides the
Hausdorff distance between two intervals and ``pair_product``: the product
of one interval with a matrix of (center, radius) coefficient row pairs,
the elementary step of the interval ARX predictor.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "Interval",
    "PairMatrix",
    "add",
    "sub",
    "scale",
    "hausdorff_distance",
    "pair_product",
]


class Interval:
    """A closed real interval ``[lower, upper]`` with ``lower <= upper``.

    Degenerate intervals (``lower == upper``) are legal; they arise when
    scalars are embedded into interval form and from single-valued pattern
    classes. Bounds must be finite.
    """

    __slots__ = ("_lower", "_upper")

    def __init__(self, lower: float, upper: float):
        lower, upper = float(lower), float(upper)
        if not (math.isfinite(lower) and math.isfinite(upper)):
            raise ValueError(f"interval bounds must be finite, got [{lower!r}, {upper!r}]")
        if lower > upper:
            raise ValueError(f"lower bound {lower!r} exceeds upper bound {upper!r}")
        self._lower, self._upper = lower, upper

    @classmethod
    def from_center_radius(cls, center: float, radius: float) -> "Interval":
        """Build ``[center - radius, center + radius]``; radius must be >= 0."""
        center = float(center)
        radius = float(radius)
        if math.isnan(radius) or radius < 0.0:
            raise ValueError(f"radius must be nonnegative, got {radius!r}")
        return cls(center - radius, center + radius)

    @property
    def lower(self) -> float:
        return self._lower

    @property
    def upper(self) -> float:
        return self._upper

    @property
    def center(self) -> float:
        """Midpoint ``(lower + upper) / 2``."""
        return 0.5 * (self._lower + self._upper)

    @property
    def radius(self) -> float:
        """Half-width ``(upper - lower) / 2``; always >= 0."""
        return 0.5 * (self._upper - self._lower)

    @property
    def width(self) -> float:
        return self._upper - self._lower

    def __eq__(self, other) -> bool:
        if not isinstance(other, Interval):
            return NotImplemented
        return self._lower == other._lower and self._upper == other._upper

    def __hash__(self) -> int:
        return hash((self._lower, self._upper))

    def __repr__(self) -> str:
        return f"Interval({self._lower!r}, {self._upper!r})"


def add(d: Interval, q: Interval) -> Interval:
    """Interval sum: bounds add component-wise.

    Equivalently, centers add and radii add.
    """
    return Interval(d.lower + q.lower, d.upper + q.upper)


def sub(d: Interval, q: Interval) -> Interval:
    """Interval difference ``d - q``: ``[d.lower - q.upper, d.upper - q.lower]``.

    Equivalently, centers subtract while radii still add; subtraction never
    shrinks uncertainty, and ``sub(d, d)`` is symmetric about zero rather
    than the degenerate ``[0, 0]``.
    """
    return Interval(d.lower - q.upper, d.upper - q.lower)


def scale(factor: float, d: Interval) -> Interval:
    """Scalar product ``factor * d``; bounds swap when the factor is negative.

    Equivalently, the center scales by ``factor`` and the radius by
    ``abs(factor)``. A zero factor yields the degenerate ``[0, 0]``.
    """
    factor = float(factor)
    if math.isnan(factor):
        raise ValueError("scale factor must not be NaN")
    if factor == 0.0:
        return Interval(0.0, 0.0)
    if factor > 0.0:
        return Interval(factor * d.lower, factor * d.upper)
    return Interval(factor * d.upper, factor * d.lower)


def hausdorff_distance(d: Interval, q: Interval) -> float:
    """Hausdorff distance between two closed intervals.

    For intervals this reduces to the larger of the two endpoint gaps:
    ``max(|d.lower - q.lower|, |d.upper - q.upper|)``. It is a true metric:
    zero exactly on equal intervals, symmetric, and triangle-inequal.
    """
    return max(abs(d.lower - q.lower), abs(d.upper - q.upper))


class PairMatrix:
    """A ``2n x m`` real matrix of stacked (center, radius) coefficient rows.

    Row ``2i`` holds center coefficients and row ``2i + 1`` the matching
    radius coefficients of pair ``i``. Radius rows must be nonnegative so
    that products with an interval keep a nonnegative radius; offending
    matrices are rejected outright rather than clamped.
    """

    __slots__ = ("_values",)

    def __init__(self, values):
        arr = np.array(values, dtype=float, copy=True)
        if arr.ndim != 2:
            raise ValueError(f"expected a 2-D coefficient matrix, got ndim={arr.ndim}")
        rows, cols = arr.shape
        if rows == 0 or rows % 2 != 0:
            raise ValueError(f"row count must be even and positive (center/radius pairs), got {rows}")
        if cols == 0:
            raise ValueError("coefficient matrix needs at least one column")
        if not np.all(np.isfinite(arr)):
            raise ValueError("coefficient matrix entries must be finite")
        if np.any(arr[1::2, :] < 0.0):
            raise ValueError("radius coefficient rows (odd rows) must be nonnegative")
        arr.setflags(write=False)
        self._values = arr

    @property
    def values(self) -> np.ndarray:
        """The full ``2n x m`` array (read-only)."""
        return self._values

    @property
    def n_pairs(self) -> int:
        return self._values.shape[0] // 2

    @property
    def n_cols(self) -> int:
        return self._values.shape[1]

    @property
    def center_coeffs(self) -> np.ndarray:
        """The ``n x m`` center coefficients (even rows)."""
        return self._values[0::2, :]

    @property
    def radius_coeffs(self) -> np.ndarray:
        """The ``n x m`` radius coefficients (odd rows); entrywise >= 0."""
        return self._values[1::2, :]

    def __repr__(self) -> str:
        return f"PairMatrix(n_pairs={self.n_pairs}, n_cols={self.n_cols})"


def pair_product(d: Interval, pairs: PairMatrix) -> list[list[Interval]]:
    """Product of an interval with a pair matrix, entry by entry.

    Entry ``(i, j)`` of the result is the interval whose center is
    ``d.center * center_coeffs[i, j]`` and whose radius is
    ``d.radius * radius_coeffs[i, j]``. The center never leaks into the
    radius and vice versa, and radii stay nonnegative because both factors
    are.

    Returns an ``n_pairs x n_cols`` nested list of intervals.
    """
    a = d.center
    c = d.radius
    p1 = pairs.center_coeffs
    p2 = pairs.radius_coeffs
    return [
        [Interval.from_center_radius(a * p1[i, j], c * p2[i, j]) for j in range(pairs.n_cols)]
        for i in range(pairs.n_pairs)
    ]
