"""Closed real intervals with dual bounds / center-radius views.

Bounds are the canonical stored representation; ``center`` and ``radius``
are derived on demand, so the two views cannot drift apart. Intervals are
immutable and every operation is a pure function, safe to share freely.

Beyond sums and scalar products, the module provides ``pair_product``:
the product of one interval with one (center, radius) coefficient pair,
the elementary step of the interval ARX predictor.
"""

from __future__ import annotations

import math

__all__ = [
    "Interval",
    "add",
    "scale",
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


def pair_product(d: Interval, center_coeff: float, radius_coeff: float) -> Interval:
    """Product of an interval with one (center, radius) coefficient pair.

    The result has center ``d.center * center_coeff`` and radius
    ``d.radius * radius_coeff``: the center never leaks into the radius and
    vice versa. This is the paper's interval-by-real-matrix operator in the
    ``2 x 1`` shape the model applies per lag; a matrix of pairs is this
    product entry by entry. The radius coefficient must be finite and
    nonnegative, so that the radius stays nonnegative for every interval,
    a degenerate one included.
    """
    radius_coeff = float(radius_coeff)
    if not (math.isfinite(radius_coeff) and radius_coeff >= 0.0):
        raise ValueError(f"radius coefficient must be finite and nonnegative, got {radius_coeff!r}")
    return Interval.from_center_radius(d.center * center_coeff, d.radius * radius_coeff)
