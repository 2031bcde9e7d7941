import numpy as np
import pytest

from iarx.intervals import Interval, add, pair_product, scale
from oracles import hausdorff_distance, sub


def test_bounds_must_be_ordered_and_finite():
    with pytest.raises(ValueError):
        Interval(3.0, 1.0)
    with pytest.raises(ValueError):
        Interval(float("nan"), 1.0)
    with pytest.raises(ValueError):
        Interval(0.0, float("inf"))


def test_derived_views():
    iv = Interval(1.0, 3.0)
    assert iv.lower == 1.0
    assert iv.upper == 3.0
    assert iv.center == 2.0
    assert iv.radius == 1.0
    assert iv.upper - iv.lower == 2.0


def test_degenerate_interval_allowed():
    iv = Interval(2.5, 2.5)
    assert iv.radius == 0.0 and iv.upper - iv.lower == 0.0


def test_from_center_radius():
    iv = Interval.from_center_radius(2.0, 1.0)
    assert iv == Interval(1.0, 3.0)
    with pytest.raises(ValueError):
        Interval.from_center_radius(0.0, -1e-12)


def test_representation_equivalence_randomized():
    # bounds-first and center/radius-first constructions agree to 1e-12
    rng = np.random.default_rng(7)
    for _ in range(2000):
        c = rng.uniform(-100.0, 100.0)
        r = rng.uniform(0.0, 50.0)
        a = Interval.from_center_radius(c, r)
        b = Interval(c - r, c + r)
        assert abs(a.lower - b.lower) <= 1e-12 * max(1.0, abs(b.lower))
        assert abs(a.upper - b.upper) <= 1e-12 * max(1.0, abs(b.upper))
        assert abs(a.center - c) <= 1e-12 * max(1.0, abs(c))
        assert abs(a.radius - r) <= 1e-12 * max(1.0, r)


def test_add_sub_closed_forms():
    d = Interval(1.0, 3.0)
    q = Interval(0.5, 1.0)
    assert add(d, q) == Interval(1.5, 4.0)
    assert sub(d, q) == Interval(0.0, 2.5)


def test_sub_uses_opposite_bounds_randomized():
    rng = np.random.default_rng(11)
    for _ in range(2000):
        a = Interval(*sorted(rng.uniform(-10, 10, size=2)))
        b = Interval(*sorted(rng.uniform(-10, 10, size=2)))
        s, t = sub(a, b), add(a, b)
        assert s.lower == a.lower - b.upper
        assert s.upper == a.upper - b.lower
        # width is additive under both add and sub
        widths = (a.upper - a.lower) + (b.upper - b.lower)
        assert abs((t.upper - t.lower) - widths) <= 1e-12 * max(1.0, s.upper - s.lower)
        assert abs((s.upper - s.lower) - widths) <= 1e-12 * max(1.0, s.upper - s.lower)


def test_scale_sign_cases():
    iv = Interval(1.0, 3.0)
    assert scale(2.0, iv) == Interval(2.0, 6.0)
    assert scale(-2.0, iv) == Interval(-6.0, -2.0)  # bounds swap
    assert scale(0.0, iv) == Interval(0.0, 0.0)
    assert scale(-1.0, iv) == Interval(-3.0, -1.0)
    with pytest.raises(ValueError, match="^scale factor must not be NaN$"):
        scale(float("nan"), iv)


def test_hausdorff_closed_form_and_axioms():
    assert hausdorff_distance(Interval(1.0, 3.0), Interval(2.0, 7.0)) == 4.0
    rng = np.random.default_rng(3)
    for _ in range(2000):
        a = Interval(*sorted(rng.uniform(-10, 10, size=2)))
        b = Interval(*sorted(rng.uniform(-10, 10, size=2)))
        c = Interval(*sorted(rng.uniform(-10, 10, size=2)))
        dab = hausdorff_distance(a, b)
        assert dab == max(abs(a.lower - b.lower), abs(a.upper - b.upper))
        assert dab == hausdorff_distance(b, a)
        assert dab >= 0.0
        assert hausdorff_distance(a, a) == 0.0
        assert dab <= hausdorff_distance(a, c) + hausdorff_distance(c, b) + 1e-12


def test_identity_of_indiscernibles():
    a = Interval(0.0, 1.0)
    b = Interval(0.0, 1.0 + 1e-9)
    assert hausdorff_distance(a, b) > 0.0


def test_equality_and_hashing():
    a = Interval(1.0, 2.0)
    b = Interval(1.0, 2.0)
    assert a == b and hash(a) == hash(b)
    assert len({a, b, Interval(0.0, 2.0)}) == 2
    assert a != (1.0, 2.0)


def test_pair_product_hand_example():
    d = Interval.from_center_radius(-1.0, 2.0)
    assert pair_product(d, -2.0, 3.0) == Interval(-4.0, 8.0)
    assert pair_product(d, 1.0, 0.0) == Interval(-1.0, -1.0)


def test_pair_product_wiring_randomized():
    # the center channel reads only the center, the radius channel only the radius
    rng = np.random.default_rng(19)
    for _ in range(200):
        d = Interval.from_center_radius(rng.normal(), abs(rng.normal()))
        a, c = rng.normal(), abs(rng.normal())
        assert pair_product(d, a, c) == Interval.from_center_radius(d.center * a, d.radius * c)


@pytest.mark.parametrize("radius_coeff", [-0.5, float("nan"), float("inf")])
@pytest.mark.parametrize("d", [Interval(-1.0, 3.0), Interval(2.0, 2.0)], ids=["wide", "degenerate"])
def test_pair_product_rejects_a_negative_or_non_finite_radius_coefficient(d, radius_coeff):
    # on the degenerate interval 0.0 * -0.5 is -0.0, which a nonnegative-radius check passes
    with pytest.raises(ValueError, match="^radius coefficient must be finite and nonnegative, got "):
        pair_product(d, 1.0, radius_coeff)
