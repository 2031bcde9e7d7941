import json
import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

import oracles
from iarx.errors import ClusteringError, ConvergenceWarning, DataError
from iarx.intervals import Interval
from iarx import pattern_space
from iarx.data_io import default_synthetic_spec, synthesize, zero_mean_normalize
from iarx.pipeline import fit_model, forecast_series
from iarx.pattern_space import (
    FcmConfig,
    PatternSpace,
    _farthest_point_init,
    _reformulate,
    build_space,
    fcm_cluster,
)


def textbook_memberships(values, centers, m):
    """Bezdek's memberships U (k x N) written out plainly, as the reference.

    Absolute distances, memberships 1 / sum_t (d_ij / d_tj) ** (2 / (m - 1))
    computed as rel ** (-2 / (m - 1)) on the ratios to the nearest center,
    and full membership in the first center a point sits on.
    """
    dist = np.abs(centers[:, None] - values[None, :])
    nearest = dist.min(axis=0)
    on_center = nearest == 0.0
    u = np.zeros_like(dist)
    cols = np.flatnonzero(on_center)
    u[np.argmax(dist[:, cols] == 0.0, axis=0), cols] = 1.0
    rel = dist[:, ~on_center] / nearest[~on_center]
    w = rel ** (-2.0 / (m - 1.0))
    u[:, ~on_center] = w / w.sum(axis=0)
    return u


def textbook_fcm(values, k, config):
    """Bezdek's fuzzy c-means written out plainly, as the reference.

    Weights u ** m, and hard assignment by maximal membership.
    """
    values = np.asarray(values, dtype=float)
    m = config.fuzziness
    centers = _farthest_point_init(np.sort(values), k, np.random.default_rng(config.seed))
    for _ in range(config.max_iterations):
        weights = textbook_memberships(values, centers, m) ** m
        new_centers = (weights @ values) / weights.sum(axis=1)
        shift = np.max(np.abs(new_centers - centers))
        centers = new_centers
        if shift < config.tolerance:
            break
    return centers, np.argmax(textbook_memberships(values, centers, m), axis=0)


def in_center_order(centers, labels):
    """``labels`` of the clusters of ``centers`` renumbered in ascending center order."""
    return np.argsort(np.argsort(centers, kind="stable"), kind="stable")[labels]


def test_config_validation():
    with pytest.raises(ValueError, match="cluster count must be >= 1, got 0"):
        fcm_cluster([0.0, 1.0], 0)
    for cluster in (fcm_cluster, build_space):
        for k in (2.5, "2"):
            with pytest.raises(ValueError, match=f"cluster count must be an integer, got {k!r}$"):
                cluster([1.0, 2.0, 3.0, 4.0], k)
    assert build_space([1.0, 2.0, 3.0, 4.0], np.int64(2)).cpms == 2  # a numpy integer is a count
    with pytest.raises(ValueError):
        FcmConfig(fuzziness=1.0)
    with pytest.raises(ValueError, match="finite"):
        FcmConfig(fuzziness=float("inf"))
    with pytest.raises(ValueError):
        FcmConfig(fuzziness=float("nan"))
    with pytest.raises(ValueError):
        FcmConfig(tolerance=0.0)
    with pytest.raises(ValueError):
        FcmConfig(max_iterations=0)
    with pytest.raises(ValueError, match=r"^max_iterations must be an integer, got 5\.5$"):
        FcmConfig(max_iterations=5.5)
    with pytest.raises(ValueError, match=r"seed must be >= 0, got -1$"):
        FcmConfig(seed=-1)
    with pytest.raises(ValueError, match=r"^seed must be an integer, got 1\.5$"):
        FcmConfig(seed=1.5)
    config = FcmConfig(max_iterations=np.int64(5), seed=np.int64(1))
    assert (type(config.max_iterations), type(config.seed)) == (int, int)


def test_two_well_separated_clumps():
    space = build_space([0.0, 0.0, 0.0, 10.0, 10.0, 10.0], 2)
    assert [(c.id, c.interval) for c in space.classes] == [
        (1, Interval(0.0, 0.0)),
        (2, Interval(10.0, 10.0)),
    ]


def test_four_point_split():
    space = build_space([0.0, 0.1, 9.9, 10.0], 2)
    assert space.classes[0].interval == Interval(0.0, 0.1)
    assert space.classes[1].interval == Interval(9.9, 10.0)


def test_a_sample_on_a_midpoint_joins_the_upper_class():
    # the two centers are symmetric about 0.0, so the middle sample sits
    # exactly on their midpoint, where the sorted series is cut
    centers, counts = fcm_cluster([-1.0, 0.0, 1.0], 2)
    assert centers.tolist() == [-0.7956086738434485, 0.7956086738434485]
    assert 0.5 * (centers[0] + centers[1]) == 0.0
    assert counts.tolist() == [1, 2]
    space = build_space([-1.0, 0.0, 1.0], 2)
    assert [c.interval for c in space.classes] == [Interval(-1.0, -1.0), Interval(0.0, 1.0)]


def test_classes_tile_an_evenly_spread_series():
    # hard assignments are nearest-center cells in one dimension, so the
    # class intervals must be disjoint and ordered
    data = np.arange(1.0, 101.0)
    space = build_space(data, 4)
    ivs = [c.interval for c in space.classes]
    assert [c.id for c in space.classes] == [1, 2, 3, 4]
    for left, right in zip(ivs, ivs[1:]):
        assert left.upper < right.lower
    assert ivs[0].lower == data.min()
    assert ivs[-1].upper == data.max()


@pytest.mark.parametrize("k", [2, 16, 26, 36])
def test_class_spans_are_the_extremes_of_their_members(default_result, k):
    # each class spans min..max of the hard members of its cluster, the
    # clusters taken in ascending center order
    data = default_result.data
    centers, counts = fcm_cluster(data, k)
    assign = oracles.hard_labels(data, counts)
    space = build_space(data, k)
    assert space.cpms == k and (centers[1:] > centers[:-1]).all()
    for idx, cls in enumerate(space.classes):
        members = data[assign == idx]
        assert cls.interval == Interval(members.min(), members.max())


def test_assignments_match_membership_argmax():
    # recompute fuzzy memberships directly from the returned centers
    data = np.arange(1.0, 101.0)
    centers, counts = fcm_cluster(data, 4)
    assign = oracles.hard_labels(data, counts)
    d = np.abs(data[:, None] - centers[None, :])
    d = np.where(d == 0.0, 1e-300, d)
    w = (1.0 / d) ** 2  # fuzziness 2.0 -> exponent 2 / (fuzziness - 1)
    u = w / w.sum(axis=1, keepdims=True)
    assert np.array_equal(assign, np.argmax(u, axis=1))


def textbook_objective(values, centers, m):
    """The objective J(U, V) at the textbook memberships of the centers."""
    d2 = (centers[:, None] - np.asarray(values)[None, :]) ** 2
    return float(np.sum(textbook_memberships(values, centers, m) ** m * d2))


@pytest.fixture(scope="module")
def textbook_runs(default_result):
    """Textbook FCM on the raw and the z-scored default series, per (fuzziness, k):
    run to a fixed point (tolerance 1e-12) and at the default tolerance."""
    series = (default_result.data, zero_mean_normalize(default_result.data)[0])
    runs = {}
    for fuzziness in (1.5, 2.0, 3.0):
        converged = FcmConfig(fuzziness=fuzziness, tolerance=1e-12, max_iterations=50_000)
        for k in (16, 26, 36):
            runs[fuzziness, k] = [
                (data, textbook_fcm(data, k, converged), textbook_fcm(data, k, FcmConfig(fuzziness=fuzziness)))
                for data in series
            ]
    return runs


@pytest.mark.parametrize("fuzziness", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("k", [16, 26, 36])
def test_fcm_matches_textbook_bezdek(textbook_runs, fuzziness, k):
    # the initial centers are data points, so the on-center branch runs too;
    # the CLI clusters the z-scored series, so it is checked as well. The
    # accelerated run leaves the plain trajectory, so both run to the fixed
    # point they share
    config = FcmConfig(fuzziness=fuzziness, tolerance=1e-12, max_iterations=50_000)
    for series, (want_centers, want_assign), _ in textbook_runs[fuzziness, k]:
        centers, counts = fcm_cluster(series, k, config)
        assert np.array_equal(oracles.hard_labels(series, counts), in_center_order(want_centers, want_assign))
        np.testing.assert_allclose(centers, np.sort(want_centers), rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("fuzziness", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("k", [16, 26, 36])
def test_fcm_at_the_default_tolerance_keeps_the_textbook_partition(textbook_runs, fuzziness, k):
    # at the default settings the accelerated run stops elsewhere on its way
    # to that fixed point, but it hardens to the same clusters, and its
    # objective is no higher than where textbook FCM stops
    for series, (want_centers, want_assign), (plain_centers, _) in textbook_runs[fuzziness, k]:
        centers, counts = fcm_cluster(series, k, FcmConfig(fuzziness=fuzziness))
        assert np.array_equal(oracles.hard_labels(series, counts), in_center_order(want_centers, want_assign))
        plain = textbook_objective(series, plain_centers, fuzziness)
        assert textbook_objective(series, centers, fuzziness) <= plain * (1.0 + 1e-9)


@pytest.mark.parametrize("fuzziness", [1.5, 2.0, 3.0])
def test_reformulated_objective_is_the_textbook_objective(default_result, fuzziness):
    # R(V) = J(U*(V), V) with U*(V) the optimal memberships for the centers V,
    # on random centers and on centers that sit on data points
    data = default_result.data
    rng = np.random.default_rng(31)
    on_points = rng.choice(np.unique(data), size=26, replace=False)
    for centers in (rng.uniform(data.min(), data.max(), size=26), on_points, on_points[:1]):
        _, got = _reformulate((centers[:, None] - data[None, :]) ** 2, fuzziness)
        assert got == pytest.approx(textbook_objective(data, centers, fuzziness), rel=1e-12, abs=0.0)


def record_objectives(monkeypatch, module):
    """The list that R of every center set ``module.fcm_cluster`` measures is appended to."""
    seen, reformulate = [], module._reformulate

    def recording(d2, fuzziness):
        scale, objective = reformulate(d2, fuzziness)
        seen.append(objective)
        return scale, objective

    monkeypatch.setattr(module, "_reformulate", recording)
    return seen


def test_reformulated_objective_never_rises(default_result, monkeypatch):
    # record R for every center set of a default run: the first is the seed
    # centers, the last the returned ones, and no step goes up
    seen = record_objectives(monkeypatch, pattern_space)
    fcm_cluster(default_result.data, 26)
    assert len(seen) > 10
    assert np.all(np.diff(seen) <= 0.0)
    assert seen[-1] < seen[0]


def test_fcm_is_bit_identical_to_the_oracle(monkeypatch):
    # the pass was rewritten for speed alone: on the sweep's class counts, raw
    # and z-scored, it measures the same R on every center set (so it takes
    # the same passes), returns the same centers, bit for bit, in ascending
    # order, and cuts the same partition at their midpoints
    seen = record_objectives(monkeypatch, pattern_space)
    want_seen = record_objectives(monkeypatch, oracles)
    for seed in (1, 2, 3):
        data = synthesize(default_synthetic_spec(seed)).data
        for series in (data, zero_mean_normalize(data)[0]):
            for k in range(16, 37):
                seen.clear()
                want_seen.clear()
                centers, counts = fcm_cluster(series, k)
                want_centers, want_assign = oracles.fcm_cluster(series, k)
                assert seen == want_seen, (seed, k)
                assert centers.tobytes() == np.sort(want_centers).tobytes(), (seed, k)
                want = in_center_order(want_centers, want_assign)
                assert np.array_equal(oracles.hard_labels(series, counts), want), (seed, k)


def test_seeding_reads_the_oracles_distinct_values_from_the_sorted_series():
    # the first of each run of equal sorted values is what np.unique keeps,
    # repeated values and zeros of either sign included
    rng = np.random.default_rng(4)
    for data in (np.round(rng.normal(size=500), 1), np.array([2.0, -0.0, 1.0, 0.0, 1.0]), rng.normal(size=300)):
        for k in [k for k in (1, 2, 3, 17) if k <= np.unique(data).size]:
            for seed in range(4):
                want = oracles._farthest_point_init(data, k, np.random.default_rng(seed))
                got = _farthest_point_init(np.sort(data), k, np.random.default_rng(seed))
                assert got.tobytes() == want.tobytes(), (k, seed)
    with pytest.raises(ClusteringError, match=r"^cannot seed 4 clusters from 3 distinct value\(s\)$"):
        _farthest_point_init(np.array([-0.0, 0.0, 1.0, 1.0, 2.0]), 4, np.random.default_rng(0))


def test_fcm_peak_memory_holds_no_second_distance_array():
    # one k x N work array serves every pass, and the hard partition is k
    # counts cut from the sorted series, so the peak stays below two k x N
    # arrays at the length of the long benchmark series
    k, data = 26, synthesize(replace(default_synthetic_spec(), length=17_280)).data
    tracemalloc.start()
    try:
        fcm_cluster(data, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * k * data.size * data.itemsize


def test_iteration_cap_warns_with_the_details():
    data = np.arange(1.0, 101.0)
    with pytest.warns(ConvergenceWarning) as record:
        centers, counts = fcm_cluster(data, 4, FcmConfig(max_iterations=2))
    (warning,) = record
    message = str(warning.message)
    for detail in ("k=4", "2 iterations", "center shift", "tolerance 1e-06"):
        assert detail in message
    assert centers.shape == (4,) and oracles.hard_labels(data, counts).shape == (100,)


def test_default_data_converges_at_the_default_class_count(default_result):
    with warnings.catch_warnings():
        warnings.simplefilter("error", ConvergenceWarning)
        fcm_cluster(default_result.data, 26)


def test_overflowing_objective_is_a_clustering_error():
    # squared distances overflow, so the objective is NaN: a checked error,
    # not an assert that python -O would strip
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ClusteringError, match="objective"):
            fcm_cluster([0.0, 1e200, 2e200, 3e200], 2)


def _seed_between_the_extremes(ordered, k, rng):
    """Three seeds: the extremes of the sorted series and the point halfway between them."""
    return np.array([ordered[0], 0.5 * (ordered[0] + ordered[-1]), ordered[-1]])


def test_a_center_that_no_sample_reaches_loses_its_mass(monkeypatch):
    # every sample sits on an outer center, so the middle one gets no
    # membership; the seeding is a monkeypatch, as the farthest-point seeding
    # picks data values only
    monkeypatch.setattr(pattern_space, "_farthest_point_init", _seed_between_the_extremes)
    with pytest.raises(ClusteringError, match="^a cluster lost all membership mass; reseed and retry$"):
        fcm_cluster([0.0, 10.0, 0.0, 10.0], 3)


def test_a_center_in_a_data_gap_has_no_hard_members(monkeypatch):
    # one step leaves the middle center in the gap, farther from every
    # sample than an outer center is (seeded by a monkeypatch, as above)
    monkeypatch.setattr(pattern_space, "_farthest_point_init", _seed_between_the_extremes)
    with pytest.warns(ConvergenceWarning, match="k=3"):
        with pytest.raises(ClusteringError, match="^cluster 1 has no hard-assigned members; reseed and retry$"):
            fcm_cluster([0.0, 1.0, 9.0, 10.0], 3, FcmConfig(max_iterations=1))


def test_single_class_space():
    # one cluster is a clustering but not a pattern space
    _, counts = fcm_cluster([1.0, 2.0, 5.0], 1)
    assert counts.tolist() == [3]
    with pytest.raises(ClusteringError, match="^a pattern space needs at least two classes, got 1$"):
        build_space([1.0, 2.0, 5.0], 1)


def test_not_enough_distinct_values():
    with pytest.raises(ClusteringError):
        build_space([1.0, 1.0, 2.0, 2.0], 3)


def test_more_classes_than_samples_is_a_data_error():
    # the input error fit_model reports for the same data, here from build_space
    with pytest.raises(DataError, match=r"^cluster count 5 exceeds the 4 data point\(s\)$"):
        build_space([1.0, 2.0, 3.0, 4.0], 5)
    # an empty series is the same point-count error
    for cluster in (fcm_cluster, build_space):
        with pytest.raises(DataError, match=r"^cluster count 2 exceeds the 0 data point\(s\)$"):
            cluster([], 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_sample_is_a_data_error(bad):
    # the input error fit_model and forecast_series report for the same data
    with pytest.raises(DataError, match=r"^data sample 1 is not finite$"):
        build_space([1.0, bad, 2.0, bad], 2)


def test_empty_series_rejected():
    with pytest.raises(DataError):
        fcm_cluster([], 2)


def test_determinism_same_seed():
    rng = np.random.default_rng(0)
    data = rng.normal(size=400)
    a = build_space(data, 8, FcmConfig(seed=5))
    b = build_space(data, 8, FcmConfig(seed=5))
    assert a.to_json() == b.to_json()


def test_classify_is_hausdorff_argmin(default_model, default_result):
    space = default_model.space
    rng = np.random.default_rng(21)
    lo, hi = default_result.data.min(), default_result.data.max()
    probes = [Interval(c - r, c + r) for c, r in zip(rng.uniform(lo, hi, 200), rng.uniform(0.0, 5.0, 200))]
    got = space.classify_bounds([x.lower for x in probes], [x.upper for x in probes])
    for x, class_id in zip(probes, got):
        dists = [oracles.hausdorff_distance(x, cls.interval) for cls in space.classes]
        assert class_id == int(np.argmin(dists)) + 1


def test_classify_tie_goes_to_lowest_id():
    space = PatternSpace([0.0, 2.0], [1.0, 3.0])
    # equidistant from both classes
    probe = Interval(1.0, 2.0)
    d1 = oracles.hausdorff_distance(probe, space.classes[0].interval)
    d2 = oracles.hausdorff_distance(probe, space.classes[1].interval)
    assert d1 == d2
    assert space.classify_bounds(probe.lower, probe.upper).tolist() == [1]


def test_classify_bounds_flattens_its_input():
    lowers = np.array([0.0, 2.0, 4.0])
    space = PatternSpace(lowers, lowers + 1.0)
    lower = np.array([[0.0, 2.0, 4.0], [4.0, 2.0, 0.0]])
    ids = space.classify_bounds(lower, lower + 1.0)
    assert ids.shape == (6,) and ids.tolist() == [1, 2, 3, 3, 2, 1]
    assert space.classify_bounds(2.0, 3.0).shape == (1,)


def test_classify_bounds_matches_the_full_distance_argmin(default_model, default_result):
    space = default_model.space
    rng = np.random.default_rng(22)
    data = default_result.data
    lowers, uppers = space.lowers, space.uppers
    gaps = 0.5 * (uppers[:-1] + lowers[1:])
    centers = rng.uniform(data.min() - 1.0, data.max() + 1.0, size=5000)
    radii = rng.uniform(0.0, 2.0, size=5000)
    probes = [
        (data, data),
        (centers - radii, centers + radii),
        (lowers, uppers),
        # points and intervals between neighbouring classes
        (gaps, gaps),
        (gaps - 0.5, gaps + 0.5),
        (np.array([np.nan, np.inf, -np.inf, 0.0]), np.array([0.0, np.inf, 0.0, np.nan])),
    ]
    for lower, upper in probes:
        got = space.classify_bounds(lower, upper)
        with np.errstate(invalid="ignore"):
            dist = np.maximum(
                np.abs(lower[:, None] - lowers[None, :]), np.abs(upper[:, None] - uppers[None, :])
            )
        np.testing.assert_array_equal(got, np.argmin(dist, axis=1) + 1)
    with pytest.raises(ValueError, match="upper bounds"):
        space.classify_bounds([0.0, 1.0], [1.0])


def full_scan_ids(space, lower, upper):
    """Ids of the nearest classes from the whole interval-by-class distance matrix."""
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    dist = np.maximum(
        np.abs(lower[:, None] - space.lowers[None, :]), np.abs(upper[:, None] - space.uppers[None, :])
    )
    return np.argmin(dist, axis=1) + 1


def random_space(rng, cpms, layout):
    """A space of ``cpms`` classes with bounds on a quarter lattice, so that probes tie exactly.

    ``disjoint`` classes are sorted with gaps between them; ``overlapping``
    classes have random lower bounds, some equal, and widths up to the whole
    span, so that neighbours overlap or nest; ``wide`` is disjoint but for
    one class that reaches far past every other.
    """
    if layout == "overlapping":
        lowers = np.sort(rng.integers(0, 2 * cpms, cpms)) / 4.0
        uppers = lowers + rng.integers(0, 2 * cpms, cpms) / 4.0
    else:
        widths = rng.integers(0, 4, cpms) / 4.0
        gaps = rng.integers(1, 5, cpms) / 4.0
        lowers = np.concatenate(([0.0], np.cumsum(widths + gaps)[:-1]))
        uppers = lowers + widths
        if layout == "wide":
            uppers[rng.integers(cpms)] = 2.0 * uppers[-1] + 1.0
    return PatternSpace(lowers, uppers)


@pytest.mark.parametrize("layout", ["disjoint", "overlapping", "wide"])
def test_classify_bounds_matches_the_full_scan_on_random_spaces(layout):
    # the windowed search with its fallback returns the full scan's ids on
    # every kind of space and probe, exact ties and non-finite bounds included
    rng = np.random.default_rng(["disjoint", "overlapping", "wide"].index(layout))
    inf, nan = np.inf, np.nan
    for cpms in range(2, 41):
        space = random_space(rng, cpms, layout)
        lowers, uppers = space.lowers, space.uppers
        lo, hi = lowers[0] - 2.0, uppers.max() + 2.0
        lattice = np.arange(lo, hi + 0.25, 0.25)
        pairs = np.sort(rng.choice(lattice, size=(2, 400)), axis=0)
        points = rng.uniform(lo, hi, 300)
        centers, radii = rng.uniform(lo, hi, 300), rng.uniform(0.0, hi - lo, 300)
        gaps = 0.5 * (uppers[:-1] + lowers[1:])
        probes = [
            (lattice, lattice),  # degenerate, many exactly between two classes
            (pairs[0], pairs[1]),  # lattice intervals: ties of every kind
            (points, points),
            (centers - radii, centers + radii),  # wide
            (lowers, uppers),
            (gaps, gaps),
            (gaps - 0.25, gaps + 0.25),
            (np.array([lo - 1e6, -1e6, hi + 1e6, lo - 1.0]), np.array([lo - 1e6, 1e6, hi + 1e6, hi + 1.0])),
            (
                np.array([-inf, inf, -inf, nan, 0.0, nan, lowers[0], inf, -inf]),
                np.array([-inf, inf, inf, nan, nan, 0.0, inf, lowers[-1], uppers[0]]),
            ),
        ]
        for lower, upper in probes:
            np.testing.assert_array_equal(
                space.classify_bounds(lower, upper), full_scan_ids(space, lower, upper), err_msg=f"cpms {cpms}"
            )


def test_classify_bounds_falls_back_to_the_full_scan_outside_the_window(monkeypatch):
    # twelve narrow classes [j, j + 0.1]; the interval [0, 10.1] is at
    # distance max(j, 10 - j) from class j + 1, so its nearest class, id 6,
    # lies further right of its lower bound than the window reaches
    lowers = np.arange(12.0)
    space = PatternSpace(lowers, lowers + 0.1)
    scan = PatternSpace._scan
    scanned = []

    def spy(self, lower, upper):
        scanned.append(lower.tolist())
        return scan(self, lower, upper)

    monkeypatch.setattr(PatternSpace, "_scan", spy)
    assert space.classify_bounds([5.0, 0.0, 11.0], [5.0, 10.1, 11.1]).tolist() == [6, 6, 12]
    assert scanned == [[0.0]]


def _no_scan(self, lower, upper):
    raise AssertionError(f"{lower.size} interval(s) fell back to the full scan")


def test_window_certifies_every_interval_of_the_default_forecast(default_model, default_result, monkeypatch):
    # on clustered classes the encoding table and the window settle the
    # encoding and the snap of every step, so a forecast pass never pays for
    # the full scan
    monkeypatch.setattr(PatternSpace, "_scan", _no_scan)
    forecast_series(default_model, default_result.data, default_result.u)


def test_window_certifies_every_interval_of_every_z_scored_sweep_model(default_result, monkeypatch):
    # the same holds at every class count of the default sweep on the
    # z-scored series the command line fits (the acceptance sweep test
    # checks the raw series)
    data, u = zero_mean_normalize(default_result.data)[0], zero_mean_normalize(default_result.u)[0]
    monkeypatch.setattr(PatternSpace, "_scan", _no_scan)
    for cpms in range(16, 37):
        forecast_series(fit_model(data, u, cpms, n=3, m=1), data, u)


def test_classification_without_encoding_codes_matches_the_full_scan():
    # a repeated lower bound leaves every cell of the grid without an
    # encoding code, so every sample goes through the pair search and its
    # fallback, and both still give the full scan's ids
    lowers, uppers = np.array([(0, 1), (0, 2), (3, 4), (5, 6), (7, 8), (9, 10)], dtype=float).T
    space = PatternSpace(lowers, uppers)
    assert (space._code < -space.cpms).all()
    x = np.linspace(-1.0, 11.0, 97)
    expected = full_scan_ids(space, x, x)
    assert space.classify_bounds(space.lowers, space.uppers).tolist() == [1, 2, 3, 4, 5, 6]
    np.testing.assert_array_equal(space.classify_points(x), expected)


def test_full_scan_settles_what_the_pair_leaves():
    # [1.1, 3.9] is nearest the wide first class [0, 4] (distance 1.1); its
    # pair is classes 2 and 3, [1, 1.5] and [2, 2.5] (best 1.4, not below
    # 1.1 = lower - L_1), which cannot certify it, so the full scan settles it
    lowers, uppers = np.array([(0.0, 4.0), (1.0, 1.5), (2.0, 2.5), (5.0, 6.0), (7.0, 8.0)]).T
    space = PatternSpace(lowers, uppers)
    lower, upper = np.array([1.1, 1.05, 1.3]), np.array([3.9, 3.95, 3.99])
    ids, certified = space._nearest_pair(lower, upper)
    assert not certified.any()
    assert ids.tolist() == [3, 3, 3]
    got = space.classify_bounds(lower, upper)
    np.testing.assert_array_equal(got, full_scan_ids(space, lower, upper))
    assert got.tolist() == [1, 1, 1]


@pytest.fixture(scope="module")
def sweep_spaces(default_result):
    """The spaces of the default sweep, class counts 16..36, on the raw and the z-scored series."""
    series = {"raw": default_result.data, "z-scored": zero_mean_normalize(default_result.data)[0]}
    return {(scaling, cpms): build_space(data, cpms) for scaling, data in series.items() for cpms in range(16, 37)}


def point_probes(space, neighbours=2):
    """Scalars where the encoding of ``[x, x]`` is easiest to get wrong.

    The class bounds, the breakpoints ``(L_j + U_{j+1}) / 2`` where the
    nearest class changes, both ends of the encoding grid and values beyond
    them, each with its ``neighbours`` nearest floats on either side; a
    sweep across the grid; and huge, infinite and NaN values.
    """
    lowers, uppers = space.lowers, space.uppers
    span = uppers.max() - lowers.min()
    ends = np.array([space._origin, space._top, lowers.min() - span, uppers.max() + span])
    exact = np.concatenate((lowers, uppers, 0.5 * (lowers[:-1] + uppers[1:]), ends))
    probes = [exact]
    down = up = exact
    for _ in range(neighbours):
        down, up = np.nextafter(down, -np.inf), np.nextafter(up, np.inf)
        probes += [down, up]
    probes.append(np.linspace(lowers.min() - 0.1 * span, uppers.max() + 0.1 * span, 4001))
    probes.append(np.array([1e300, -1e300, np.inf, -np.inf, np.nan]))
    return np.concatenate(probes)


def two_class_space(rng):
    """Two classes about 30 from zero whose breakpoint lies near it.

    The breakpoint of two classes is the middle of their extent, a cell edge
    of the encoding grid, and there the rounded distances, of size 30, tie
    over dozens of floats on either side, so a grid cell that holds one of
    them must not be taken for a one-class cell.
    """
    first = -rng.uniform(30.0, 40.0)
    bounds = np.cumsum([first, rng.uniform(0.0, 2.0), rng.uniform(0.1, 2.0)])
    upper = -first + rng.uniform(-1.0, 1.0)
    return PatternSpace([bounds[0], bounds[2]], [bounds[1], upper])


def test_encoding_matches_the_full_scan(sweep_spaces):
    # the encoding table, its two-class cells and the classify_bounds
    # fallback together give the full scan's id for every scalar, and
    # classify_points answers as classify_bounds(x, x), on random spaces of
    # every layout (overlapping and wide ones have no table and fall back
    # whole), on the spaces of the default sweep, raw and z-scored, at the
    # 64 floats either side of a breakpoint on a cell edge, and on one-cell grids
    rng = np.random.default_rng(7)
    layouts = ("disjoint", "overlapping", "wide")
    cases = [(random_space(rng, cpms, layout), 2) for layout in layouts for cpms in range(2, 41)]
    cases += [(space, 2) for space in sweep_spaces.values()]
    cases += [(two_class_space(rng), 64) for _ in range(50)]
    # a zero span, and a subnormal one whose cells / span overflows, leave the grid a single cell
    one_cell = [PatternSpace([5, 5], [5, 5]), PatternSpace([0, 0], [0, 5e-324])]
    assert [space._code.size for space in one_cell] == [1, 1]
    cases += [(space, 2) for space in one_cell]
    for space, neighbours in cases:
        x = point_probes(space, neighbours)
        got = space.classify_points(x)
        np.testing.assert_array_equal(got, full_scan_ids(space, x, x), err_msg=repr(space.to_json()))
        np.testing.assert_array_equal(got, space.classify_bounds(x, x), err_msg=repr(space.to_json()))


def test_encoding_table_settles_the_default_forecast_and_every_z_scored_sweep_model(
    default_model, default_result, sweep_spaces, monkeypatch
):
    # coverage guard, so that a grid change cannot switch the fast path off
    # unseen: at 64 cells per class the encoding table reads at least 94.8 %
    # of these samples straight from their cell (the rest through its
    # two-class cells) and leaves none to classify_bounds; the bounds, 94 %
    # and 0.1 %, leave a little room
    sent = []
    classify_bounds = PatternSpace.classify_bounds

    def spy(self, lower, upper):
        sent.append(np.size(lower))
        return classify_bounds(self, lower, upper)

    monkeypatch.setattr(PatternSpace, "classify_bounds", spy)
    z_scored = zero_mean_normalize(default_result.data)[0]
    cases = [(default_model.space, default_result.data)]
    cases += [(space, z_scored) for (scaling, _), space in sweep_spaces.items() if scaling == "z-scored"]
    for space, data in cases:
        direct = np.mean(space._code.take(space._cells(data)) >= 0)
        sent.clear()
        space.classify_points(data)
        stray = sum(sent)
        assert direct >= 0.94, f"cpms {space.cpms}: {direct:.4f} read straight from a cell"
        assert stray <= 0.001 * data.size, f"cpms {space.cpms}: {stray} samples left to classify_bounds"


def test_class_bounds_are_the_stored_intervals():
    space = build_space([0.0, 0.0, 10.0, 10.0], 2)
    assert space.lowers.tolist() == [cls.interval.lower for cls in space.classes]
    assert space.uppers.tolist() == [cls.interval.upper for cls in space.classes]
    assert [cls.id for cls in space.classes] == [1, 2]
    assert space.classes is space.classes  # built once, on first access
    # the space is its bounds: space.json holds no FCM center, the one field the BLAS kernel moved
    assert [sorted(cls) for cls in space.to_json()["classes"]] == [["id", "lower", "upper"]] * 2
    for bounds in (space.lowers, space.uppers):
        with pytest.raises(ValueError):
            bounds[0] = 5.0


def test_constructor_copies_its_arrays():
    lowers, uppers = np.array([0.0, 2.0]), np.array([1.0, 3.0])
    space = PatternSpace(lowers, uppers)
    lowers[0] = uppers[0] = -1.0
    assert space.lowers.tolist() == [0.0, 2.0] and space.uppers.tolist() == [1.0, 3.0]
    assert lowers.flags.writeable


def test_constructor_rejects_malformed_spaces():
    with pytest.raises(ClusteringError, match="^a pattern space needs at least two classes, got 0$"):
        PatternSpace([], [])
    with pytest.raises(ClusteringError, match="^a pattern space needs at least two classes, got 1$"):
        PatternSpace([0.0], [1.0])
    with pytest.raises(ClusteringError, match=r"^bounds must be 1-D and of one length, got "):
        PatternSpace([0.0, 2.0], [1.0])
    with pytest.raises(ClusteringError, match=r"^bounds must be 1-D and of one length, got "):
        PatternSpace([[0.0]], [[1.0]])
    decreasing = r"^class interval lower bounds must be non-decreasing, got \[0\.0, -1\.0\]$"
    with pytest.raises(ClusteringError, match=decreasing):
        PatternSpace([0.0, -1.0], [1.0, 2.0])
    # every bound finite, and lower <= upper in every class
    for lower, upper in ((2.0, 1.0), (np.nan, 1.0), (0.0, np.inf), (-np.inf, 0.0)):
        with pytest.raises(ClusteringError, match=r"^class 2 bounds must be finite with lower <= upper, got \["):
            PatternSpace([-1.0, lower], [0.0, upper])

    # the grid spans the extent, max U - L_1, and the encoding halves each
    # L_j + U_j, so neither may overflow; the check raises no numpy warning
    for bounds in (
        [(-1e308, -1e308), (1e308, 1e308)],
        [(-1e308, 0.0), (-0.5e308, 1e308), (0.0, 0.0)],  # an upper bound beyond U_k
        [(0.0, 0.0), (1e308, 1.5e308)],
    ):
        lowers, uppers = np.array(bounds).T
        with pytest.raises(ClusteringError, match=r"^class bounds from .* overflow a float$"):
            PatternSpace(lowers, uppers)


def test_from_json_checks_class_ids(default_model):
    doc = default_model.space.to_json()
    doc["classes"][3]["id"] = 3
    with pytest.raises(DataError, match=r"^pattern space: class ids must run 1..26 in order, got \[1, 2, 3, 3, 5, "):
        PatternSpace.from_json(doc)


def test_json_round_trip_is_bit_exact(default_model, tmp_path):
    space = default_model.space
    again = PatternSpace.from_json(space.to_json())
    assert [(c.interval.lower, c.interval.upper) for c in again.classes] == [
        (c.interval.lower, c.interval.upper) for c in space.classes
    ]

    path = tmp_path / "space.json"
    path.write_text(json.dumps(space.to_json()), encoding="utf-8")
    loaded = PatternSpace.load(path)
    assert loaded.to_json() == space.to_json()
    assert loaded == space


@pytest.mark.parametrize("text", ["{\n", "[" * 100_000], ids=["unclosed-object", "deep-nesting"])
def test_load_reports_a_file_that_does_not_parse(tmp_path, text):
    path = tmp_path / "space.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}: "):
        PatternSpace.load(path)


def test_spaces_are_equal_only_when_every_bound_is(default_model):
    space = default_model.space
    assert PatternSpace.from_json(json.loads(json.dumps(space.to_json()))) == space
    for field in ("lower", "upper"):
        doc = space.to_json()
        doc["classes"][7][field] = np.nextafter(doc["classes"][7][field], np.inf if field == "upper" else -np.inf)
        moved = PatternSpace.from_json(doc)
        assert moved != space and not moved == space


def test_from_json_checks_declared_cpms(default_model):
    doc = default_model.space.to_json()
    doc["cpms"] = doc["cpms"] + 1
    with pytest.raises(DataError, match="declared cpms"):
        PatternSpace.from_json(doc)


def test_saved_file_is_plain_json(default_model, tmp_path):
    path = tmp_path / "space.json"
    path.write_text(json.dumps(default_model.space.to_json()), encoding="utf-8")
    doc = json.loads(path.read_text())
    assert doc["cpms"] == 26
    assert len(doc["classes"]) == 26
