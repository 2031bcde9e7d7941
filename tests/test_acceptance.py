"""Acceptance suite: one test per shipped guarantee, each with its runtime budget.

Every test prints a single summary line (visible with ``pytest -s`` or on
failure) so a run reads as a pass/fail checklist.
"""

import json
import time
from dataclasses import replace

import numpy as np

from iarx.data_io import SyntheticSpec, WhiteNoiseInput, default_synthetic_spec, synthesize
from iarx.intervals import Interval, add, pair_product, scale
from iarx.model import (
    IarxParams,
    _design_matrices,
    fit,
    lag_columns,
    nnls,
    predict_bounds,
    predict_compositional,
)
from iarx.pattern_space import PatternSpace
from iarx.pipeline import (
    MovingPatternModel,
    evaluate,
    fit_model,
    forecast_series,
    robustness_experiment,
    sweep_cpms,
)
from oracles import assemble_qp, hausdorff_distance, solve_qp_nonneg, sub

# Frozen fixtures for the robustness criterion: the small magnitude moves the
# preliminary RMSEs by > 1e-4 yet every step keeps its final class; the large
# magnitude pushes forecasts across class boundaries.
DIGESTED_MAGNITUDE = 0.01
FLIPPING_MAGNITUDE = 0.5
PERTURBATION_SEED = 8

# Frozen fixture for the recovery criterion: a stable, persistently excited
# generator with strictly positive radius coefficients.
RECOVERY_SPEC = SyntheticSpec(
    length=864,
    true_params=IarxParams(
        n=3, m=1, A=[0.02, 0.82, 0.12, -0.05, 0.35], C=[0.03, 0.40, 0.15, 0.08, 0.06]
    ),
    noise_center=0.0,
    noise_radius=0.0,
    input_process=WhiteNoiseInput(amplitude=1.0),
    seed=11,
)


def _random_history(rng, length):
    lowers = rng.normal(0.0, 1.0, size=length)
    widths = rng.uniform(0.0, 2.0, size=length)
    return [Interval(lo, lo + w) for lo, w in zip(lowers, widths)]


def _centers_radii(history):
    return np.array([iv.center for iv in history]), np.array([iv.radius for iv in history])


def test_prediction_route_equivalence():
    """Direct-form and term-by-term one-step predictions agree on both bounds."""
    rng = np.random.default_rng(101)
    worst = 0.0
    start = time.perf_counter()
    for _ in range(1000):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(0, 4))
        width = 1 + n + m
        params = IarxParams(
            n=n, m=m, A=rng.normal(0.0, 1.0, size=width), C=rng.uniform(0.0, 1.0, size=width)
        )
        length = max(n, m) + int(rng.integers(1, 11))
        history = _random_history(rng, length)
        u = rng.normal(0.0, 2.0, size=length)
        k = int(rng.integers(max(n, m), length))
        x, x_abs = lag_columns(*_centers_radii(history), u, n, m, k, k + 1)
        (lower,), (upper,) = predict_bounds(params, x, x_abs)
        composed = predict_compositional(params, history, u, k)
        worst = max(worst, abs(lower - composed.lower), abs(upper - composed.upper))
        assert abs(lower - composed.lower) < 1e-12
        assert abs(upper - composed.upper) < 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"[PASS] route equivalence: max bound gap {worst:.2e} over 1000 instances ({elapsed:.2f}s)")


def test_radius_objective_offset_and_minimizers():
    """The two radius objectives differ by a constant; both solvers find one minimizer."""
    rng = np.random.default_rng(202)
    worst_offset = 0.0
    worst_gap = 0.0
    start = time.perf_counter()
    for _ in range(100):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(0, 3))
        length = int(rng.integers(40, 81))
        centers, radii = _centers_radii(_random_history(rng, length))
        u = rng.normal(0.0, 1.5, size=length)
        _, _, x_abs, y_r = _design_matrices(centers, radii, u, n, m)
        qp = assemble_qp(centers, radii, u, n, m)

        def j1(c):
            resid = y_r - x_abs @ c
            return float(resid @ resid)

        c_a = rng.uniform(0.0, 1.0, size=1 + n + m)
        c_b = rng.uniform(0.0, 1.0, size=1 + n + m)
        offset_a = j1(c_a) - qp.objective(c_a)
        offset_b = j1(c_b) - qp.objective(c_b)
        rel = abs(offset_a - offset_b) / max(abs(offset_a), abs(offset_b))
        worst_offset = max(worst_offset, rel)
        assert rel < 1e-8

        c_nnls = nnls(x_abs, y_r)
        c_qp = solve_qp_nonneg(qp)
        gap = float(np.max(np.abs(c_nnls - c_qp)))
        worst_gap = max(worst_gap, gap)
        assert gap < 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(
        f"[PASS] objective offset rel dev {worst_offset:.2e}, "
        f"minimizer gap {worst_gap:.2e} over 100 problems ({elapsed:.2f}s)"
    )


def test_radius_fit_matches_grid_search():
    """On clamped two-coefficient problems the solver lands on the grid optimum with clean KKT."""
    rng = np.random.default_rng(303)
    grid = np.arange(0.0, 1.2 + 1e-9, 0.001)
    gx, gy = np.meshgrid(grid, grid, indexing="ij")
    points = np.column_stack([gx.ravel(), gy.ravel()])
    worst = 0.0
    start = time.perf_counter()
    for _ in range(20):
        # Alternating radii anticorrelate with their own lag, so the
        # unconstrained lag coefficient is negative - the constraint binds.
        length = int(rng.integers(60, 120))
        base = rng.uniform(0.4, 0.6)
        amp = rng.uniform(0.25, 0.35)
        radii = base + amp * (-1.0) ** np.arange(length) + rng.uniform(0.0, 0.05, size=length)
        centers = rng.normal(0.0, 1.0, size=length)
        u = np.zeros(length)

        _, _, x_abs, y_r = _design_matrices(centers, radii, u, 1, 0)
        unconstrained = np.linalg.lstsq(x_abs, y_r, rcond=None)[0]
        assert unconstrained.min() < 0.0

        fitted = fit(centers, radii, u, 1, 0).C
        objective = (
            np.einsum("pi,ij,pj->p", points, x_abs.T @ x_abs, points)
            - 2.0 * points @ (x_abs.T @ y_r)
        )
        best = points[int(np.argmin(objective))]
        assert np.all(np.abs(fitted - best) <= 0.002)
        worst = max(worst, float(np.max(np.abs(fitted - best))))

        gradient = 2.0 * (x_abs.T @ x_abs @ fitted - x_abs.T @ y_r)
        tol = 1e-8 * max(1.0, float(np.max(np.abs(2.0 * x_abs.T @ y_r))))
        for coeff, grad in zip(fitted, gradient):
            if coeff > 1e-12:
                assert abs(grad) <= tol
            else:
                assert grad >= -tol
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"[PASS] grid oracle: max coordinate gap {worst:.2e} over 20 problems ({elapsed:.2f}s)")


def test_parameter_recovery_from_synthetic_data():
    """Refitting on generated intervals recovers the generator, noise-free and noisy."""
    start = time.perf_counter()
    clean = synthesize(RECOVERY_SPEC)
    fitted = fit(clean.data, clean.radii, clean.u, 3, 1)
    err_a = float(np.max(np.abs(fitted.A - RECOVERY_SPEC.true_params.A)))
    err_c = float(np.max(np.abs(fitted.C - RECOVERY_SPEC.true_params.C)))
    assert err_a < 1e-6
    assert err_c < 1e-6

    from dataclasses import replace

    noisy_spec = replace(RECOVERY_SPEC, noise_center=0.01, noise_radius=0.01)
    noisy = synthesize(noisy_spec)
    fitted_n = fit(noisy.data, noisy.radii, noisy.u, 3, 1)
    err_a_n = float(np.max(np.abs(fitted_n.A - RECOVERY_SPEC.true_params.A)))
    err_c_n = float(np.max(np.abs(fitted_n.C - RECOVERY_SPEC.true_params.C)))
    assert err_a_n < 0.05
    assert err_c_n < 0.05
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0
    print(
        f"[PASS] recovery: clean ({err_a:.1e}, {err_c:.1e}), "
        f"noisy ({err_a_n:.1e}, {err_c_n:.1e}) ({elapsed:.2f}s)"
    )


def test_final_predictions_closed_over_class_intervals(default_model, default_result, default_records):
    """Every final forecast is bit-identical to a class interval."""
    runs = [(default_model, default_records)]
    extra = fit_model(default_result.data, default_result.u, cpms=19, n=3, m=1)
    runs.append((extra, forecast_series(extra, default_result.data, default_result.u)))
    total = 0
    for model, records in runs:
        class_set = {(c.interval.lower, c.interval.upper) for c in model.space.classes}
        for r in records:
            assert (r.final.lower, r.final.upper) in class_set
        total += len(records)
    print(f"[PASS] closure: {total} final forecasts across {len(runs)} runs, all class intervals")


def test_perturbation_digestion_and_limit(default_model, default_result):
    """A shipped small perturbation is fully absorbed; a shipped large one is not."""
    data, u = default_result.data, default_result.u
    small = robustness_experiment(
        default_model, data, u, magnitude=DIGESTED_MAGNITUDE, seed=PERTURBATION_SEED
    )
    d_prelim_upper = abs(small.perturbed.prelim_upper - small.original.prelim_upper)
    d_prelim_lower = abs(small.perturbed.prelim_lower - small.original.prelim_lower)
    assert d_prelim_upper > 1e-4
    assert d_prelim_lower > 1e-4
    assert small.final_class_match
    assert small.perturbed.final_upper == small.original.final_upper
    assert small.perturbed.final_lower == small.original.final_lower

    large = robustness_experiment(
        default_model, data, u, magnitude=FLIPPING_MAGNITUDE, seed=PERTURBATION_SEED
    )
    assert not large.final_class_match
    assert (large.perturbed.final_upper, large.perturbed.final_lower) != (
        large.original.final_upper,
        large.original.final_lower,
    )
    print(
        f"[PASS] digestion: magnitude {DIGESTED_MAGNITUDE} moved prelim RMSE by "
        f"{max(d_prelim_upper, d_prelim_lower):.1e} with finals bit-identical; "
        f"magnitude {FLIPPING_MAGNITUDE} changed the finals"
    )


def average_ranks(values):
    """1-based ranks of ``values``; tied values share the mean of their ranks."""
    _, group, counts = np.unique(np.asarray(values, dtype=float), return_inverse=True, return_counts=True)
    last = np.cumsum(counts)  # the rank of the last value of each group of equal values
    return (last - 0.5 * (counts - 1))[group]


def spearman_rho(x, y):
    """Spearman's rank correlation: Pearson's r of the average ranks."""
    return np.corrcoef(average_ranks(x), average_ranks(y))[1, 0]


def test_spearman_rho_gives_tied_values_their_mean_rank():
    # the sweep trend below reads its rho from these helpers; tied values
    # share the mean of the ranks they span, as in scipy's spearmanr
    assert average_ranks([10.0, 20.0, 20.0, 30.0]).tolist() == [1.0, 2.5, 2.5, 4.0]
    assert average_ranks([3, 1, 3, 3]).tolist() == [3.0, 1.0, 3.0, 3.0]
    assert average_ranks([5.0]).tolist() == [1.0]
    assert spearman_rho([1, 2, 3, 4], [8, 6, 4, 2]) == -1.0
    # ranks [1, 2, 3, 4] against [1, 2.5, 2.5, 4]: r = 4.5 / sqrt(5 * 4.5) = sqrt(0.9)
    assert abs(spearman_rho([1, 2, 3, 4], [1, 2, 2, 3]) - np.sqrt(0.9)) <= 1e-15


def test_class_count_sweep_shows_downward_rmse_trend(default_result, monkeypatch):
    """Final RMSEs trend downward as the class count grows from 16 to 36.

    Every encoding and snap of the sweep is settled by the nearest-class
    window; none falls back to the full scan.
    """

    def no_scan(self, lower, upper):
        raise AssertionError(f"{lower.size} interval(s) fell back to the full scan")

    monkeypatch.setattr(PatternSpace, "_scan", no_scan)
    start = time.perf_counter()
    cells = sweep_cpms(default_result.data, default_result.u, range(16, 37), n=3, m=1)
    elapsed = time.perf_counter() - start
    assert all(cell.error is None for cell in cells)
    cpms = [cell.cpms for cell in cells]
    rho_upper = spearman_rho(cpms, [cell.report.final_upper for cell in cells])
    rho_lower = spearman_rho(cpms, [cell.report.final_lower for cell in cells])
    assert rho_upper < -0.3
    assert rho_lower < -0.3
    assert elapsed < 60.0
    print(
        f"[PASS] sweep trend: Spearman upper {rho_upper:.3f}, lower {rho_lower:.3f} "
        f"over cpms 16..36 ({elapsed:.2f}s)"
    )


def test_class_count_trend_holds_out_of_sample(default_result):
    """Final RMSEs on held-out steps trend downward as the class count grows.

    Each model is fitted on the first 576 samples of the raw default series
    and scored on steps 576 onward. The series is not z-scored, so no
    statistic of the held-out part reaches the fit.
    """
    data, u, split = default_result.data, default_result.u, 576
    start = time.perf_counter()
    cpms = list(range(16, 37))
    reports = [evaluate(fit_model(data[:split], u[:split], k, n=3, m=1), data, u, start=split) for k in cpms]
    elapsed = time.perf_counter() - start
    rho_upper = spearman_rho(cpms, [report.final_upper for report in reports])
    rho_lower = spearman_rho(cpms, [report.final_lower for report in reports])
    assert rho_upper < -0.3
    assert rho_lower < -0.3
    print(
        f"[PASS] held-out sweep trend: Spearman upper {rho_upper:.3f}, lower {rho_lower:.3f} "
        f"over cpms 16..36 ({elapsed:.2f}s)"
    )


def test_radius_channel_beats_its_zero_radius_ablation(default_result):
    """Preliminary forecasts beat those of the same model without its radius channel.

    The ablation keeps the space and the center coefficients ``A`` and sets
    every radius coefficient to 0. On the raw default series with class
    counts 16..36, in sample (fitted on all 864 samples) and held out
    (fitted on the first 576 and scored on steps 576 onward), the sum of the
    upper and lower preliminary RMSEs is below the ablation's in every cell.
    After the snap it is not; the README records those counts.
    """
    data, u, split = default_result.data, default_result.u, 576
    start = time.perf_counter()
    worst = {}
    for label, fit_end, score_start in (("in sample", data.size, None), ("held out", split, split)):
        ratios = []
        for cpms in range(16, 37):
            model = fit_model(data[:fit_end], u[:fit_end], cpms, n=3, m=1)
            ablation = MovingPatternModel(model.space, replace(model.params, C=np.zeros_like(model.params.C)))
            iarx, zero = (evaluate(candidate, data, u, start=score_start) for candidate in (model, ablation))
            ratio = (iarx.prelim_upper + iarx.prelim_lower) / (zero.prelim_upper + zero.prelim_lower)
            assert ratio < 1.0, f"{label}, cpms {cpms}: preliminary RMSE ratio {ratio:.3f}"
            ratios.append(ratio)
        worst[label] = max(ratios)
    elapsed = time.perf_counter() - start
    print(
        f"[PASS] radius channel vs. C = 0: largest preliminary RMSE ratio {worst['in sample']:.3f} in sample, "
        f"{worst['held out']:.3f} held out, over cpms 16..36 ({elapsed:.2f}s)"
    )


def test_interval_invariants_randomized():
    """Representation, arithmetic, metric, and pairing invariants over 1e5 random cases."""
    rng = np.random.default_rng(404)
    cases = 100_000
    lo = rng.normal(0.0, 10.0, size=(cases, 3))
    w = rng.uniform(0.0, 5.0, size=(cases, 3))
    lam = rng.normal(0.0, 3.0, size=cases)
    pairs = [(rng.normal(0.0, 2.0), rng.uniform(0.0, 2.0)) for _ in range(128)]
    start = time.perf_counter()
    for i in range(cases):
        d1 = Interval(lo[i, 0], lo[i, 0] + w[i, 0])
        d2 = Interval(lo[i, 1], lo[i, 1] + w[i, 1])
        d3 = Interval(lo[i, 2], lo[i, 2] + w[i, 2])
        tol = 1e-12 * max(1.0, abs(d1.lower), abs(d1.upper))

        # bounds <-> center/radius representations describe the same interval
        back = Interval.from_center_radius(d1.center, d1.radius)
        assert abs(back.lower - d1.lower) <= tol and abs(back.upper - d1.upper) <= tol

        # widths add under both addition and subtraction; ordering is preserved
        s = add(d1, d2)
        t = sub(d1, d2)
        w1, w2 = d1.upper - d1.lower, d2.upper - d2.lower
        wtol = 1e-12 * max(1.0, w1 + w2)
        assert s.lower <= s.upper and t.lower <= t.upper
        assert abs((s.upper - s.lower) - (w1 + w2)) <= wtol
        assert abs((t.upper - t.lower) - (w1 + w2)) <= wtol

        # scaling multiplies the width by |lambda|
        sc = scale(lam[i], d1)
        assert abs((sc.upper - sc.lower) - abs(lam[i]) * w1) <= 1e-12 * max(1.0, sc.upper - sc.lower)

        # metric axioms: identity, symmetry, triangle inequality
        h12 = hausdorff_distance(d1, d2)
        assert hausdorff_distance(d1, d1) == 0.0
        assert h12 == hausdorff_distance(d2, d1)
        assert hausdorff_distance(d1, d3) <= h12 + hausdorff_distance(d2, d3) + 1e-12

        # the pairing keeps center and radius channels separate
        a, c = pairs[i & 127]
        got = pair_product(d1, a, c)
        want = Interval.from_center_radius(d1.center * a, d1.radius * c)
        assert got.lower == want.lower and got.upper == want.upper
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"[PASS] interval invariants: {cases} randomized cases ({elapsed:.2f}s)")


def test_cli_chain_reruns_byte_identical(bench_layers, run_in_process, seed3_chain):
    """synth -> fit -> eval -> sweep -> robust, run again, writes the same bytes."""
    again = bench_layers.fingerprints(run_in_process(bench_layers.CHAIN))
    assert len(again) == 9
    assert again == seed3_chain
    print(f"[PASS] determinism: {len(again)} output files byte-identical across reruns")
