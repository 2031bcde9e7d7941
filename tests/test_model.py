"""Tests for the two-channel interval ARX model.

The center channel is plain least squares on interval centers; the radius
channel is nonnegative least squares on interval radii and absolute inputs.
The prediction kernel (center/radius arithmetic) and its oracle (explicit
interval operations) must agree. The radius solver is cross-checked against
the coordinate-descent QP solver of ``tests/oracles.py``: an independent
oracle written for that check, not an earlier form of production code.
"""

import numpy as np
import pytest

from iarx import model
from iarx.errors import DataError, IdentificationError
from iarx.intervals import Interval
from iarx.model import (
    IarxParams,
    _design_matrices,
    fit,
    lag_columns,
    nnls,
    predict_bounds,
    predict_compositional,
)
from oracles import QpProblem, assemble_qp, solve_qp_nonneg


def _series(rng, length):
    """Center and radius arrays of a random interval series."""
    return rng.normal(size=length), np.abs(rng.normal(size=length))


def _interval_series(rng, length):
    centers, radii = _series(rng, length)
    return [Interval(c - r, c + r) for c, r in zip(centers, radii)]


def _one_step(params, centers, radii, u, k):
    """``(lower, upper)`` of step ``k`` from a one-row call of the kernel."""
    x, x_abs = lag_columns(centers, radii, u, params.n, params.m, k, k + 1)
    lower, upper = predict_bounds(params, x, x_abs)
    return lower[0], upper[0]


# ---------------------------------------------------------------- parameters


def test_params_validation():
    with pytest.raises(ValueError):
        IarxParams(n=0, m=1, A=[1.0, 2.0], C=[0.0, 0.0])
    with pytest.raises(ValueError):
        IarxParams(n=1, m=1, A=[1.0, 2.0], C=[0.0, 0.0, 0.0])  # wrong A length
    with pytest.raises(ValueError):
        IarxParams(n=1, m=0, A=[1.0, 2.0], C=[0.1, -0.1])  # negative C entry
    with pytest.raises(ValueError):
        IarxParams(n=1, m=0, A=[1.0, float("nan")], C=[0.1, 0.1])
    with pytest.raises(ValueError, match=r"^autoregressive order n must be an integer, got 1\.5$"):
        IarxParams(n=1.5, m=0, A=[1.0, 2.0], C=[0.0, 0.0])
    with pytest.raises(ValueError, match=r"^input order m must be an integer, got 0\.5$"):
        IarxParams(n=1, m=0.5, A=[1.0, 2.0], C=[0.0, 0.0])
    p = IarxParams(n=np.int64(1), m=np.int64(0), A=[1.0, 2.0], C=[0.0, 0.0])
    assert (type(p.n), type(p.m)) == (int, int)
    with pytest.raises(ValueError, match=r"^autoregressive order n must be an integer, got 1\.5$"):
        model.fit(np.zeros(20), np.zeros(20), np.zeros(20), 1.5, 0)  # fit checks the orders too


def test_params_equality_and_json_round_trip():
    p = IarxParams(n=2, m=1, A=[0.1, 0.5, 0.2, 0.3], C=[0.05, 0.4, 0.1, 0.0])
    q = IarxParams.from_json(p.to_json())
    assert p == q
    assert p != IarxParams(n=2, m=1, A=[0.1, 0.5, 0.2, 0.31], C=[0.05, 0.4, 0.1, 0.0])
    # a value the constructor rejects is the same class of input problem as a missing field
    with pytest.raises(DataError, match=r"^model parameters: A and C must have length 1 \+ n \+ m = 5, got 2 and 5$"):
        IarxParams.from_json({"n": 3, "m": 1, "A": [1, 2], "C": [0, 0, 0, 0, 0]})


def test_params_arrays_are_frozen():
    p = IarxParams(n=1, m=0, A=[0.1, 0.9], C=[0.05, 0.5])
    with pytest.raises((ValueError, RuntimeError)):
        p.A[0] = 7.0


# ----------------------------------------------------------------- regressors


def test_regressor_layout():
    # columns: [centers of lags 1..n, inputs of lags 1..m], the intercept's ones implied;
    # the series is [-0.5, 1.1], [0.8, 2.0], [1.2, 3.4] and step 3 is the next, unseen one
    centers = np.array([0.3, 1.4, 2.3])
    radii = np.array([0.8, 0.6, 1.1])
    u = np.array([0.0, 0.0, -1.5, 0.0])
    x, x_abs = lag_columns(centers, radii, u, 3, 1, 3, 4)
    np.testing.assert_array_equal(np.column_stack(x), [[2.3, 1.4, 0.3, -1.5]])
    np.testing.assert_array_equal(np.column_stack(x_abs), [[1.1, 0.6, 0.8, 1.5]])
    # the lagged outputs and signed inputs are views of the series, not copies
    assert all(np.shares_memory(col, centers) for col in x[:3])
    assert all(np.shares_memory(col, radii) for col in x_abs[:3])
    assert np.shares_memory(x[3], u)


# ----------------------------------------------------------------- prediction


def test_predict_hand_example():
    params = IarxParams(
        n=3,
        m=1,
        A=[0.0055, 1.2369, 0.0356, -0.2880, -0.0085],
        C=[0.0124, 0.8898, 0.0, 0.0, 0.0018],
    )
    dx = [Interval(-0.5, 1.1), Interval(0.8, 2.0), Interval(1.2, 3.4)]
    u = [0.0, 0.0, 1.5, 0.0]
    centers = np.array([iv.center for iv in dx])
    radii = np.array([iv.radius for iv in dx])
    out = Interval(*_one_step(params, centers, radii, u, 3))
    assert abs(out.center - 2.80106) < 1e-12
    assert abs(out.radius - 0.99388) < 1e-12


def test_predicted_radius_never_negative():
    rng = np.random.default_rng(14)
    params = IarxParams(n=2, m=1, A=rng.normal(size=4), C=np.abs(rng.normal(size=4)))
    centers, radii = _series(rng, 200)
    u = rng.normal(size=200)
    lower, upper = predict_bounds(params, *lag_columns(centers, radii, u, 2, 1, 2, 200))
    assert np.all(upper - lower >= 0.0)


def test_prediction_routes_agree():
    # scalar center/radius route vs. literal interval-arithmetic expansion
    rng = np.random.default_rng(2)
    for _ in range(300):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(0, 4))
        k = max(n, m) + int(rng.integers(0, 3))
        params = IarxParams(
            n=n, m=m, A=rng.normal(size=1 + n + m), C=np.abs(rng.normal(size=1 + n + m))
        )
        dx = _interval_series(rng, k + 1)
        u = rng.normal(size=k + 1)
        centers = np.array([iv.center for iv in dx])
        radii = np.array([iv.radius for iv in dx])
        lower, upper = _one_step(params, centers, radii, u, k)
        b = predict_compositional(params, dx, u, k)
        assert abs(lower - b.lower) <= 1e-12 * max(1.0, abs(lower))
        assert abs(upper - b.upper) <= 1e-12 * max(1.0, abs(upper))


def test_compositional_prediction_needs_a_full_lag_window():
    params = IarxParams(n=3, m=1, A=[0.0] * 5, C=[0.0] * 5)
    dx = [Interval(0.0, 1.0)] * 4
    with pytest.raises(ValueError, match=r"^step 2 has an incomplete lag window \(need k >= 3\)$"):
        predict_compositional(params, dx, [0.0] * 4, 2)


def test_predict_bounds_rows_match_single_step_predictions():
    # each row gets exactly what a one-row call gives it: no dependence on the row count
    rng = np.random.default_rng(3)
    params = IarxParams(n=3, m=2, A=rng.normal(size=6), C=np.abs(rng.normal(size=6)))
    centers, radii = _series(rng, 60)
    u = rng.normal(size=60)
    lower, upper = predict_bounds(params, *lag_columns(centers, radii, u, 3, 2, 3, 61))
    singles = np.array([_one_step(params, centers, radii, u, k) for k in range(3, 61)])
    np.testing.assert_array_equal(lower, singles[:, 0])
    np.testing.assert_array_equal(upper, singles[:, 1])
    # the kernel takes n + m = 5 columns per channel, each 1-D and all of one length
    with pytest.raises(ValueError, match=r"^need 5 equal-length 1-D columns each, got 4, 4"):
        predict_bounds(params, [np.ones(4)] * 4, [np.ones(4)] * 4)
    with pytest.raises(ValueError, match=r"got 5, 4"):
        predict_bounds(params, [np.ones(4)] * 5, [np.ones(4)] * 4)
    with pytest.raises(ValueError, match=r"\[\(3,\), \(4,\)\]$"):
        predict_bounds(params, [np.ones(4)] * 5, [np.ones(4)] * 4 + [np.ones(3)])
    with pytest.raises(ValueError, match=r"\[\(4, 1\)\]$"):
        predict_bounds(params, [np.ones((4, 1))] * 5, [np.ones((4, 1))] * 5)
    with pytest.raises(ValueError, match=r"\[\(\)\]$"):
        predict_bounds(params, np.ones(5), np.ones(5))


def test_column_views_predict_the_bits_of_the_design_matrix_rows():
    # the kernel reads lag_columns's views in place; the strided columns of the
    # row-major matrices that _design_matrices stacks for the fit give the same bits
    rng = np.random.default_rng(4)
    params = IarxParams(n=3, m=2, A=rng.normal(size=6), C=np.abs(rng.normal(size=6)))
    centers, radii = _series(rng, 500)
    u = rng.normal(size=500)
    x, x_abs = lag_columns(centers, radii, u, 3, 2, 3, 500)
    x_fit, _, x_abs_fit, _ = _design_matrices(centers, radii, u, 3, 2)
    assert x_fit.flags.c_contiguous and x_abs_fit.flags.c_contiguous
    np.testing.assert_array_equal(x_fit, np.column_stack((np.ones(497), *x)))
    np.testing.assert_array_equal(x_abs_fit, np.column_stack((np.ones(497), *x_abs)))
    lower, upper = predict_bounds(params, x, x_abs)
    rows = predict_bounds(params, x_fit[:, 1:].T, x_abs_fit[:, 1:].T)
    np.testing.assert_array_equal(lower, rows[0])
    np.testing.assert_array_equal(upper, rows[1])


# --------------------------------------------------------------- center channel


def test_center_fit_ignores_radii():
    # other radii change C but leave A bit for bit
    rng = np.random.default_rng(5)
    centers = rng.normal(size=300)
    u = rng.normal(size=300)
    radii_a = np.abs(rng.normal(size=300))
    radii_b = np.abs(rng.normal(size=300))
    fit_a, fit_b = fit(centers, radii_a, u, 2, 1), fit(centers, radii_b, u, 2, 1)
    np.testing.assert_array_equal(fit_a.A, fit_b.A)
    assert not np.array_equal(fit_a.C, fit_b.C)


def test_radius_fit_ignores_centers():
    # other centers change A but leave C bit for bit
    rng = np.random.default_rng(6)
    radii = np.abs(rng.normal(size=300))
    u = rng.normal(size=300)
    cen_a = rng.normal(size=300)
    cen_b = rng.normal(size=300)
    fit_a, fit_b = fit(cen_a, radii, u, 2, 1), fit(cen_b, radii, u, 2, 1)
    np.testing.assert_array_equal(fit_a.C, fit_b.C)
    assert not np.array_equal(fit_a.A, fit_b.A)


def test_center_and_radius_arrays_must_match():
    rng = np.random.default_rng(19)
    centers, radii = _series(rng, 50)
    u = rng.normal(size=50)
    with pytest.raises(DataError, match="^centers length 50 does not match radii length 49$"):
        fit(centers, radii[:-1], u, 2, 1)
    with pytest.raises(DataError, match="^centers length 49 does not match radii length 50$"):
        assemble_qp(centers[:-1], radii, u, 2, 1)


def test_fit_checks_the_input_length_and_the_usable_steps():
    rng = np.random.default_rng(20)
    centers, radii = _series(rng, 50)
    u = rng.normal(size=50)
    with pytest.raises(DataError, match="^centers length 50 does not match inputs length 49$"):
        fit(centers, radii, u[:-1], 2, 1)
    # n = 2, m = 1: 4 coefficients per channel, and a 5-step series leaves 3 rows
    with pytest.raises(DataError, match="^need at least 6 samples to fit orders n=2, m=1$"):
        fit(centers[:5], radii[:5], u[:5], 2, 1)


def test_center_fit_requires_full_rank():
    rng = np.random.default_rng(7)
    centers, radii = _series(rng, 50)
    u = np.zeros(50)  # the input column is identically zero
    with pytest.raises(IdentificationError, match="rank deficient"):
        fit(centers, radii, u, 1, 1)


def test_noiseless_recovery_small_system():
    rng = np.random.default_rng(8)
    true = IarxParams(n=2, m=1, A=[0.1, 0.6, 0.2, 0.4], C=[0.05, 0.3, 0.2, 0.1])
    centers = np.empty(200)
    radii = np.empty(200)
    centers[:2] = rng.normal(size=2)
    radii[:2] = np.abs(rng.normal(size=2))
    u = rng.normal(size=200)
    for k in range(2, 200):
        x = np.array([1.0, centers[k - 1], centers[k - 2], u[k - 1]])
        xa = np.array([1.0, radii[k - 1], radii[k - 2], abs(u[k - 1])])
        centers[k] = true.A @ x
        radii[k] = true.C @ xa
    fitted = fit(centers, radii, u, 2, 1)
    np.testing.assert_allclose(fitted.A, true.A, atol=1e-9)
    np.testing.assert_allclose(fitted.C, true.C, atol=1e-9)


# --------------------------------------------------------------- radius channel


def test_qp_matrix_is_exactly_symmetric():
    rng = np.random.default_rng(9)
    centers, radii = _series(rng, 120)
    u = rng.normal(size=120)
    qp = assemble_qp(centers, radii, u, 3, 1)
    assert np.array_equal(qp.H, qp.H.T)
    assert np.all(np.linalg.eigvalsh(qp.H) > -1e-9)


def test_qp_requires_exact_symmetry():
    with pytest.raises(ValueError):
        QpProblem(H=np.array([[1.0, 0.1], [0.10000001, 1.0]]), B=np.array([1.0, 1.0]))


def test_objective_offset_is_constant():
    # the squared-residual objective and the QP objective differ by the
    # parameter-free constant sum(y_r**2)
    rng = np.random.default_rng(10)
    centers, radii = _series(rng, 80)
    u = rng.normal(size=80)
    qp = assemble_qp(centers, radii, u, 2, 1)
    # one row per scored step k = 2..79: [1, r(k-1), r(k-2), |u(k-1)|]
    design = np.column_stack(
        [
            np.ones(78),
            radii[1:79],
            radii[0:78],
            np.abs(u[1:79]),
        ]
    )
    target = radii[2:80]
    const = float(np.sum(target**2))
    for _ in range(10):
        c = np.abs(rng.normal(size=4))
        j1 = float(np.sum((target - design @ c) ** 2))
        j2 = float(qp.objective(c))
        assert abs((j1 - j2) - const) <= 1e-9 * max(1.0, const)


def test_nnls_matches_lstsq_when_unconstrained_optimum_is_feasible():
    rng = np.random.default_rng(12)
    design = np.abs(rng.normal(size=(100, 3)))
    truth = np.array([0.5, 1.2, 0.3])
    target = design @ truth + 0.01 * rng.normal(size=100)
    free = np.linalg.lstsq(design, target, rcond=None)[0]
    assert np.all(free > 0)
    np.testing.assert_allclose(nnls(design, target), free, atol=1e-10)


def test_nnls_rejects_malformed_shapes():
    with pytest.raises(ValueError, match="^design must be 2-D, got ndim=1$"):
        nnls(np.ones(3), np.ones(3))
    with pytest.raises(ValueError, match="^target length 2 does not match 3 design rows$"):
        nnls(np.ones((3, 2)), np.ones(2))


def test_nnls_stops_at_its_change_cap(monkeypatch):
    # a subproblem solver whose answer is never positive makes the method free
    # and clamp the same variable until the cap; a monkeypatch, as no input is
    # known that makes the method cycle
    monkeypatch.setattr(np.linalg, "lstsq", lambda a, b, rcond=None: (-np.ones(a.shape[1]), None, None, None))
    message = "^nonnegative least squares did not converge within 90 active-set changes$"
    with pytest.raises(IdentificationError, match=message):
        nnls(np.eye(2), [1.0, 2.0])


def test_radius_fit_checks_the_answer_of_nnls(monkeypatch):
    # c = 0 where the gradient -B = -2 X'y is negative everywhere; a
    # monkeypatched nnls, as no input is known on which nnls stops short
    monkeypatch.setattr(model, "nnls", lambda design, target: np.zeros(np.shape(design)[1]))
    message = r"^radius fit failed its optimality check \(min gradient -6\.000e\+00, max complementarity 0\.000e\+00\)$"
    with pytest.raises(IdentificationError, match=message):
        model._nnls_radius(np.array([[1.0, 1.0], [1.0, 2.0]]), np.array([1.0, 1.0]))


def test_nnls_clamps_when_optimum_is_infeasible():
    rng = np.random.default_rng(13)
    design = np.abs(rng.normal(size=(200, 2)))
    # target anti-correlated with the second column
    target = design[:, 0] * 0.8 - design[:, 1] * 0.5 + 0.01 * rng.normal(size=200)
    sol = nnls(design, target)
    assert sol[1] == 0.0
    assert sol[0] > 0.0
    # gradient at the clamped coordinate must not point into the feasible set
    grad = 2.0 * design.T @ (design @ sol - target)
    assert grad[1] >= -1e-8 * max(1.0, np.max(np.abs(design.T @ target)))


def test_both_qp_routes_agree():
    # active-set on the residual form vs. coordinate descent on the QP form
    rng = np.random.default_rng(15)
    for _ in range(40):
        rows = int(rng.integers(20, 120))
        centers, radii = _series(rng, rows)
        u = rng.normal(size=rows)
        qp = assemble_qp(centers, radii, u, 2, 1)
        _, _, x_abs, y_r = _design_matrices(centers, radii, u, 2, 1)
        a = nnls(x_abs, y_r)
        b = solve_qp_nonneg(qp)
        assert np.max(np.abs(a - b)) < 1e-6


def test_fit_radius_is_nonnegative_and_kkt_clean(default_result):
    rng = np.random.default_rng(16)
    centers, radii = _series(rng, 400)
    u = rng.normal(size=400)
    c = fit(centers, radii, u, 3, 1).C
    assert np.all(c >= 0.0)


def test_fit_combines_both_channels():
    # A is the least squares solution on the centers, C the NNLS solution on the radii
    rng = np.random.default_rng(17)
    centers, radii = _series(rng, 150)
    u = rng.normal(size=150)
    params = fit(centers, radii, u, 2, 1)
    x, y_c, x_abs, y_r = _design_matrices(centers, radii, u, 2, 1)
    np.testing.assert_array_equal(params.A, np.linalg.lstsq(x, y_c, rcond=None)[0])
    np.testing.assert_array_equal(params.C, nnls(x_abs, y_r))


def test_fit_builds_the_design_matrices_once(monkeypatch):
    rng = np.random.default_rng(18)
    centers, radii = _series(rng, 150)
    u = rng.normal(size=150)
    calls = []
    build = model._design_matrices

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(model, "_design_matrices", counted)
    fit(centers, radii, u, 2, 1)
    assert len(calls) == 1
