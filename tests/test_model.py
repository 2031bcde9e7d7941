"""Tests for the two-channel interval ARX model.

The center channel is plain least squares on interval centers; the radius
channel is nonnegative least squares on interval radii and absolute inputs.
The prediction kernel (center/radius arithmetic) and its oracle (explicit
interval operations) must agree, and the radius solver is cross-checked against an
independently written coordinate-descent QP solver.
"""

import numpy as np
import pytest

from iarx import model
from iarx.errors import IdentificationError
from iarx.intervals import Interval
from iarx.model import (
    IarxParams,
    QpProblem,
    _design_matrices,
    assemble_qp,
    fit,
    lag_columns,
    nnls,
    predict_bounds,
    predict_compositional,
    solve_qp_nonneg,
)


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


def test_params_equality_and_json_round_trip():
    p = IarxParams(n=2, m=1, A=[0.1, 0.5, 0.2, 0.3], C=[0.05, 0.4, 0.1, 0.0])
    q = IarxParams.from_json(p.to_json())
    assert p == q
    assert p != IarxParams(n=2, m=1, A=[0.1, 0.5, 0.2, 0.31], C=[0.05, 0.4, 0.1, 0.0])


def test_params_arrays_are_frozen():
    p = IarxParams(n=1, m=0, A=[0.1, 0.9], C=[0.05, 0.5])
    with pytest.raises((ValueError, RuntimeError)):
        p.A[0] = 7.0


# ----------------------------------------------------------------- regressors


def test_regressor_layout():
    # layout: [1, centers of lags 1..n, inputs of lags 1..m]; the series is
    # [-0.5, 1.1], [0.8, 2.0], [1.2, 3.4] and step 3 is the next, unseen one
    centers = np.array([0.3, 1.4, 2.3])
    radii = np.array([0.8, 0.6, 1.1])
    u = np.array([0.0, 0.0, -1.5, 0.0])
    x, x_abs = lag_columns(centers, radii, u, 3, 1, 3, 4)
    np.testing.assert_array_equal(x, [[1.0, 2.3, 1.4, 0.3, -1.5]])
    np.testing.assert_array_equal(x_abs, [[1.0, 1.1, 0.6, 0.8, 1.5]])


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
    with pytest.raises(ValueError):
        predict_bounds(params, np.ones((4, 5)), np.ones((4, 5)))  # width is 1 + n + m = 6
    with pytest.raises(ValueError):
        predict_bounds(params, np.ones((4, 6)), np.ones((3, 6)))
    with pytest.raises(ValueError):
        predict_bounds(params, np.ones(6), np.ones(6))



def test_predict_bounds_does_not_depend_on_the_regressor_layout():
    # lag_columns lays its regressors out column by column; a row-major copy
    # of the same values predicts the same bits
    rng = np.random.default_rng(4)
    params = IarxParams(n=3, m=2, A=rng.normal(size=6), C=np.abs(rng.normal(size=6)))
    centers, radii = _series(rng, 500)
    u = rng.normal(size=500)
    x, x_abs = lag_columns(centers, radii, u, 3, 2, 3, 500)
    assert x.flags.f_contiguous and x_abs.flags.f_contiguous
    # the fit's least-squares and QP products run on row-major copies
    x_fit, _, x_abs_fit, _ = _design_matrices(centers, radii, u, 3, 2)
    assert x_fit.flags.c_contiguous and x_abs_fit.flags.c_contiguous
    np.testing.assert_array_equal(x_fit, x)
    lower, upper = predict_bounds(params, x, x_abs)
    rows = predict_bounds(params, np.ascontiguousarray(x), np.ascontiguousarray(x_abs))
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
    with pytest.raises(ValueError, match="50 centers but 49 radii"):
        fit(centers, radii[:-1], u, 2, 1)
    with pytest.raises(ValueError, match="49 centers but 50 radii"):
        assemble_qp(centers[:-1], radii, u, 2, 1)


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
