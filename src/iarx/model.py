"""Interval ARX model: forward prediction and two-channel identification.

The model maps ``n`` lagged interval outputs and ``m`` lagged crisp inputs
to one interval output. Its center channel is linear in the lagged centers
and inputs; its radius channel is linear in the lagged radii and absolute
inputs with nonnegative coefficients, which keeps every prediction a valid
interval by construction. Every prediction, one step or a whole series,
goes through one elementwise kernel, ``predict_bounds``;
``predict_compositional`` expands the same model in interval operations,
applying the paper's operator ``intervals.pair_product`` lag by lag, and
is kept as an independent cross-check.

Identification splits along the same seam: ordinary least squares for the
center coefficients ``A`` and nonnegative least squares for the radius
coefficients ``C``, solved by the self-contained active-set method of
``nnls``. The radius problem is equivalent to the quadratic program
``min C'HC - C'B  s.t.  C >= 0`` with ``H = sum x_abs x_abs'`` and
``B = 2 sum y_r x_abs``; the two objectives differ only by the constant
``sum y_r**2``, so their minimizers coincide, and ``_nnls_radius`` checks
the answer of ``nnls`` against the KKT conditions of that program.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, IdentificationError, fit_series, json_fields, json_floats, orders
from .intervals import Interval, add, pair_product, scale

__all__ = ["IarxParams", "lag_columns", "predict_bounds", "predict_compositional", "fit", "nnls"]

# KKT slack for the radius fit: 1e-8 scaled by the linear term of the QP.
KKT_RTOL = 1e-8


def _frozen_array(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=float, copy=True).ravel()
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class IarxParams:
    """Identified interval ARX parameters.

    ``A`` and ``C`` both have length ``1 + n + m`` and share the layout
    [intercept, n autoregressive lags, m input lags]. ``A`` drives the
    center channel; ``C`` drives the radius channel and must be
    entrywise nonnegative so predicted radii cannot go negative.
    """

    n: int
    m: int
    A: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        for name, order in zip("nm", orders(self.n, self.m)):
            object.__setattr__(self, name, order)
        width = 1 + self.n + self.m
        a = _frozen_array(self.A, "A")
        c = _frozen_array(self.C, "C")
        if a.size != width or c.size != width:
            raise ValueError(
                f"A and C must have length 1 + n + m = {width}, got {a.size} and {c.size}"
            )
        if np.any(c < 0.0):
            raise ValueError("radius coefficients C must be entrywise nonnegative")
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "C", c)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IarxParams):
            return NotImplemented
        return (
            self.n == other.n
            and self.m == other.m
            and np.array_equal(self.A, other.A)
            and np.array_equal(self.C, other.C)
        )

    def to_json(self) -> dict:
        return {"n": self.n, "m": self.m, "A": self.A.tolist(), "C": self.C.tolist()}

    @classmethod
    def from_json(cls, doc) -> "IarxParams":
        """Parameters from :meth:`to_json` output; a missing, mistyped or unknown field, or values the
        constructor rejects, is a ``DataError`` naming the model parameters."""
        what = "model parameters"
        fields = json_fields(doc, {"n": int, "m": int, "A": json_floats, "C": json_floats}, what)
        try:
            return cls(*fields)
        except ValueError as exc:
            raise DataError(f"{what}: {exc}") from None


def lag_columns(centers, radii, inputs, n: int, m: int, start: int, stop: int):
    """Regressor columns of the steps ``start .. stop - 1`` of a series, as views.

    ``centers``, ``radii`` and ``inputs`` are indexed by step; step ``k``
    reads only the lags ``k - 1 .. k - max(n, m)``. Returns ``(x, x_abs)``,
    two lists of ``n + m`` columns ordered [lagged outputs, lagged inputs],
    each newest first, with one entry per step and the intercept's ones
    implied: ``x`` holds centers and signed inputs, ``x_abs`` radii and
    absolute inputs.
    """
    inputs_abs = np.abs(inputs)
    x = [centers[start - j : stop - j] for j in range(1, n + 1)]
    x_abs = [radii[start - j : stop - j] for j in range(1, n + 1)]
    for ell in range(1, m + 1):
        x.append(inputs[start - ell : stop - ell])
        x_abs.append(inputs_abs[start - ell : stop - ell])
    return x, x_abs


def predict_bounds(params: IarxParams, x, x_abs) -> tuple[np.ndarray, np.ndarray]:
    """Preliminary bounds of every step of the columns ``x`` / ``x_abs`` of :func:`lag_columns`.

    The center ``A . [1, x]`` and the radius ``C . [1, x_abs]`` are summed
    term by term in column order, elementwise over the steps, so each step
    gets the same floating-point operations whatever the step count or the
    BLAS library. Returns ``(center - radius, center + radius)``. Overflow
    is not reported here; callers check the bounds for finiteness.
    """
    width = params.A.size - 1
    shapes = sorted({np.shape(col) for col in (*x, *x_abs)})
    if len(x) != width or len(x_abs) != width or len(shapes) != 1 or len(shapes[0]) != 1:
        raise ValueError(f"need {width} equal-length 1-D columns each, got {len(x)}, {len(x_abs)}: {shapes}")
    term = np.empty(shapes[0][0])
    with np.errstate(over="ignore", invalid="ignore"):
        # addition commutes, so the first product plus the intercept is the intercept plus it
        center = np.multiply(params.A[1], x[0])
        center += params.A[0]
        radius = np.multiply(params.C[1], x_abs[0])
        radius += params.C[0]
        for a, c, col, col_abs in zip(params.A[2:], params.C[2:], x[1:], x_abs[1:]):
            center += np.multiply(a, col, out=term)
            radius += np.multiply(c, col_abs, out=term)
        np.add(center, radius, out=term)
        return np.subtract(center, radius, out=radius), term


def predict_compositional(params: IarxParams, history, inputs, k: int) -> Interval:
    """One-step prediction built term by term from interval operations.

    Evaluates the model as written: an intercept interval, plus each lagged
    output times its pair ``(A[j], C[j])`` through ``pair_product``, plus
    each lagged input scaling its coefficient interval. Agrees with
    ``predict_bounds`` up to floating-point roundoff; kept as an independent
    expansion of the same model for cross-checking.
    """
    n, m = params.n, params.m
    if k < max(n, m):
        raise ValueError(f"step {k} has an incomplete lag window (need k >= {max(n, m)})")
    out = Interval.from_center_radius(params.A[0], params.C[0])
    for j in range(1, n + 1):
        out = add(out, pair_product(history[k - j], params.A[j], params.C[j]))
    for ell in range(1, m + 1):
        coeff = Interval.from_center_radius(params.A[n + ell], params.C[n + ell])
        out = add(out, scale(float(inputs[k - ell]), coeff))
    return out


def _design_matrices(centers, radii, inputs, n: int, m: int):
    """Stacked regressors and targets over every step with a full lag window.

    ``centers``, ``radii`` and ``inputs`` are the center, radius and input
    float vectors of one interval series, as :func:`fit` checks them. Returns
    ``(X, y_center, X_abs, y_radius)`` with one row per scored step ``k =
    max(n, m) .. len(centers) - 1``.
    """
    kmin = max(n, m)
    # Stacked row-major, as the fit's BLAS products sum in an order set by the memory layout.
    cols = lag_columns(centers, radii, inputs, n, m, kmin, centers.size)
    x, x_abs = (np.column_stack((np.ones(centers.size - kmin), *c)) for c in cols)
    return x, centers[kmin:], x_abs, radii[kmin:]


def _ols_center(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    coeffs, _, rank, _ = np.linalg.lstsq(x, y, rcond=None)
    if rank < x.shape[1]:
        raise IdentificationError(
            f"center design matrix is rank deficient (rank {rank} < {x.shape[1]}); "
            "the series does not excite every coefficient"
        )
    return coeffs


def _qp_terms(x_abs: np.ndarray, y_r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``H = sum x_abs x_abs'`` and ``B = 2 sum y_r x_abs`` of the radius problem."""
    # einsum sums the rank-one terms in a fixed order, keeping H bitwise symmetric.
    h = np.einsum("ki,kj->ij", x_abs, x_abs)
    b = 2.0 * (x_abs.T @ y_r)
    return h, b


def nnls(design, target) -> np.ndarray:
    """Nonnegative least squares ``min ||design @ c - target||**2, c >= 0``.

    Active-set method: starting from ``c = 0`` with every variable clamped,
    repeatedly frees the variable with the steepest negative gradient,
    solves the unconstrained least-squares subproblem on the free set, and
    steps back toward feasibility whenever the subproblem solution leaves
    the nonnegative orthant.

    Parameters
    ----------
    design : (rows, nvar) array_like
    target : (rows,) array_like

    Returns
    -------
    (nvar,) ndarray
        The minimizer. At termination the Karush-Kuhn-Tucker conditions
        hold to solver tolerance: free variables have (near-)zero gradient
        and clamped variables have nonnegative gradient.
    """
    x_mat = np.asarray(design, dtype=float)
    y = np.asarray(target, dtype=float).ravel()
    if x_mat.ndim != 2:
        raise ValueError(f"design must be 2-D, got ndim={x_mat.ndim}")
    rows, nvar = x_mat.shape
    if y.size != rows:
        raise ValueError(f"target length {y.size} does not match {rows} design rows")
    # The method terminates finitely in exact arithmetic, so hitting this cap
    # on active-set changes signals numerical breakdown.
    max_changes = 30 * nvar + 30

    coef = np.zeros(nvar)
    free = np.zeros(nvar, dtype=bool)
    w = x_mat.T @ y  # the dual vector X'(y - Xc) at c = 0
    # Anti-stall tolerance on the dual vector.
    tol = 1e-11 * max(1.0, float(np.max(np.abs(w), initial=0.0)))
    changes = 0
    while not free.all():
        clamped = np.flatnonzero(~free)
        best = clamped[np.argmax(w[clamped])]
        if w[best] <= tol:
            break
        changes += 1
        if changes > max_changes:
            raise IdentificationError(
                f"nonnegative least squares did not converge within {max_changes} active-set changes"
            )
        free[best] = True
        while True:
            sub = np.flatnonzero(free)
            z = np.zeros(nvar)
            z[sub] = np.linalg.lstsq(x_mat[:, sub], y, rcond=None)[0]
            if z[sub].min() > 0.0:
                coef = z
                break
            # Walk from coef toward z until the first free variable hits zero.
            blocking = sub[z[sub] <= 0.0]
            ratios = coef[blocking] / (coef[blocking] - z[blocking])
            alpha = float(ratios.min())
            coef = coef + alpha * (z - coef)
            newly_clamped = free & (coef <= 1e-14 * max(1.0, float(np.max(np.abs(coef)))))
            # The blocking variable itself must leave the free set.
            drop = blocking[np.argmin(ratios)]
            newly_clamped[drop] = True
            coef[newly_clamped] = 0.0
            free[newly_clamped] = False
            if not free.any():
                break
        w = x_mat.T @ (y - x_mat @ coef)
    return coef


def _nnls_radius(x_abs: np.ndarray, y_r: np.ndarray) -> np.ndarray:
    coeffs = nnls(x_abs, y_r)
    h, b = _qp_terms(x_abs, y_r)
    grad = 2.0 * (h @ coeffs) - b
    eps = KKT_RTOL * (1.0 + float(np.max(np.abs(b), initial=0.0)))
    # written so that a NaN, for which every comparison is false, fails it
    if not (float(grad.min(initial=0.0)) >= -eps and float(np.max(np.abs(coeffs * grad), initial=0.0)) <= eps):
        raise IdentificationError(
            "radius fit failed its optimality check "
            f"(min gradient {grad.min():.3e}, max complementarity {np.max(np.abs(coeffs * grad)):.3e})"
        )
    return coeffs


def fit(centers, radii, inputs, n: int, m: int) -> IarxParams:
    """Identify both channels from one build of the design matrices.

    ``centers`` and ``radii`` are the center and radius arrays of the
    interval series, ``inputs`` the crisp input series, all checked by
    :func:`~iarx.errors.fit_series`. ``A`` is the least squares fit of the
    centers and reads no radius; a rank-deficient design raises
    ``IdentificationError``, because any returned ``A`` would be one of
    infinitely many. ``C`` is the nonnegative least squares fit of the radii
    on the absolute inputs and reads no center; it is checked against the
    KKT conditions of the equivalent quadratic program, and a violation is
    an ``IdentificationError`` too, as is numpy's ``LinAlgError`` from either fit.
    """
    n, m, centers, radii, inputs = fit_series(n, m, centers=centers, radii=radii, inputs=inputs)
    x, y_c, x_abs, y_r = _design_matrices(centers, radii, inputs, n, m)
    try:
        a, c = _ols_center(x, y_c), _nnls_radius(x_abs, y_r)
    except np.linalg.LinAlgError as exc:  # a ValueError to Python, a numerical failure here
        raise IdentificationError(f"least squares failed: {exc}") from None
    return IarxParams(n=n, m=m, A=a, C=c)
