"""Interval ARX model: forward prediction and two-channel identification.

The model maps ``n`` lagged interval outputs and ``m`` lagged crisp inputs
to one interval output. Its center channel is linear in the lagged centers
and inputs; its radius channel is linear in the lagged radii and absolute
inputs with nonnegative coefficients, which keeps every prediction a valid
interval by construction. Every prediction, one step or a whole series,
goes through one elementwise kernel, ``predict_bounds``;
``predict_compositional`` expands the same model in interval operations
and is kept as an independent cross-check.

Identification splits along the same seam: ordinary least squares for the
center coefficients ``A`` and nonnegative least squares for the radius
coefficients ``C``. The radius problem is also exposed as the equivalent
quadratic program ``min C'HC - C'B  s.t.  C >= 0`` with
``H = sum x_abs x_abs'`` and ``B = 2 sum y_r x_abs``; the two objectives
differ only by the constant ``sum y_r**2``, so their minimizers coincide.
Both solvers here are self-contained: an active-set method on the
regression form and a coordinate-descent method on the QP form, kept as
independent routes for cross-checking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IdentificationError, json_field, json_floats
from .intervals import Interval, PairMatrix, add, pair_product, scale

__all__ = [
    "IarxParams",
    "QpProblem",
    "lag_columns",
    "predict_bounds",
    "predict_compositional",
    "fit",
    "assemble_qp",
    "nnls",
    "solve_qp_nonneg",
]

# KKT slack for the radius fit: 1e-8 scaled by the linear term of the QP.
KKT_RTOL = 1e-8

# Sweep cap of the coordinate-descent QP solver.
QP_MAX_SWEEPS = 200_000


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
        if self.n < 1:
            raise ValueError(f"autoregressive order n must be >= 1, got {self.n}")
        if self.m < 0:
            raise ValueError(f"input order m must be >= 0, got {self.m}")
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
        """Parameters from :meth:`to_json` output; a missing or mistyped field is a ``DataError``,
        and values the constructor rejects are a ``ValueError`` naming the model parameters."""
        what = "model parameters"
        n, m, a, c = (
            json_field(doc, key, kind, what)
            for key, kind in (("n", int), ("m", int), ("A", json_floats), ("C", json_floats))
        )
        try:
            return cls(n=n, m=m, A=a, C=c)
        except ValueError as exc:  # still a ValueError, so a spec that nests these names its field too
            raise ValueError(f"{what}: {exc}") from None


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


def lag_columns(centers, radii, inputs, n: int, m: int, start: int, stop: int):
    """Stacked regressors of the steps ``start .. stop - 1`` of a series.

    ``centers`` and ``radii`` are the center and radius arrays of the
    interval series and ``inputs`` the crisp input array, all indexed by
    step; step ``k`` reads only the lags ``k - 1 .. k - max(n, m)``.
    Returns ``(x, x_abs)`` with one row per step, laid out as [1, lagged
    outputs (newest first), lagged inputs (newest first)]: ``x`` carries
    centers and signed inputs, ``x_abs`` radii and absolute inputs.
    """
    rows = stop - start
    width = 1 + n + m
    x = np.ones((rows, width), order="F")
    x_abs = np.ones((rows, width), order="F")
    for j in range(1, n + 1):
        x[:, j] = centers[start - j : stop - j]
        x_abs[:, j] = radii[start - j : stop - j]
    for ell in range(1, m + 1):
        x[:, n + ell] = inputs[start - ell : stop - ell]
        np.abs(x[:, n + ell], out=x_abs[:, n + ell])
    return x, x_abs


def predict_bounds(params: IarxParams, x, x_abs) -> tuple[np.ndarray, np.ndarray]:
    """Preliminary bounds of every row of the stacked regressors ``x`` / ``x_abs``.

    The center ``A . x`` and the radius ``C . x_abs`` are summed term by
    term in column order, elementwise over the rows, so each row gets the
    same floating-point operations whatever the row count or the BLAS
    library. Returns ``(center - radius, center + radius)``. Overflow is
    not reported here; callers check the bounds for finiteness.
    """
    x = np.asarray(x, dtype=float)
    x_abs = np.asarray(x_abs, dtype=float)
    if x.ndim != 2 or x.shape != x_abs.shape:
        raise ValueError(f"regressor shapes {x.shape} and {x_abs.shape} must be equal and 2-D")
    if x.shape[1] != params.A.size:
        raise ValueError(
            f"regressor length {x.shape[1]} does not match parameter length {params.A.size}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        center = params.A[0] * x[:, 0]
        radius = params.C[0] * x_abs[:, 0]
        for j in range(1, params.A.size):
            center += params.A[j] * x[:, j]
            radius += params.C[j] * x_abs[:, j]
        return center - radius, center + radius


def predict_compositional(params: IarxParams, history, inputs, k: int) -> Interval:
    """One-step prediction built term by term from interval operations.

    Evaluates the model as written: an intercept interval, plus each lagged
    output passed through its coefficient pair, plus each lagged input
    scaling its coefficient interval. Agrees with ``predict_bounds`` up to
    floating-point roundoff; kept as an independent expansion of the same
    model for cross-checking.
    """
    n, m = params.n, params.m
    if k < max(n, m):
        raise ValueError(f"step {k} has an incomplete lag window (need k >= {max(n, m)})")
    out = Interval.from_center_radius(params.A[0], params.C[0])
    for j in range(1, n + 1):
        lag_pair = PairMatrix([[params.A[j]], [params.C[j]]])
        out = add(out, pair_product(history[k - j], lag_pair)[0][0])
    for ell in range(1, m + 1):
        coeff = Interval.from_center_radius(params.A[n + ell], params.C[n + ell])
        out = add(out, scale(float(inputs[k - ell]), coeff))
    return out


def _design_matrices(centers, radii, inputs, n: int, m: int):
    """Stacked regressors and targets over every step with a full lag window.

    ``centers`` and ``radii`` are the center and radius arrays of the
    interval series. Returns ``(X, y_center, X_abs, y_radius)`` with one row
    per scored step ``k = max(n, m) .. len(centers) - 1``.
    """
    if n < 1:
        raise ValueError(f"autoregressive order n must be >= 1, got {n}")
    if m < 0:
        raise ValueError(f"input order m must be >= 0, got {m}")
    centers = np.asarray(centers, dtype=float)
    radii = np.asarray(radii, dtype=float)
    total = centers.size
    if radii.size != total:
        raise ValueError(f"{total} centers but {radii.size} radii")
    if m > 0 and len(inputs) != total:
        raise ValueError(
            f"input series length {len(inputs)} does not match output length {total}"
        )
    kmin = max(n, m)
    rows = total - kmin
    width = 1 + n + m
    if rows < width:
        raise IdentificationError(
            f"need at least {width} usable steps to identify {width} coefficients, have {rows}"
        )
    u = np.asarray(inputs, dtype=float) if m > 0 else np.empty(0)
    x, x_abs = lag_columns(centers, radii, u, n, m, kmin, total)
    # The fit's BLAS products sum in an order set by the memory layout; on
    # row-major copies the fitted bits do not depend on lag_columns's layout.
    return np.ascontiguousarray(x), centers[kmin:], np.ascontiguousarray(x_abs), radii[kmin:]


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


def assemble_qp(centers, radii, inputs, n: int, m: int) -> QpProblem:
    """Quadratic-program data of the radius problem: ``H = sum x_abs x_abs'``, ``B = 2 sum y_r x_abs``.

    ``H`` is assembled so that it is exactly symmetric, and it is positive
    semidefinite by construction.
    """
    _, _, x_abs, y_r = _design_matrices(centers, radii, inputs, n, m)
    h, b = _qp_terms(x_abs, y_r)
    return QpProblem(H=h, B=b)


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

    # Anti-stall tolerance on the dual vector w = X'(y - Xc).
    tol = 1e-11 * max(1.0, float(np.max(np.abs(x_mat.T @ y), initial=0.0)))

    coef = np.zeros(nvar)
    free = np.zeros(nvar, dtype=bool)
    w = x_mat.T @ y
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


def _nnls_radius(x_abs: np.ndarray, y_r: np.ndarray) -> np.ndarray:
    coeffs = nnls(x_abs, y_r)
    h, b = _qp_terms(x_abs, y_r)
    grad = 2.0 * (h @ coeffs) - b
    eps = KKT_RTOL * (1.0 + float(np.max(np.abs(b), initial=0.0)))
    if float(grad.min(initial=0.0)) < -eps or float(np.max(np.abs(coeffs * grad), initial=0.0)) > eps:
        raise IdentificationError(
            "radius fit failed its optimality check "
            f"(min gradient {grad.min():.3e}, max complementarity {np.max(np.abs(coeffs * grad)):.3e})"
        )
    return coeffs


def fit(centers, radii, inputs, n: int, m: int) -> IarxParams:
    """Identify both channels from one build of the design matrices.

    ``centers`` and ``radii`` are the center and radius arrays of the
    interval series, ``inputs`` the crisp input series. ``A`` is the least
    squares fit of the centers and reads no radius; a rank-deficient design
    raises ``IdentificationError``, because any returned ``A`` would be one
    of infinitely many. ``C`` is the nonnegative least squares fit of the
    radii on the absolute inputs and reads no center; it is checked against
    the KKT conditions of the equivalent quadratic program, and a violation
    is an ``IdentificationError`` too.
    """
    x, y_c, x_abs, y_r = _design_matrices(centers, radii, inputs, n, m)
    return IarxParams(n=n, m=m, A=_ols_center(x, y_c), C=_nnls_radius(x_abs, y_r))
