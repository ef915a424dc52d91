"""Weighted nonlinear least-squares minimizer (Levenberg-Marquardt).

Minimizes sum_i w_i * (y_i - f(p, x_i))^2 with multiplicative damping
(lambda x10 on rejection, /10 on acceptance) and parameter covariance
reduced_chi2 * (J^T W J)^-1 at the solution. A fit converges when the
actual and the predicted relative cost reductions of an accepted step
are both below COST_TOL (Moré 1978); there is no test on the step size.
Box bounds work through an active set (Bertsekas 1982): a parameter on a
bound whose gradient points out of the box is held for that step. Equal
bounds are the always-held case, and such a parameter has zero
covariance. A step that crosses a bound with a parameter the active set
does not hold is projected: that parameter stops at the bound, and the
free parameters are solved again with its move included. Per the
reporting convention used throughout the toolkit, margins are 3-sigma
half-widths.

Every fit's model returns its values and its analytic Jacobian
together, from one computation: the exponential decays and tau(T)
(`decay`), the ZPL Gaussian and the Gaussian sideband series
(`spectrum`). `minimize` evaluates the model once per point it tries and
keeps the Jacobian of the point it accepted for the next step and for
the covariance. The central-difference
`finite_diff_jacobian` of the values is the test oracle for all of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFitError, EvaluationError, ValidationError

MAX_ITER = 200      # iterations before a fit ends unconverged
COST_TOL = 1e-10    # converged: actual and predicted relative cost reduction below it
FD_STEP = 1e-6      # relative step of the finite-difference Jacobian


@dataclass
class FitProblem:
    """A weighted curve-fitting problem.

    model(p, x) takes a parameter vector and an abscissa array and returns
    (values, jacobian): the (n,) predicted values and the (n, m) matrix of
    d values / d p_j at the same point, so both may share one computation.
    The test suite checks each Jacobian against `finite_diff_jacobian` of
    the values. lower[j] == upper[j] holds p[j] at that value on every
    step of `minimize`'s active set.
    """

    model: callable
    x: np.ndarray
    y: np.ndarray
    p0: np.ndarray
    weights: np.ndarray | None = None
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        self.p0 = np.asarray(self.p0, dtype=float)
        n, m = self.y.size, self.p0.size
        if not (np.isfinite(self.x).all() and np.isfinite(self.y).all()):
            raise ValidationError("x and y must be finite")
        if m == 0:
            raise ValidationError("empty initial guess")
        if n < m:
            raise ValidationError(f"need >= {m} data points, got {n}")
        if self.weights is None:
            self.weights = np.ones(n)
        self.weights = np.asarray(self.weights, dtype=float)
        if np.any(~np.isfinite(self.weights)) or np.any(self.weights <= 0):
            raise ValidationError("weights must be positive and finite")
        self.lower = np.full(m, -np.inf) if self.lower is None else np.asarray(self.lower, float)
        self.upper = np.full(m, np.inf) if self.upper is None else np.asarray(self.upper, float)
        if np.any(self.p0 < self.lower) or np.any(self.p0 > self.upper):
            raise ValidationError("initial guess outside bounds")
        if np.all(self.lower == self.upper):
            raise ValidationError("no free parameter: every lower bound equals its upper bound")


@dataclass
class FitResult:
    parameters: np.ndarray
    covariance: np.ndarray
    reduced_chi2: float
    n_iterations: int
    converged: bool
    cost: float

    @property
    def sigma(self) -> np.ndarray:
        return np.sqrt(np.clip(np.diag(self.covariance), 0.0, None))

    @property
    def sigma3(self) -> np.ndarray:
        """3-sigma half-widths per parameter."""
        return 3.0 * self.sigma


def finite_diff_jacobian(model, p, xs, h=FD_STEP) -> np.ndarray:
    """Central-difference Jacobian of model(p, xs), which returns values
    only, w.r.t. p.

    h is a relative step, required in (0, 1e-2]. Serves as the oracle
    for the analytic Jacobians the fit models return; `minimize` never
    calls it.
    """
    if not (0 < h <= 1e-2):
        raise ValidationError(f"finite-difference step h must be in (0, 1e-2], got {h}")
    p = np.asarray(p, dtype=float)
    xs = np.asarray(xs, dtype=float)
    J = np.empty((xs.size, p.size))
    for j in range(p.size):
        step = h * max(abs(p[j]), 1.0)
        pp, pm = p.copy(), p.copy()
        pp[j] += step
        pm[j] -= step
        fp = np.asarray(model(pp, xs), dtype=float)
        fm = np.asarray(model(pm, xs), dtype=float)
        if np.any(~np.isfinite(fp)) or np.any(~np.isfinite(fm)):
            raise EvaluationError(f"model not finite at parameter {j} +/- {step}")
        J[:, j] = (fp - fm) / (2.0 * step)
    return J


def _evaluate(problem, p):
    """(cost, residuals, Jacobian) at p, from one model call.

    Raises ValidationError if the model does not return (n,) values and an
    (n, m) Jacobian, and EvaluationError if either is not finite.
    """
    out = problem.model(p, problem.x)
    n, m = problem.y.size, p.size
    if not (isinstance(out, tuple) and len(out) == 2):
        raise ValidationError("model must return (values, jacobian)")
    f, J = np.asarray(out[0], dtype=float), np.asarray(out[1], dtype=float)
    if f.shape != (n,) or J.shape != (n, m):
        raise ValidationError(f"model must return values of shape ({n},) and a jacobian "
                              f"of shape ({n}, {m}), got {f.shape} and {J.shape}")
    if not np.isfinite(f).all():
        raise EvaluationError("model returned non-finite values")
    if not np.isfinite(J).all():
        raise EvaluationError("model returned a non-finite Jacobian")
    r = problem.y - f
    return float((problem.weights * r * r).sum()), r, J


def _covariance(problem, p, cost, J):
    """reduced_chi2 * (J^T W J)^-1 over the free parameters, from the
    Jacobian J at p, symmetrized; equal-bound parameters get zero rows and
    columns. Raises on rank deficiency."""
    free = np.flatnonzero(problem.lower != problem.upper)
    A = (J.T @ (problem.weights[:, None] * J))[np.ix_(free, free)]
    d = np.sqrt(np.diag(A))
    if np.any(d == 0):
        names = [f"p[{i}]" for i in free[d == 0]]
        raise DegenerateFitError(
            "singular normal matrix; zero sensitivity to " + ", ".join(names)
        )
    # test rank on the correlation-scaled matrix so parameter units cancel
    As = A / np.outer(d, d)
    u, s, vt = np.linalg.svd(As)
    if s[-1] < 1e-10 * s[0]:
        names = [f"p[{i}]" for i in free[np.abs(vt[-1]) > 0.1]]
        raise DegenerateFitError(
            "singular normal matrix; unidentifiable parameter direction involves "
            + ", ".join(names)
        )
    dof = problem.y.size - free.size
    red_chi2 = cost / dof if dof > 0 else 0.0
    As_inv = vt.T @ np.diag(1.0 / s) @ u.T
    cov = np.zeros((p.size, p.size))
    cov[np.ix_(free, free)] = red_chi2 * (As_inv / np.outer(d, d))
    cov = 0.5 * (cov + cov.T)
    return cov, red_chi2


def minimize(problem: FitProblem) -> FitResult:
    """Run Levenberg-Marquardt on a FitProblem.

    A fit converges when an accepted step s lowers the cost by less than
    COST_TOL relative and its predicted reduction (2 s.g - s.A.s) / cost,
    with g and A the active-set gradient J^T W r and normal matrix
    J^T W J, is below COST_TOL too; converged is False when MAX_ITER is
    hit first. A parameter that a step takes past a bound stops there,
    and the damped system is solved again for the free parameters with
    that move included. The model is evaluated once per point tried; a
    trial point where it is not finite is rejected like an uphill one,
    while at the start point that raises EvaluationError.
    """
    p = problem.p0.copy()
    cost, r, jac_p = _evaluate(problem, p)
    lam = 1e-3
    converged = False
    n_iter = 0
    for n_iter in range(1, MAX_ITER + 1):
        W, J = problem.weights, jac_p
        g = J.T @ (W * r)
        # active set: a zero column and gradient give a held parameter a zero step
        held = ((p <= problem.lower) & (g <= 0)) | ((p >= problem.upper) & (g >= 0))
        if held.any():
            J, g = np.where(held, 0.0, J), np.where(held, 0.0, g)
        A = J.T @ (W[:, None] * J)
        diag = A.diagonal()
        diag = np.maximum(diag, 1e-14 * max(diag.max(), 1e-300))
        accepted = False
        while lam < 1e14:
            damped = A.copy()
            damped.flat[::p.size + 1] += lam * diag
            try:
                trial = p + np.linalg.solve(damped, g)
                p_new = np.minimum(np.maximum(trial, problem.lower), problem.upper)
                crossed = p_new != trial
                if crossed.any():
                    # hold what crossed at its bound; the free parameters absorb that move
                    free = ~crossed & ~held
                    s_c = p_new[crossed] - p[crossed]
                    s_f = np.linalg.solve(damped[np.ix_(free, free)],
                                          g[free] - A[np.ix_(free, crossed)] @ s_c)
                    p_new[free] = np.minimum(np.maximum(p[free] + s_f, problem.lower[free]),
                                             problem.upper[free])
                cost_new, r_new, jac_new = _evaluate(problem, p_new)
            except (np.linalg.LinAlgError, EvaluationError):
                lam *= 10.0
                continue
            if cost_new <= cost:
                s = p_new - p
                scale = max(cost, 1e-300)
                actual = (cost - cost_new) / scale
                predicted = (2.0 * (s @ g) - s @ A @ s) / scale
                p, cost, r, jac_p = p_new, cost_new, r_new, jac_new
                lam = max(lam / 10.0, 1e-12)
                accepted = True
                if (actual < COST_TOL and predicted < COST_TOL) or cost == 0.0:
                    converged = True
                break
            lam *= 10.0
        if not accepted or converged:
            converged = converged or not accepted  # stalled damping: local minimum
            break
    cov, red_chi2 = _covariance(problem, p, cost, jac_p)
    return FitResult(
        parameters=p,
        covariance=cov,
        reduced_chi2=red_chi2,
        n_iterations=n_iter,
        converged=converged,
        cost=cost,
    )
