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
(`spectrum`). Each builds its Jacobian column-major (order="F"), as
`minimize` reads it by columns: J^T W J, J^T (W r) and the active set's
zeroed columns then run along contiguous memory. A row-major Jacobian
gives the same fits, slower: its sums round differently, and where a
step near the minimum changes the cost by a rounding-level amount,
accepting or rejecting it moves the result by up to order 1e-7 sigma
(5e-8 sigma on one of 936 ZPL fits).
`minimize` evaluates the model once per point it tries.
The cost (W r) r and the gradient J^T (W r) share W r and carry the
finiteness checks: a point's cost must be finite, and so must the
gradient of the start and of a downhill trial, which any non-finite
Jacobian entry reaches, even where W r is 0 (NaN * 0 is NaN). The
central-difference `finite_diff_jacobian` of the values is the test
oracle for all of them.
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
    Build the Jacobian column-major: `minimize` reads it by columns, and
    the layout changes its speed, not its fits beyond rounding.
    weights has the shape of y, and lower and upper that of p0.
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
            self.weights = np.ones_like(self.y)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.shape != self.y.shape:
            raise ValidationError(f"weights must have the shape of y {self.y.shape}, "
                                  f"got {self.weights.shape}")
        if np.any(~np.isfinite(self.weights)) or np.any(self.weights <= 0):
            raise ValidationError("weights must be positive and finite")
        self.lower = np.full(m, -np.inf) if self.lower is None else np.asarray(self.lower, float)
        self.upper = np.full(m, np.inf) if self.upper is None else np.asarray(self.upper, float)
        for name, bound in (("lower", self.lower), ("upper", self.upper)):
            if bound.shape != self.p0.shape:
                raise ValidationError(f"{name} must have the shape of p0 {self.p0.shape}, "
                                      f"got {bound.shape}")
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
    J = np.empty((xs.size, p.size), order="F")
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
    """(sum (W r) r, W r, Jacobian) at p from one model call, r = y - f(p).
    Raises ValidationError unless the model returns (n,) values and an
    (n, m) Jacobian; finiteness is the caller's check."""
    out = problem.model(p, problem.x)
    n, m = problem.y.size, p.size
    if not (isinstance(out, tuple) and len(out) == 2):
        raise ValidationError("model must return (values, jacobian)")
    f, J = np.asarray(out[0], dtype=float), np.asarray(out[1], dtype=float)
    if f.shape != (n,) or J.shape != (n, m):
        raise ValidationError(f"model must return values of shape ({n},) and a jacobian "
                              f"of shape ({n}, {m}), got {f.shape} and {J.shape}")
    r = problem.y - f
    Wr = problem.weights * r
    return float((Wr * r).sum()), Wr, J


def _covariance(problem, p, cost, J, Wc):
    """reduced_chi2 * (J^T W J)^-1 over the free parameters, from the
    Jacobian J at p and the weight column Wc, symmetrized; equal-bound
    parameters get zero rows and columns. Raises on rank deficiency."""
    free = np.flatnonzero(problem.lower != problem.upper)
    block = np.ix_(free, free) if free.size < p.size else np.s_[:, :]
    A = (J.T @ (Wc * J))[block]
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
    cov[block] = red_chi2 * (As_inv / np.outer(d, d))
    cov = 0.5 * (cov + cov.T)
    return cov, red_chi2


def minimize(problem: FitProblem) -> FitResult:
    """Run Levenberg-Marquardt on a FitProblem.

    A fit converges when an accepted step s lowers the cost by less than
    COST_TOL relative and its predicted reduction (2 s.g - s.A.s) / cost,
    with g and A the active-set gradient J^T W r and normal matrix
    J^T W J, is below COST_TOL too; converged is False when MAX_ITER is
    hit first. A trial point that fails the finiteness checks is rejected
    like an uphill one; at the start point they raise EvaluationError.
    """
    p = problem.p0.copy()
    lower, upper = problem.lower, problem.upper
    Wc = problem.weights[:, None]
    diagonal = slice(None, None, p.size + 1)
    cost, Wr, jac_p = _evaluate(problem, p)
    if not np.isfinite(cost):
        raise EvaluationError("model returned non-finite values, or values whose cost overflows")
    g_p = jac_p.T @ Wr
    if not np.isfinite(g_p).all():
        raise EvaluationError("model returned a non-finite Jacobian")
    lam = 1e-3
    for n_iter in range(1, MAX_ITER + 1):
        J, g = jac_p, g_p
        # active set: a zero column and gradient give a held parameter a zero step
        held = ((p <= lower) & (g <= 0)) | ((p >= upper) & (g >= 0))
        if held.any():
            J, g = np.where(held, 0.0, J), np.where(held, 0.0, g)
        A = J.T @ (Wc * J)
        a_diag = A.diagonal()
        diag = np.maximum(a_diag, 1e-14 * max(a_diag.max(), 1e-300))
        damped = A.copy()
        while lam < 1e14:
            np.add(a_diag, lam * diag, out=damped.reshape(-1)[diagonal])
            try:
                trial = p + np.linalg.solve(damped, g)
                p_new = np.minimum(np.maximum(trial, lower), upper)
                crossed = p_new != trial
                if crossed.any():
                    # hold what crossed at its bound; the free parameters absorb that move
                    free = ~crossed & ~held
                    s_c = p_new[crossed] - p[crossed]
                    s_f = np.linalg.solve(damped[np.ix_(free, free)],
                                          g[free] - A[np.ix_(free, crossed)] @ s_c)
                    p_new[free] = np.minimum(np.maximum(p[free] + s_f, lower[free]), upper[free])
                cost_new, Wr_new, jac_new = _evaluate(problem, p_new)
            except (np.linalg.LinAlgError, EvaluationError):
                lam *= 10.0
                continue
            # a non-finite cost compares False; a non-finite J makes g non-finite
            if cost_new <= cost:
                g_new = jac_new.T @ Wr_new
                if np.isfinite(g_new).all():
                    s, scale = p_new - p, max(cost, 1e-300)
                    # the predicted reduction is formed only when the actual one is small
                    converged = ((cost - cost_new) / scale < COST_TOL and
                                 (2.0 * (s @ g) - s @ A @ s) / scale < COST_TOL) or cost_new == 0.0
                    p, cost, jac_p, g_p = p_new, cost_new, jac_new, g_new
                    lam = max(lam / 10.0, 1e-12)
                    break
            lam *= 10.0
        else:
            converged = True   # stalled damping: a local minimum
        if converged:
            break
    cov, red_chi2 = _covariance(problem, p, cost, jac_p, Wc)
    return FitResult(
        parameters=p,
        covariance=cov,
        reduced_chi2=red_chi2,
        n_iterations=n_iter,
        converged=converged,
        cost=cost,
    )
