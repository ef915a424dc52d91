"""Weighted nonlinear least-squares minimizer (Levenberg-Marquardt).

Minimizes sum_i w_i * (y_i - f(p, x_i))^2 with multiplicative damping
(lambda x10 on rejection, /10 on acceptance), box bounds by projected
steps, and parameter covariance reduced_chi2 * (J^T W J)^-1 at the
solution. A parameter whose lower and upper bounds are equal is pinned:
it never moves and has zero covariance. Per the reporting convention
used throughout the toolkit, parameter margins are quoted as 3-sigma
half-widths.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateFitError, DomainError, EvaluationError, ValidationError

MAX_ITER = 200      # iterations before a fit ends unconverged
STEP_TOL = 1e-8     # converged: relative step below STEP_TOL ...
COST_TOL = 1e-10    # ... and relative cost change below COST_TOL
FD_STEP = 1e-6      # relative step of the finite-difference Jacobian


@dataclass
class FitProblem:
    """A weighted curve-fitting problem.

    model(p, x) must accept a parameter vector and an abscissa array and
    return predicted values; jacobian, if given, returns the (n, m)
    matrix of d model / d p_j and is checked against finite differences
    in the test suite. lower[j] == upper[j] pins p[j] at that value.
    """

    model: callable
    x: np.ndarray
    y: np.ndarray
    weights: np.ndarray | None = None
    p0: np.ndarray = field(default_factory=lambda: np.array([]))
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None
    jacobian: callable | None = None

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        self.p0 = np.asarray(self.p0, dtype=float)
        n, m = self.y.size, self.p0.size
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

    def at_bound(self, lower, upper, rtol=1e-8) -> np.ndarray:
        p = self.parameters
        scale = np.maximum(np.abs(p), 1.0)
        return (np.abs(p - lower) <= rtol * scale) | (np.abs(p - upper) <= rtol * scale)


def finite_diff_jacobian(model, p, xs, h=FD_STEP) -> np.ndarray:
    """Central-difference Jacobian of model(p, xs) w.r.t. p.

    h is a relative step, required in (0, 1e-2]. Serves as the oracle
    for any analytic derivatives supplied to the engine.
    """
    if not (0 < h <= 1e-2):
        raise DomainError(f"finite-difference step h must be in (0, 1e-2], got {h}")
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


def _cost(problem, p):
    f = np.asarray(problem.model(p, problem.x), dtype=float)
    if np.any(~np.isfinite(f)):
        raise EvaluationError("model returned non-finite values")
    r = problem.y - f
    return float(np.sum(problem.weights * r * r)), r


def _jacobian(problem, p):
    if problem.jacobian is not None:
        J = np.asarray(problem.jacobian(p, problem.x), dtype=float)
        if np.any(~np.isfinite(J)):
            raise EvaluationError("analytic Jacobian returned non-finite values")
        return J
    return finite_diff_jacobian(problem.model, p, problem.x)


def _covariance(problem, p, cost):
    """reduced_chi2 * (J^T W J)^-1 over the free parameters, symmetrized;
    pinned parameters get zero rows and columns. Raises on rank deficiency."""
    J = _jacobian(problem, p)
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

    Convergence requires relative step < STEP_TOL AND relative cost
    change < COST_TOL; converged is False when MAX_ITER is hit first.
    """
    p = problem.p0.copy()
    pinned = problem.lower == problem.upper
    cost, r = _cost(problem, p)
    lam = 1e-3
    converged = False
    n_iter = 0
    for n_iter in range(1, MAX_ITER + 1):
        J = _jacobian(problem, p)
        if pinned.any():  # a zero column gives a pinned parameter a zero step
            J = np.where(pinned, 0.0, J)
        W = problem.weights
        A = J.T @ (W[:, None] * J)
        g = J.T @ (W * r)
        diag = np.diag(A).copy()
        floor = 1e-14 * max(diag.max(), 1e-300)
        diag = np.maximum(diag, floor)
        accepted = False
        while lam < 1e14:
            try:
                delta = np.linalg.solve(A + lam * np.diag(diag), g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            p_new = np.clip(p + delta, problem.lower, problem.upper)
            try:
                cost_new, r_new = _cost(problem, p_new)
            except EvaluationError:
                lam *= 10.0
                continue
            if cost_new <= cost:
                step_rel = np.max(np.abs(p_new - p) / np.maximum(np.abs(p), 1.0))
                cost_rel = (cost - cost_new) / max(cost, 1e-300)
                p, cost, r = p_new, cost_new, r_new
                lam = max(lam / 10.0, 1e-12)
                accepted = True
                if (step_rel < STEP_TOL and cost_rel < COST_TOL) or cost == 0.0:
                    converged = True
                break
            lam *= 10.0
        if not accepted or converged:
            converged = converged or not accepted  # stalled damping: local minimum
            break
    cov, red_chi2 = _covariance(problem, p, cost)
    return FitResult(
        parameters=p,
        covariance=cov,
        reduced_chi2=red_chi2,
        n_iterations=n_iter,
        converged=converged,
        cost=cost,
    )
