"""Fit-engine behavior: exact linear problems, synthetic recovery,
degeneracy reporting and the finite-difference oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sicpl import nls
from sicpl.errors import DegenerateFitError, DomainError, EvaluationError, ValidationError
from sicpl.nls import FitProblem, finite_diff_jacobian, minimize


def linear(p, x):
    return p[0] + p[1] * x


def test_linear_exact():
    x = np.linspace(0.0, 10.0, 20)
    y = 3.0 + 0.5 * x
    fit = minimize(FitProblem(model=linear, x=x, y=y, p0=np.array([0.0, 0.0])))
    assert fit.converged
    assert np.allclose(fit.parameters, [3.0, 0.5], atol=1e-10)
    assert fit.cost < 1e-18


def test_weighted_linear_matches_normal_equations():
    rng = np.random.default_rng(3)
    x = np.linspace(0.0, 5.0, 30)
    y = 1.0 + 2.0 * x + rng.normal(0.0, 0.3, x.size)
    w = rng.uniform(0.5, 2.0, x.size)
    fit = minimize(FitProblem(model=linear, x=x, y=y, weights=w,
                              p0=np.array([0.0, 0.0])))
    X = np.column_stack([np.ones_like(x), x])
    ref = np.linalg.solve(X.T @ (w[:, None] * X), X.T @ (w * y))
    assert np.allclose(fit.parameters, ref, rtol=1e-8)


def test_exponential_recovery_with_bounds():
    rng = np.random.default_rng(5)
    x = np.linspace(0.0, 500.0, 200)
    truth = np.array([800.0, 120.0])

    def model(p, t):
        return p[0] * np.exp(-t / p[1])

    y = model(truth, x) + rng.normal(0.0, 2.0, x.size)
    fit = minimize(FitProblem(model=model, x=x, y=y,
                              p0=np.array([100.0, 40.0]),
                              lower=np.array([0.0, 1.0]),
                              upper=np.array([1e6, 1e4])))
    assert abs(fit.parameters[1] - 120.0) < 3.0
    assert fit.sigma3.shape == (2,)
    assert np.all(fit.sigma3 == 3.0 * fit.sigma)


def test_degenerate_parameters_named():
    # A*x + B*x is rank-1 in (A, B): only the sum is identifiable
    x = np.linspace(1.0, 10.0, 30)
    y = 5.0 * x

    def model(p, xx):
        return p[0] * xx + p[1] * xx

    with pytest.raises(DegenerateFitError) as err:
        minimize(FitProblem(model=model, x=x, y=y, p0=np.array([1.0, 1.0])))
    msg = str(err.value)
    assert "p[0]" in msg and "p[1]" in msg

    # a pinned parameter ahead of them leaves their indices unchanged
    def shifted(p, xx):
        return p[0] + model(p[1:], xx)

    with pytest.raises(DegenerateFitError) as err:
        minimize(FitProblem(model=shifted, x=x, y=1.0 + y, p0=np.array([1.0, 1.0, 1.0]),
                            lower=np.array([1.0, -np.inf, -np.inf]),
                            upper=np.array([1.0, np.inf, np.inf])))
    msg = str(err.value)
    assert "p[1]" in msg and "p[2]" in msg and "p[0]" not in msg


def test_scale_disparity_is_not_degenerate():
    # a well-posed model must not be flagged just because parameter
    # magnitudes differ by many orders
    x = np.linspace(0.0, 1000.0, 300)

    def model(p, t):
        return p[0] * np.exp(-t / p[1])

    y = model(np.array([1e8, 150.0]), x)
    fit = minimize(FitProblem(model=model, x=x, y=y, p0=np.array([5e7, 80.0]),
                              lower=np.array([0.0, 1e-6])))
    assert abs(fit.parameters[0] - 1e8) / 1e8 < 1e-6


def test_validation():
    x = np.arange(3.0)
    with pytest.raises(ValidationError):
        FitProblem(model=linear, x=x, y=x, p0=np.array([]))
    with pytest.raises(ValidationError):
        FitProblem(model=linear, x=x[:1], y=x[:1], p0=np.array([1.0, 1.0]))
    with pytest.raises(ValidationError):
        FitProblem(model=linear, x=x, y=x, weights=np.array([1.0, -1.0, 1.0]),
                   p0=np.array([1.0, 1.0]))
    with pytest.raises(ValidationError):
        FitProblem(model=linear, x=x, y=x, p0=np.array([5.0, 0.0]),
                   upper=np.array([1.0, 1.0]))
    with pytest.raises(ValidationError):  # nothing left to fit
        FitProblem(model=linear, x=x, y=x, p0=np.ones(2), lower=np.ones(2), upper=np.ones(2))


def test_equal_bounds_pin_a_parameter():
    # pinning the background of A exp(-t/tau) + B + C t must give the fit
    # of the reduced model (A, tau, C) with B held at its value
    rng = np.random.default_rng(7)
    t = np.linspace(0.0, 400.0, 120)
    y = 900.0 * np.exp(-t / 60.0) + 25.0 + 0.05 * t + rng.normal(0.0, 3.0, t.size)

    def model(p, tt):
        return p[0] * np.exp(-tt / p[1]) + p[2] + p[3] * tt

    def reduced(q, tt):
        return model(np.array([q[0], q[1], 20.0, q[2]]), tt)

    inf = np.inf
    pinned = minimize(FitProblem(model=model, x=t, y=y, p0=np.array([500.0, 30.0, 20.0, 0.0]),
                                 lower=np.array([0.0, 1e-3, 20.0, -inf]),
                                 upper=np.array([inf, inf, 20.0, inf])))
    ref = minimize(FitProblem(model=reduced, x=t, y=y, p0=np.array([500.0, 30.0, 0.0]),
                              lower=np.array([0.0, 1e-3, -inf])))
    assert pinned.parameters[2] == 20.0
    assert not pinned.covariance[2].any() and not pinned.covariance[:, 2].any()
    free = [0, 1, 3]
    assert np.allclose(pinned.parameters[free], ref.parameters, rtol=1e-9)
    assert np.allclose(pinned.sigma3[free], ref.sigma3, rtol=1e-8)
    assert pinned.reduced_chi2 == pytest.approx(ref.reduced_chi2, rel=1e-9)


def test_non_finite_model_rejected():
    x = np.linspace(0.0, 5.0, 10)

    def model(p, xx):
        return np.full(xx.shape, np.nan)

    with pytest.raises(EvaluationError):
        minimize(FitProblem(model=model, x=x, y=x, p0=np.array([1.0])))


# ---------------------------------------------------------------------------
# finite differences


def test_finite_diff_known_derivative():
    # d/dp of exp(-x/p) at p=2, x=1 is (x/p^2) exp(-x/p) = 0.25 e^-0.5
    def model(p, x):
        return np.exp(-x / p[0])

    J = finite_diff_jacobian(model, np.array([2.0]), np.array([1.0]))
    assert J[0, 0] == pytest.approx(0.25 * np.exp(-0.5), rel=1e-8)


def test_finite_diff_step_domain():
    def model(p, x):
        return p[0] * x

    with pytest.raises(DomainError):
        finite_diff_jacobian(model, np.array([1.0]), np.arange(3.0), h=0.5)
    with pytest.raises(DomainError):
        finite_diff_jacobian(model, np.array([1.0]), np.arange(3.0), h=0.0)


def test_finite_diff_linear_is_exact():
    J = finite_diff_jacobian(linear, np.array([2.0, -3.0]), np.linspace(0, 4, 9))
    assert np.allclose(J[:, 0], 1.0, atol=1e-9)
    assert np.allclose(J[:, 1], np.linspace(0, 4, 9), atol=1e-8)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.1, max_value=100.0),
       st.floats(min_value=1.5, max_value=20.0))
def test_weight_rescale_invariance(scale, tau0):
    # multiplying all weights by a constant must not move the optimum
    x = np.linspace(0.0, 50.0, 40)
    rng = np.random.default_rng(11)
    y = 100.0 * np.exp(-x / 12.0) + rng.normal(0.0, 1.0, x.size)

    def model(p, t):
        return p[0] * np.exp(-t / p[1])

    w = 1.0 / np.maximum(np.abs(y), 1.0)
    base = minimize(FitProblem(model=model, x=x, y=y, weights=w,
                               p0=np.array([50.0, tau0])))
    scaled = minimize(FitProblem(model=model, x=x, y=y, weights=scale * w,
                                 p0=np.array([50.0, tau0])))
    assert np.allclose(base.parameters, scaled.parameters, rtol=1e-8)
    # reduced chi2 scales linearly with the weights
    assert scaled.reduced_chi2 == pytest.approx(scale * base.reduced_chi2, rel=1e-6)


def test_analytic_jacobian_used_and_consistent():
    x = np.linspace(0.0, 30.0, 25)

    def model(p, t):
        return p[0] * np.exp(-t / p[1])

    def jac(p, t):
        e = np.exp(-t / p[1])
        return np.column_stack([e, p[0] * e * t / p[1] ** 2])

    p = np.array([40.0, 9.0])
    assert np.allclose(jac(p, x), finite_diff_jacobian(model, p, x), atol=1e-4)
    y = model(p, x)
    fit = minimize(FitProblem(model=model, x=x, y=y, p0=np.array([10.0, 3.0]),
                              jacobian=jac))
    assert np.allclose(fit.parameters, p, rtol=1e-8)


def test_max_iter_reported(monkeypatch):
    monkeypatch.setattr(nls, "MAX_ITER", 2)
    x = np.linspace(0.0, 10.0, 30)
    rng = np.random.default_rng(1)
    y = np.sin(x) + rng.normal(0.0, 0.1, x.size)

    def model(p, xx):
        return p[0] * np.sin(p[1] * xx + p[2])

    fit = minimize(FitProblem(model=model, x=x, y=y,
                              p0=np.array([0.5, 0.9, 0.1])))
    assert fit.n_iterations <= 2
