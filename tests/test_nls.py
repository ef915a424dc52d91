"""Fit-engine behavior: exact linear problems, synthetic recovery,
degeneracy reporting and the finite-difference oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sicpl import nls
from sicpl.errors import DegenerateFitError, EvaluationError, ValidationError
from sicpl.nls import FitProblem, finite_diff_jacobian, minimize


def linear(p, x):
    return p[0] + p[1] * x


def linear_jac(p, x):
    return np.column_stack([np.ones_like(x), x])


def exp_decay(p, t):
    return p[0] * np.exp(-t / p[1])


def exp_decay_jac(p, t):
    e = np.exp(-t / p[1])
    return np.column_stack([e, p[0] * e * t / p[1] ** 2])


def with_jacobian(model, jac):
    """The FitProblem model (values, Jacobian) of a value function and its
    Jacobian."""
    return lambda p, x: (model(p, x), jac(p, x))


LINEAR = with_jacobian(linear, linear_jac)
EXP_DECAY = with_jacobian(exp_decay, exp_decay_jac)


def oracle(model):
    """The finite-difference oracle as the Jacobian of a model the test
    gives no derivative for."""
    return lambda p, x: finite_diff_jacobian(model, p, x)


def test_linear_exact():
    x = np.linspace(0.0, 10.0, 20)
    y = 3.0 + 0.5 * x
    fit = minimize(FitProblem(model=LINEAR, x=x, y=y, p0=np.array([0.0, 0.0])))
    assert fit.converged
    assert np.allclose(fit.parameters, [3.0, 0.5], atol=1e-10)
    assert fit.cost < 1e-18


def test_weighted_linear_matches_normal_equations():
    rng = np.random.default_rng(3)
    x = np.linspace(0.0, 5.0, 30)
    y = 1.0 + 2.0 * x + rng.normal(0.0, 0.3, x.size)
    w = rng.uniform(0.5, 2.0, x.size)
    fit = minimize(FitProblem(model=LINEAR, x=x, y=y, weights=w,
                              p0=np.array([0.0, 0.0])))
    X = np.column_stack([np.ones_like(x), x])
    ref = np.linalg.solve(X.T @ (w[:, None] * X), X.T @ (w * y))
    assert np.allclose(fit.parameters, ref, rtol=1e-8)


def test_exponential_recovery_with_bounds():
    rng = np.random.default_rng(5)
    x = np.linspace(0.0, 500.0, 200)
    truth = np.array([800.0, 120.0])
    y = exp_decay(truth, x) + rng.normal(0.0, 2.0, x.size)
    fit = minimize(FitProblem(model=EXP_DECAY, x=x, y=y,
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

    def jac(p, xx):
        return np.column_stack([xx, xx])

    with pytest.raises(DegenerateFitError) as err:
        minimize(FitProblem(model=with_jacobian(model, jac), x=x, y=y, p0=np.array([1.0, 1.0])))
    msg = str(err.value)
    assert "p[0]" in msg and "p[1]" in msg

    # a pinned parameter ahead of them leaves their indices unchanged
    def shifted(p, xx):
        return p[0] + model(p[1:], xx)

    def shifted_jac(p, xx):
        return np.column_stack([np.ones_like(xx), jac(p[1:], xx)])

    with pytest.raises(DegenerateFitError) as err:
        minimize(FitProblem(model=with_jacobian(shifted, shifted_jac), x=x, y=1.0 + y,
                            p0=np.array([1.0, 1.0, 1.0]),
                            lower=np.array([1.0, -np.inf, -np.inf]),
                            upper=np.array([1.0, np.inf, np.inf])))
    msg = str(err.value)
    assert "p[1]" in msg and "p[2]" in msg and "p[0]" not in msg


def test_scale_disparity_is_not_degenerate():
    # a well-posed model must not be flagged just because parameter
    # magnitudes differ by many orders
    x = np.linspace(0.0, 1000.0, 300)
    y = exp_decay(np.array([1e8, 150.0]), x)
    fit = minimize(FitProblem(model=EXP_DECAY, x=x, y=y, p0=np.array([5e7, 80.0]),
                              lower=np.array([0.0, 1e-6])))
    assert abs(fit.parameters[0] - 1e8) / 1e8 < 1e-6


def test_validation():
    x = np.arange(3.0)
    with pytest.raises(ValidationError):
        FitProblem(model=LINEAR, x=x, y=x, p0=np.array([]))
    with pytest.raises(ValidationError):
        FitProblem(model=LINEAR, x=x[:1], y=x[:1], p0=np.array([1.0, 1.0]))
    with pytest.raises(ValidationError):
        FitProblem(model=LINEAR, x=x, y=x, weights=np.array([1.0, -1.0, 1.0]),
                   p0=np.array([1.0, 1.0]))
    with pytest.raises(ValidationError):
        FitProblem(model=LINEAR, x=x, y=x, p0=np.array([5.0, 0.0]),
                   upper=np.array([1.0, 1.0]))
    with pytest.raises(ValidationError):  # nothing left to fit
        FitProblem(model=LINEAR, x=x, y=x, p0=np.ones(2), lower=np.ones(2), upper=np.ones(2))
    for bad in (np.nan, np.inf):
        for xs, ys in ((np.array([0.0, bad, 2.0]), x), (x, np.array([0.0, 1.0, bad]))):
            with pytest.raises(ValidationError, match="x and y must be finite"):
                FitProblem(model=LINEAR, x=xs, y=ys, p0=np.ones(2))


def test_equal_bounds_pin_a_parameter():
    # pinning the background of A exp(-t/tau) + B + C t must give the fit
    # of the reduced model (A, tau, C) with B held at its value
    rng = np.random.default_rng(7)
    t = np.linspace(0.0, 400.0, 120)
    y = 900.0 * np.exp(-t / 60.0) + 25.0 + 0.05 * t + rng.normal(0.0, 3.0, t.size)

    def model(p, tt):
        return p[0] * np.exp(-tt / p[1]) + p[2] + p[3] * tt

    def jac(p, tt):
        return np.column_stack([exp_decay_jac(p, tt), np.ones_like(tt), tt])

    def reduced(q, tt):
        return model(np.array([q[0], q[1], 20.0, q[2]]), tt)

    def reduced_jac(q, tt):
        return jac(np.array([q[0], q[1], 20.0, q[2]]), tt)[:, [0, 1, 3]]

    inf = np.inf
    pinned = minimize(FitProblem(model=with_jacobian(model, jac), x=t, y=y,
                                 p0=np.array([500.0, 30.0, 20.0, 0.0]),
                                 lower=np.array([0.0, 1e-3, 20.0, -inf]),
                                 upper=np.array([inf, inf, 20.0, inf])))
    ref = minimize(FitProblem(model=with_jacobian(reduced, reduced_jac), x=t, y=y,
                              p0=np.array([500.0, 30.0, 0.0]),
                              lower=np.array([0.0, 1e-3, -inf])))
    assert pinned.parameters[2] == 20.0
    assert not pinned.covariance[2].any() and not pinned.covariance[:, 2].any()
    free = [0, 1, 3]
    assert np.allclose(pinned.parameters[free], ref.parameters, rtol=1e-9)
    assert np.allclose(pinned.sigma3[free], ref.sigma3, rtol=1e-8)
    assert pinned.reduced_chi2 == pytest.approx(ref.reduced_chi2, rel=1e-9)


def test_parameter_on_a_bound_is_released():
    # a start on either bound with the gradient pointing into the box must
    # not hold the parameter there: the fit reaches the unconstrained optimum
    x = np.linspace(0.0, 10.0, 20)
    y = 3.0 + 0.5 * x
    inf = np.full(2, np.inf)
    for p0, lower, upper in ((np.zeros(2), np.zeros(2), inf),
                             (np.array([10.0, 2.0]), -inf, np.array([10.0, 2.0]))):
        fit = minimize(FitProblem(model=LINEAR, x=x, y=y, p0=p0, lower=lower, upper=upper))
        assert fit.converged
        assert np.allclose(fit.parameters, [3.0, 0.5], atol=1e-10)


def test_non_finite_model_rejected():
    x = np.linspace(0.0, 5.0, 10)

    def model(p, xx):
        return np.full(xx.shape, np.nan)

    with pytest.raises(EvaluationError):
        minimize(FitProblem(model=with_jacobian(model, oracle(model)), x=x, y=x,
                            p0=np.array([1.0])))


def test_jacobian_is_required_and_finite_differences_never_run(monkeypatch):
    x = np.linspace(0.0, 10.0, 20)
    for model in (linear, with_jacobian(linear, lambda p, xx: linear_jac(p, xx)[:, :1])):
        with pytest.raises(ValidationError, match="jacobian"):
            minimize(FitProblem(model=model, x=x, y=x, p0=np.ones(2)))

    def refuse(*args, **kwargs):
        raise AssertionError("minimize called finite_diff_jacobian")

    monkeypatch.setattr(nls, "finite_diff_jacobian", refuse)
    fit = minimize(FitProblem(model=LINEAR, x=x, y=3.0 + 0.5 * x, p0=np.zeros(2)))
    assert np.allclose(fit.parameters, [3.0, 0.5], atol=1e-10)


def test_each_point_is_evaluated_once():
    # one model call per point tried: the start and each trial step; the
    # accepted point's Jacobian serves the next step and the covariance
    x = np.linspace(0.0, 50.0, 40)
    y = exp_decay(np.array([100.0, 12.0]), x)
    points = []

    def model(p, t):
        points.append(p.tobytes())
        return EXP_DECAY(p, t)

    fit = minimize(FitProblem(model=model, x=x, y=y, p0=np.array([5.0, 60.0])))
    assert fit.converged
    assert len(points) == len(set(points))
    assert points[-1] == fit.parameters.tobytes()


def test_non_finite_trial_point_raises_the_damping():
    # steps from (5, 60) overshoot to tau <= 0, where the model is NaN:
    # each such trial is rejected like an uphill one and the fit converges
    x = np.linspace(0.0, 50.0, 40)
    y = exp_decay(np.array([100.0, 12.0]), x)
    nan_trials = []

    def model(p, t):
        if p[1] <= 0:
            nan_trials.append(p.copy())
            return np.full(t.shape, np.nan)
        return exp_decay(p, t)

    fit = minimize(FitProblem(model=with_jacobian(model, exp_decay_jac), x=x, y=y,
                              p0=np.array([5.0, 60.0])))
    assert fit.converged
    assert np.allclose(fit.parameters, [100.0, 12.0], rtol=1e-8)
    assert nan_trials


def _rejects_bad_trials(n, one_bin):
    """Fit (100, 12) from (5, 60), whose steps overshoot to tau <= 0. There
    the values lie on the data (or, with one_bin, just beside it but on it
    at one bin) and the Jacobian is NaN at every bin (or at that one bin):
    such a trial must be rejected, not accepted for its low cost."""
    x = np.linspace(0.0, 50.0, n)
    y = exp_decay(np.array([100.0, 12.0]), x)
    k = n // 2
    bad_trials = []

    def model(p, t):
        if p[1] <= 0:
            bad_trials.append(p.copy())
            if not one_bin:
                return y.copy(), np.full((t.size, 2), np.nan)
            values, jac = y + 1e-3, np.ones((t.size, 2))
            values[k], jac[k, 1] = y[k], np.nan
            return values, jac
        return EXP_DECAY(p, t)

    fit = minimize(FitProblem(model=model, x=x, y=y, p0=np.array([5.0, 60.0])))
    assert fit.converged
    assert np.allclose(fit.parameters, [100.0, 12.0], rtol=1e-8)
    assert bad_trials


def test_non_finite_trial_jacobian_raises_the_damping():
    _rejects_bad_trials(40, one_bin=False)


@pytest.mark.parametrize("n", [10, 67, 1600])
def test_nan_jacobian_entry_where_w_r_is_0_raises_the_damping(n):
    # W r is exactly 0 at the NaN's bin, so the NaN reaches the gradient
    # J^T W r, through which a trial is checked, only as NaN * 0
    _rejects_bad_trials(n, one_bin=True)


def test_damping_that_stalls_ends_the_fit_at_the_start():
    # the model is finite at the start point only: every trial is rejected,
    # the damping passes 1e14, and the fit returns the start after 1 iteration
    x = np.linspace(0.0, 50.0, 40)
    y = exp_decay(np.array([100.0, 12.0]), x)
    p0 = np.array([5.0, 60.0])

    def model(p, t):
        if np.array_equal(p, p0):
            return EXP_DECAY(p, t)
        return np.full(t.shape, np.nan), np.full((t.size, 2), np.nan)

    fit = minimize(FitProblem(model=model, x=x, y=y, p0=p0))
    assert fit.n_iterations == 1
    assert np.array_equal(fit.parameters, p0)


def test_non_finite_jacobian_rejected():
    x = np.linspace(0.0, 5.0, 10)

    def jac(p, xx):
        return np.full((xx.size, 2), np.nan)

    with pytest.raises(EvaluationError, match="Jacobian"):
        minimize(FitProblem(model=with_jacobian(linear, jac), x=x, y=x, p0=np.ones(2)))


@pytest.mark.parametrize("n", [10, 67, 1600])
def test_start_with_a_nan_jacobian_entry_where_w_r_is_0_raises(n):
    # one NaN entry, at the one bin where W r is 0: NaN * 0 still reaches g
    x = np.linspace(0.0, 5.0, n)
    y = x.copy()
    y[n // 2] = linear(np.ones(2), x[n // 2])

    def jac(p, xx):
        J = linear_jac(p, xx)
        J[n // 2, 1] = np.nan
        return J

    with pytest.raises(EvaluationError, match="Jacobian"):
        minimize(FitProblem(model=with_jacobian(linear, jac), x=x, y=y, p0=np.ones(2)))


def test_start_whose_finite_values_overflow_the_cost_raises():
    # every value and weight is finite but sum W r^2 is not: a fit cannot
    # start from an infinite cost, since any finite one would then be
    # accepted as a reduction
    x = np.linspace(0.0, 5.0, 10)
    with np.errstate(over="ignore"), pytest.raises(EvaluationError, match="values"):
        minimize(FitProblem(model=LINEAR, x=x, y=np.full(x.size, 1e200), p0=np.ones(2)))


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

    with pytest.raises(ValidationError, match="step h must be in"):
        finite_diff_jacobian(model, np.array([1.0]), np.arange(3.0), h=0.5)
    with pytest.raises(ValidationError, match="step h must be in"):
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
    w = 1.0 / np.maximum(np.abs(y), 1.0)
    base = minimize(FitProblem(model=EXP_DECAY, x=x, y=y, weights=w,
                               p0=np.array([50.0, tau0])))
    scaled = minimize(FitProblem(model=EXP_DECAY, x=x, y=y, weights=scale * w,
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
    fit = minimize(FitProblem(model=with_jacobian(model, jac), x=x, y=y, p0=np.array([10.0, 3.0])))
    assert np.allclose(fit.parameters, p, rtol=1e-8)


def test_misspecified_fit_stops_when_the_cost_stops_falling():
    # a single exponential fitted to two: the fit converges only linearly,
    # and stops once actual and predicted relative reductions fall below
    # COST_TOL rather than polishing the parameters further (13 iterations
    # under a relative-step test of 1e-8)
    t = np.arange(2.0, 1500.0)
    y = 500.0 * np.exp(-t / 160.0) + 500.0 * np.exp(-t / 43.0)

    def model(p, tt):
        return p[0] * np.exp(-tt / p[1])

    def jac(p, tt):
        e = np.exp(-tt / p[1])
        return np.column_stack([e, p[0] * e * tt / p[1] ** 2])

    def fit(p0):
        return minimize(FitProblem(model=with_jacobian(model, jac), x=t, y=y, weights=1.0 / y,
                                   p0=p0,
                                   lower=np.array([0.0, 1e-6])))

    first = fit(np.array([1000.0, 150.0]))
    assert first.converged and first.n_iterations <= 10
    again = fit(first.parameters)
    assert (first.cost - again.cost) / first.cost < nls.COST_TOL
    assert np.all(np.abs(again.parameters - first.parameters) < 1e-3 * first.sigma)


def test_max_iter_reported(monkeypatch):
    monkeypatch.setattr(nls, "MAX_ITER", 2)
    x = np.linspace(0.0, 10.0, 30)
    rng = np.random.default_rng(1)
    y = np.sin(x) + rng.normal(0.0, 0.1, x.size)

    def model(p, xx):
        return p[0] * np.sin(p[1] * xx + p[2])

    fit = minimize(FitProblem(model=with_jacobian(model, oracle(model)), x=x, y=y,
                              p0=np.array([0.5, 0.9, 0.1])))
    assert fit.n_iterations <= 2
