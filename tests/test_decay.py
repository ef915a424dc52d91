"""Decay fitting, model selection, thermal activation and pooling."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sicpl import decay
from sicpl.constants import KB_MEV_PER_K
from sicpl.datatypes import DecayTrace
from sicpl.decay import (
    estimate_background,
    fit_decay,
    fit_thermal,
    pool_lifetimes,
    thermal_lifetime,
)
from sicpl.errors import DegenerateFitError, FitError, ValidationError
from sicpl.nls import FitResult
from sicpl.synth import GeneratorSpec, generate


def make_trace(components, background=20.0, pulse=100.0, t_end=1800.0,
               seed=0, noise="poisson"):
    spec = GeneratorSpec(
        seed=seed, kind="decay",
        truth={"components": components, "background": background,
               "pulse_time": pulse},
        sampling={"t_start": 0.0, "t_end": t_end, "bin_ns": 1.0},
        noise={"kind": noise},
    )
    return generate(spec)


def test_background_estimate():
    tr = make_trace([(1e4, 150.0)], background=40.0, seed=2)
    bg = estimate_background(tr)
    assert abs(bg.mean - 40.0) < 5.0 * bg.std_error + 2.0
    assert bg.std_error == pytest.approx(bg.bin_std / 10.0)


def test_background_needs_baseline():
    t = np.arange(0.0, 100.0, 1.0)
    tr = DecayTrace(times=t, counts=np.full(t.shape, 3.0), pulse_time=11.0)
    # 11 pre-pulse bins is fine, 9 is not
    estimate_background(tr)
    with pytest.raises(ValidationError):
        DecayTrace(times=t, counts=np.full(t.shape, 3.0), pulse_time=9.0)


def test_single_fit_recovers_truth():
    tr = make_trace([(1e4, 164.2)], seed=42)
    res = fit_decay(tr, kind="single")
    A, tau = res.components[0]
    assert abs(tau - 164.2) <= res.fit.sigma3[1]
    assert res.fit.converged
    assert res.model_kind == "single"


def test_auto_prefers_single_on_single_data():
    tr = make_trace([(1e4, 164.2)], seed=9)
    assert fit_decay(tr, kind="auto").model_kind == "single"


def test_auto_selects_double_on_double_data():
    tr = make_trace([(2e4, 158.5), (2e4, 43.3)], pulse=1000.0,
                    t_end=3000.0, seed=7)
    res = fit_decay(tr, kind="auto")
    assert res.model_kind == "double"
    taus = [tau for _, tau in res.components]
    assert taus[0] > taus[1]  # reported slow-first
    assert abs(taus[0] - 158.5) <= res.fit.sigma3[1]
    assert abs(taus[1] - 43.3) <= res.fit.sigma3[3]


def test_forced_double_on_single_data_collapses():
    tr = make_trace([(1e4, 150.0)], seed=3)
    res = fit_decay(tr, kind="double")
    # a one-channel trace cannot support two distinct taus: either the fit
    # collapses (reported single with a warning) or one tau is unstable
    if res.model_kind == "single":
        assert res.warnings
    else:
        assert len(res.components) == 2


FALLBACK_WARNINGS = {
    "accepted": [],
    "collapsed": ["double fit collapsed to single (tau1 ~= tau2)"],
    "degenerate": ["double fit degenerate; collapsed to single"],
}


@pytest.mark.parametrize("double_fit", FALLBACK_WARNINGS)
@pytest.mark.parametrize("kind", ["double", "auto"])
def test_double_fit_fallback(monkeypatch, kind, double_fit):
    """A degenerate or collapsed double fit falls back to the single fit;
    only a forced double fit says so in its warnings."""
    real = decay._fit_exponentials

    def fit_exponentials(t, y, w, p0, *args):
        if len(p0) == 2 or double_fit == "accepted":
            return real(t, y, w, p0, *args)
        if double_fit == "degenerate":
            raise DegenerateFitError("singular normal matrix")
        fit, weights = real(t, y, w, p0, *args)
        p = fit.parameters.copy()
        p[3] = decay.R_MAX
        return dataclasses.replace(fit, parameters=p), weights

    monkeypatch.setattr(decay, "_fit_exponentials", fit_exponentials)
    tr = make_trace([(2e4, 158.5), (2e4, 43.3)], pulse=1000.0,
                    t_end=3000.0, seed=7)
    res = fit_decay(tr, kind=kind)
    assert res.model_kind == ("double" if double_fit == "accepted" else "single")
    assert res.warnings == (FALLBACK_WARNINGS[double_fit] if kind == "double" else [])


def _record_screen(monkeypatch, answer=None):
    """Wrap the score screen; each call appends (args, decision). With an
    answer, 'auto' goes on as if the screen had given it: answer=True fits
    the double on every trace, as 'auto' did before the screen, so a test
    of the double fit reaches it."""
    calls = []
    real = decay._needs_double

    def recorded(*args):
        calls.append((args, real(*args)))
        return calls[-1][1] if answer is None else answer

    monkeypatch.setattr(decay, "_needs_double", recorded)
    return calls


def test_auto_keeps_the_single_fit_when_the_double_loses_on_aic(monkeypatch):
    """A converged double that lowers the cost by less than AIC_THRESHOLD
    plus two per extra parameter (14) leaves 'auto' with the single fit.
    On this noiseless trace, a weak fast component (80 counts at 40 ns
    under 1e4 at 164.2 ns), the double gains about 4.15. The score screen
    would skip this double fit, so it is bypassed."""
    tr = make_trace([(1e4, 164.2), (80.0, 40.0)], noise="none")
    single, double = fit_decay(tr, kind="single"), fit_decay(tr, kind="double")
    assert double.model_kind == "double" and not double.warnings and double.fit.converged
    assert 0 < single.fit.cost - double.fit.cost < decay.AIC_THRESHOLD + 2 * 2
    _record_screen(monkeypatch, answer=True)
    evaluations = _count_double_evaluations(monkeypatch)
    auto = fit_decay(tr, kind="auto")
    assert evaluations  # the double fit ran and lost on AIC
    assert auto.model_kind == "single" and not auto.warnings
    assert auto.components == single.components


def _bench_traces(kind, n):
    """n seeded Poisson traces at the lifetime-study bench's counts (peaks
    3e2-2e4), temperatures and lifetimes, of single or double truth."""
    temps = (4, 25, 50, 75, 100, 125, 150, 175)
    traces = []
    for i, peak in enumerate(np.geomspace(3e2, 2e4, n)):
        if kind == "single":
            comps = [(float(peak), thermal_lifetime(temps[i % 8], 164.2, 83.0, 28.0))]
            traces.append(make_trace(comps, seed=i))
        else:
            comps = [(peak / 2.0, thermal_lifetime(temps[i % 8], 158.5, 83.0, 28.0)),
                     (peak / 2.0, 43.3)]
            traces.append(make_trace(comps, pulse=1000.0, t_end=3000.0, seed=i))
    return traces


def _count_double_evaluations(monkeypatch):
    """A list that gains one entry per model evaluation of a double fit."""
    evaluations = []
    real = decay.minimize

    def counting(problem):
        if problem.p0.size == 4:
            model = problem.model

            def counted(p, x):
                evaluations.append(1)
                return model(p, x)

            problem = dataclasses.replace(problem, model=counted)
        return real(problem)

    monkeypatch.setattr(decay, "minimize", counting)
    return evaluations


def test_double_fit_of_single_traces_stops_at_ratio_bound(monkeypatch):
    """On one-lifetime traces the double fit ends with r held at R_MAX
    instead of walking its two lifetimes into each other: over 40 seeded
    traces at the bench's counts and lifetimes its model evaluations (one
    per point tried) stay under 1500. The fit in (A1, tau1, A2, tau2)
    without the ratio bound took 4346, and with it but without projected
    steps at the bounds 1929. The score screen is bypassed, so all 40
    double fits run."""
    sent = _record_screen(monkeypatch, answer=True)
    evaluations = _count_double_evaluations(monkeypatch)
    kinds = [fit_decay(tr).model_kind for tr in _bench_traces("single", 40)]
    assert kinds.count("single") >= 38
    assert len(sent) == 40 and 40 * 2 <= len(evaluations) < 1500


def test_double_fit_takes_a_projected_step_once_r_is_held(monkeypatch):
    """Once r is held at R_MAX, the step that takes A2 past 0 holds A2
    there and moves A1 to take its counts, instead of walking A2 down in
    short clipped steps (67 model evaluations). The score screen, which
    would skip this double fit, is bypassed."""
    _record_screen(monkeypatch, answer=True)
    evaluations = _count_double_evaluations(monkeypatch)
    res = fit_decay(make_trace([(300.0, 164.2)], seed=0))
    assert res.model_kind == "single"
    assert 2 <= len(evaluations) <= 15


@pytest.mark.parametrize("truth", ["single", "double"])
def test_score_screen_changes_no_auto_result(monkeypatch, truth):
    """Skipping the double fit where the screen finds no second component
    returns what the double fit's fallback or AIC returned: model kind,
    parameters, covariance and warnings are the same as with every double
    fit made, and most single-truth double fits are skipped."""
    skipped = 0
    for tr in _bench_traces(truth, 24):
        with monkeypatch.context() as m:
            calls = _record_screen(m)
            screened = fit_decay(tr, kind="auto")
            skipped += not calls[0][1]
        with monkeypatch.context() as m:
            _record_screen(m, answer=True)
            full = fit_decay(tr, kind="auto")
        assert screened.model_kind == full.model_kind
        assert screened.warnings == full.warnings
        assert np.array_equal(screened.fit.parameters, full.fit.parameters)
        assert np.array_equal(screened.fit.covariance, full.fit.covariance)
    if truth == "single":
        assert skipped >= 12
    else:
        assert skipped == 0


def _score_oracle(t, y, single, w):
    """(chi2 misfit at 3 sigma, max over the tau2 grid of the one-sided
    U^2 / I), with I = 1 / [(J_aug' W J_aug)^-1]_mm for J_aug = [J, e] at
    the weights w the screen was given."""
    A1, tau = single.parameters
    e1 = np.exp(-t / tau)
    f = A1 * e1
    J = np.column_stack([e1, A1 * t * e1 / tau**2])
    dof = t.size - 2
    misfit = single.cost > dof + 3.0 * np.sqrt(2.0 * dof)
    s_max = 0.0
    for tau2 in np.geomspace(1.0, 10.0 * (t[-1] - t[0]), decay.SCORE_GRID_SIZE):
        e = np.exp(-t / tau2)
        J_aug = np.column_stack([J, e])
        info = 1.0 / np.linalg.inv(J_aug.T @ (w[:, None] * J_aug))[2, 2]
        u = np.sum(w * (y - f) * e)
        if not info > 0:
            s_max = np.inf  # a non-positive I counts as evidence
        elif u > 0:
            s_max = max(s_max, u * u / info)
    return misfit, s_max


def test_score_screen_matches_the_augmented_information_oracle(monkeypatch):
    """The screen's decision is (3-sigma chi2 misfit or max S >= 7), with
    I computed independently from the inverse of the augmented normal
    matrix; on these traces both answers occur, and the score alone
    decides some of them."""
    calls = _record_screen(monkeypatch)
    for truth in ("single", "double"):
        for tr in _bench_traces(truth, 16):
            fit_decay(tr, kind="auto")
    decisions, by_score = [], 0
    for args, decision in calls:
        misfit, s_max = _score_oracle(*args)
        assert decision == (misfit or s_max >= decay.SCORE_THRESHOLD)
        decisions.append(decision)
        by_score += (not misfit) and decision
    assert decisions.count(False) >= 8 and decisions.count(True) >= 16
    assert by_score >= 1


def test_score_screen_weights_are_the_single_fits_own(monkeypatch):
    """The screen receives the weights the single fit minimised with: at
    them the relative gradient |sum w (y - f) J_k| / sqrt(sum w J_k^2 *
    sum w (y - f)^2), the score of a component with the single tau itself,
    is below 1e-5 for both parameters. Weights 1 / max(f + B, 1) at the
    final parameters gave up to 4.5e-4 on these traces."""
    calls = _record_screen(monkeypatch)
    for tr in _bench_traces("single", 24):
        fit_decay(tr, kind="auto")
    assert len(calls) == 24
    worst = 0.0
    for (t, y, single, w), _ in calls:
        f, J = decay._exp_model(single.parameters, t)
        r = y - f
        grad = np.abs((w * r) @ J)
        worst = max(worst, float(np.max(grad / np.sqrt((w @ J**2) * (w @ r**2)))))
    assert worst < 1e-5


def test_score_screen_takes_a_singular_normal_matrix_as_evidence():
    # a single fit with A1 = 0 has no tau column: J'WJ is singular, and the
    # screen asks for the double fit instead of dividing by zero
    t = np.arange(2.0, 200.0)
    single = FitResult(parameters=np.array([0.0, 50.0]), covariance=np.zeros((2, 2)),
                       reduced_chi2=0.0, n_iterations=1, converged=True, cost=0.0)
    assert decay._needs_double(t, np.zeros(t.size), single, np.ones(t.size)) is True


@pytest.mark.parametrize("kind", ["single", "double"])
def test_forced_kinds_never_consult_the_screen(monkeypatch, kind):
    calls = _record_screen(monkeypatch)
    fit_decay(make_trace([(1e4, 164.2)], seed=9), kind=kind)
    fit_decay(make_trace([(2e4, 158.5), (2e4, 43.3)], pulse=1000.0, t_end=3000.0, seed=7),
              kind=kind)
    assert calls == []


def test_fit_window_validation():
    tr = make_trace([(1e4, 150.0)], seed=1)
    with pytest.raises(ValidationError):
        fit_decay(tr, fit_window=(50.0, 800.0))  # starts before the pulse
    with pytest.raises(ValidationError):
        fit_decay(tr, kind="triple")


# ---------------------------------------------------------------------------
# thermally activated decay model


def test_thermal_lifetime_closed_form():
    # rate sum: 1/163 + exp(-28/(kB*100))/83 at 100 K
    val = thermal_lifetime(100.0, 163.0, 83.0, 28.0)
    rate = 1.0 / 163.0 + np.exp(-28.0 / (KB_MEV_PER_K * 100.0)) / 83.0
    assert val == pytest.approx(1.0 / rate)
    assert val == pytest.approx(151.458, abs=1e-3)


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=1.0, max_value=300.0),
       st.floats(min_value=10.0, max_value=500.0),
       st.floats(min_value=1.0, max_value=500.0),
       st.floats(min_value=1.0, max_value=120.0))
def test_thermal_lifetime_bounded_and_monotone(T, tau, tau_p, e_p):
    # adding a decay channel can only shorten the lifetime, and heating
    # can only strengthen the thermal channel
    v = thermal_lifetime(T, tau, tau_p, e_p)
    # 1/(1/tau + tiny) can overshoot tau by one ulp when the thermal term
    # underflows, so compare with a relative slack
    assert 0 < v <= tau * (1.0 + 1e-12)
    assert thermal_lifetime(T + 10.0, tau, tau_p, e_p) <= v * (1.0 + 1e-12)


def thermal_spec(seed):
    return GeneratorSpec(
        seed=seed, kind="thermal_series",
        truth={"tau": 163.0, "tau_p": 83.0, "e_p": 28.0},
        sampling={"temperatures": [4, 25, 50, 75, 100, 125, 150, 175]},
        noise={"kind": "gaussian", "sigma_frac": 0.02},
    )


def test_fit_thermal_recovery():
    # E_p over 150 draws: at least 0.88 of them covered by their own 3-sigma
    # margin, and the median E_p within half a median sigma of the truth. A
    # correct fit covers at ~0.97 (chi^2-scaled margins, below the nominal
    # 0.997) and fails this with probability < 0.1%; halved margins
    # (coverage ~0.81) or an E_p biased by its own sd fail it.
    fits = [fit_thermal(generate(thermal_spec(seed))) for seed in range(150)]
    e_p = np.array([m.e_p for m in fits])
    margin = np.array([m.fit.sigma3[2] for m in fits])
    assert np.mean(np.abs(e_p - 28.0) <= margin) >= 0.88
    assert abs(np.median(e_p) - 28.0) <= 0.5 * np.median(margin) / 3.0
    m = fit_thermal(generate(thermal_spec(11)))
    assert abs(m.tau - 163.0) / 163.0 < 0.05
    # the fitted model is callable
    assert m(4.0) == pytest.approx(thermal_lifetime(4.0, m.tau, m.tau_p, m.e_p))


# the slow lifetimes a batch of bench traces gave (lifetime-study seed 2,
# single traces, stratum 2): the 4 K fit went to a spurious double whose
# tau1 of 8.6e9 ns carries a margin of 1.2e17 ns, so the coldest row has no
# weight and the start must take tau from the next coldest row instead
ZERO_WEIGHT_COLDEST = [
    (4, 8586330000.0, 3.9333333333333336e+16), (25, 164.356, 0.9333333333333332),
    (50, 163.719, 0.89), (75, 159.158, 0.9), (100, 153.91, 0.9500000000000001),
    (125, 141.935, 0.85), (150, 135.247, 0.84), (175, 123.357, 0.8566666666666666),
]


def test_fit_thermal_zero_weight_coldest_point():
    m = fit_thermal(ZERO_WEIGHT_COLDEST)
    assert abs(m.e_p - 28.0) <= m.fit.sigma3[2]
    assert abs(m.tau - 164.2) <= m.fit.sigma3[0]


THERMAL_TEMPS = np.array([4.0, 25.0, 50.0, 75.0, 100.0, 125.0, 150.0, 175.0])


def test_arrhenius_start_noiseless():
    tau_tot = thermal_lifetime(THERMAL_TEMPS, 163.0, 83.0, 28.0)
    start = decay._arrhenius_start(THERMAL_TEMPS, tau_tot, 0.02 * tau_tot)
    assert start == pytest.approx((163.0, 83.0, 28.0), rel=1e-9)
    # no row has sigma < tau/2: the coldest row and 20 meV
    start = decay._arrhenius_start(THERMAL_TEMPS, tau_tot, tau_tot)
    assert start == (tau_tot[0], tau_tot[0], 20.0)


def test_arrhenius_start_skips_zero_weight_coldest_point():
    T, tau_tot, sigma = np.array(ZERO_WEIGHT_COLDEST, dtype=float).T
    assert decay._arrhenius_start(T, tau_tot, sigma)[0] == 164.356


def test_fit_thermal_minimizes_once(monkeypatch):
    real, calls = decay.minimize, []

    def counting_minimize(problem):
        calls.append(problem)
        return real(problem)

    monkeypatch.setattr(decay, "minimize", counting_minimize)
    fit_thermal(ZERO_WEIGHT_COLDEST)
    assert len(calls) == 1


def test_fit_thermal_input_guards():
    with pytest.raises(ValidationError):
        fit_thermal([(4.0, 160.0, 1.0)] * 3)  # too few points
    for pairs in ([(4.0, 160.0)] * 4, [4.0, 25.0, 50.0, 75.0]):
        with pytest.raises(ValidationError, match=r"\(T, tau_tot, sigma\) triples"):
            fit_thermal(pairs)
    for cold in (0.0, -4.0):
        with pytest.raises(ValidationError, match="temperatures must be positive"):
            fit_thermal([(cold, 160.0, 1.0), (25.0, 159.0, 1.0),
                         (50.0, 150.0, 1.0), (75.0, 140.0, 1.0)])
    with pytest.raises(DegenerateFitError):
        fit_thermal([(4.0, 160.0, 1.0), (4.0, 161.0, 1.0),
                     (50.0, 150.0, 1.0), (50.0, 149.0, 1.0)])  # 2 temps
    with pytest.raises(ValidationError):
        fit_thermal([(4.0, 160.0, 0.0), (25.0, 159.0, 1.0),
                     (50.0, 150.0, 1.0), (75.0, 140.0, 1.0)])
    with pytest.raises(DegenerateFitError):
        # no excess rate anywhere: tau_p and E_p are not identified
        fit_thermal([(4.0, 160.0, 1.0), (25.0, 160.0, 1.0),
                     (50.0, 160.0, 1.0), (75.0, 160.0, 1.0)])


# ---------------------------------------------------------------------------
# pooling


def test_pool_single_channel():
    pooled = pool_lifetimes([(160.0, 2.0), (164.0, 4.0), (162.0, 3.0)])
    assert len(pooled) == 1
    ch = pooled[0]
    assert len(ch.members) == 3
    # inverse-variance mean and its error
    w = np.array([1 / 4.0, 1 / 16.0, 1 / 9.0])
    t = np.array([160.0, 164.0, 162.0])
    assert ch.tau == pytest.approx(float(np.sum(w * t) / np.sum(w)))
    assert ch.sigma == pytest.approx(float(1.0 / np.sqrt(np.sum(w))))
    assert ch.sigma <= 2.0  # pooling never loses precision


def test_pool_separates_distinct_channels():
    pooled = pool_lifetimes([(43.0, 1.0), (160.0, 2.0), (165.0, 2.0),
                             (45.0, 1.5)])
    assert len(pooled) == 2
    taus = sorted(ch.tau for ch in pooled)
    assert taus[0] == pytest.approx(43.8, abs=1.0)
    assert taus[1] == pytest.approx(162.5, abs=2.0)


def test_pool_guards():
    with pytest.raises(FitError, match="no lifetimes to pool"):
        pool_lifetimes([])
    # a non-positive or non-finite tau or sigma must not be pooled: (-5, 1)
    # once joined (100, 1) in one 47.5 ns channel
    for bad in ((100.0, 0.0), (-5.0, 1.0), (0.0, 1.0), (np.inf, 1.0), (np.nan, 1.0),
                (100.0, np.nan), (100.0, np.inf)):
        with pytest.raises(ValidationError):
            pool_lifetimes([bad, (100.0, 1.0)])


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.floats(min_value=30.0, max_value=300.0),
                          st.floats(min_value=0.5, max_value=10.0)),
                min_size=1, max_size=8))
def test_pool_sigma_never_worse_than_best_member(entries):
    for ch in pool_lifetimes(entries):
        best = min(s for _, s in ch.members)
        assert ch.sigma <= best + 1e-12
