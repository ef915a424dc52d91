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
from sicpl.errors import (
    DegenerateFitError,
    InsufficientBaselineError,
    NoDataError,
    ValidationError,
)
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
    assert bg.n_bins == 100
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
    assert abs(tau - 164.2) <= res.sigma3[1]
    assert res.converged
    assert res.model_kind == "single"


def test_auto_prefers_single_on_single_data():
    tr = make_trace([(1e4, 164.2)], seed=9)
    assert fit_decay(tr, kind="auto").model_kind == "single"


def test_auto_selects_double_on_double_data():
    tr = make_trace([(2e4, 158.5), (2e4, 43.3)], pulse=1000.0,
                    t_end=3000.0, seed=7)
    res = fit_decay(tr, kind="auto")
    assert res.model_kind == "double"
    taus = res.lifetimes
    assert taus[0] > taus[1]  # reported slow-first
    assert abs(taus[0] - 158.5) <= res.sigma3[1]
    assert abs(taus[1] - 43.3) <= res.sigma3[3]


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
        fit = real(t, y, w, p0, *args)
        p = fit.parameters.copy()
        p[3] = p[1]
        return dataclasses.replace(fit, parameters=p)

    monkeypatch.setattr(decay, "_fit_exponentials", fit_exponentials)
    tr = make_trace([(2e4, 158.5), (2e4, 43.3)], pulse=1000.0,
                    t_end=3000.0, seed=7)
    res = fit_decay(tr, kind=kind)
    assert res.model_kind == ("double" if double_fit == "accepted" else "single")
    assert res.warnings == (FALLBACK_WARNINGS[double_fit] if kind == "double" else [])


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
    margin = np.array([m.sigma3[2] for m in fits])
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
    assert abs(m.e_p - 28.0) <= m.sigma3[2]
    assert abs(m.tau - 164.2) <= m.sigma3[0]


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
    assert ch.n_members == 3
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
    with pytest.raises(NoDataError):
        pool_lifetimes([])
    with pytest.raises(ValidationError):
        pool_lifetimes([(100.0, 0.0)])


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.floats(min_value=30.0, max_value=300.0),
                          st.floats(min_value=0.5, max_value=10.0)),
                min_size=1, max_size=8))
def test_pool_sigma_never_worse_than_best_member(entries):
    for ch in pool_lifetimes(entries):
        best = min(s for _, s in ch.members)
        assert ch.sigma <= best + 1e-12
