"""Synthetic-data generators: determinism, noise statistics, closure."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sicpl.errors import ValidationError
from sicpl.spectrum import EV_NM_MEV
from sicpl.synth import (
    FORMS,
    HR_KEYS,
    NOISE_KEYS,
    PSB_KEYS,
    RECIPES,
    GeneratorSpec,
    _noise,
    expected_decay,
    generate,
)


def decay_spec(seed=3, noise=None):
    return GeneratorSpec(
        seed=seed, kind="decay",
        truth={"components": [(5e3, 120.0)], "background": 15.0,
               "pulse_time": 50.0},
        sampling={"t_start": 0.0, "t_end": 900.0, "bin_ns": 1.0},
        noise=noise or {"kind": "poisson"},
    )


def test_spec_validation():
    # the noise is checked after the truth and sampling, so the last two
    # recipes give both in full
    with pytest.raises(ValidationError, match="unknown generator kind 'mystery'"):
        GeneratorSpec(seed=1, kind="mystery", truth={}, sampling={})
    with pytest.raises(ValidationError,
                       match="decay noise must be one of none, poisson, got 'salt'"):
        decay_spec(noise={"kind": "salt"})
    with pytest.raises(ValidationError, match="gaussian noise needs 'sigma_frac'"):
        GeneratorSpec(seed=1, kind="thermal_series",
                      truth={"tau": 163.0, "tau_p": 83.0, "e_p": 28.0},
                      sampling={"temperatures": [4.0, 50.0]}, noise={"kind": "gaussian"})


def test_every_recipe_key_has_one_form():
    # FORMS is the one table of value forms: every key the recipe tables
    # list has an entry (the noise 'kind' is in none of them and takes
    # any value), each entry is for such a key, and each noise kind with
    # keys of its own is one a generator takes
    keys = {key for truth, sampling, _ in RECIPES.values() for key in (*truth, *sampling)}
    keys |= {*PSB_KEYS, *HR_KEYS, *(key for kind in NOISE_KEYS.values() for key in kind)}
    assert "kind" not in keys and keys == FORMS.keys()
    assert {kind for *_, kinds in RECIPES.values() for kind in kinds} == NOISE_KEYS.keys()


def test_determinism_byte_identical():
    a = generate(decay_spec())
    b = generate(decay_spec())
    assert a.counts.tobytes() == b.counts.tobytes()
    assert a.times.tobytes() == b.times.tobytes()
    c = generate(decay_spec(seed=4))
    assert c.counts.tobytes() != a.counts.tobytes()


def test_point_independence():
    # the draws are one default_rng(seed) stream taken in point order, so a
    # bin's draw does not depend on the sampling extent: a longer trace
    # reproduces the shared prefix. Background 2 puts Poisson rates on both
    # sides of 10, where numpy changes from multiplication to PTRS
    short = generate(decay_spec())
    long_spec = decay_spec()
    long_spec.sampling = dict(long_spec.sampling, t_end=1200.0)
    longer = generate(long_spec)
    assert np.array_equal(longer.counts[: short.counts.size], short.counts)
    spec = decay_spec()
    spec.truth = dict(spec.truth, background=2.0)
    traces = []
    for t_end in (200.0, 900.0):
        spec.sampling = dict(spec.sampling, t_end=t_end)
        traces.append(generate(spec).counts)
    assert traces[0].size == 201 and traces[1].size == 901
    assert np.array_equal(traces[1][:201], traces[0])
    # the normal draws of a thermal series: a longer temperature list
    # reproduces the shared rows
    temperatures = list(np.linspace(4.0, 300.0, 40))
    series = [generate(GeneratorSpec(
        seed=3, kind="thermal_series", truth={"tau": 163.0, "tau_p": 83.0, "e_p": 28.0},
        sampling={"temperatures": temperatures[:n]},
        noise={"kind": "gaussian", "sigma_frac": 0.1})) for n in (10, 40)]
    assert len(series[1]) == 40 and series[1][:10] == series[0]


def test_noiseless_decay_matches_expectation():
    spec = decay_spec(noise={"kind": "none"})
    t, y = expected_decay(spec)
    tr = generate(spec)
    assert np.array_equal(tr.counts, np.round(y))
    assert np.all(tr.counts == np.round(tr.counts))


def test_poisson_noise_statistics():
    # mean of many independent bins at a constant rate ~ the rate
    spec = GeneratorSpec(
        seed=9, kind="decay",
        truth={"components": [(0.0, 1.0)], "background": 40.0,
               "pulse_time": 5000.0},
        sampling={"t_start": 0.0, "t_end": 4999.0, "bin_ns": 1.0},
        noise={"kind": "poisson"},
    )
    tr = generate(spec)
    mean = tr.counts.mean()
    var = tr.counts.var()
    assert abs(mean - 40.0) < 3.0 * np.sqrt(40.0 / tr.counts.size)
    assert abs(var - 40.0) / 40.0 < 0.1  # Poisson: variance == mean


def test_low_rate_poisson_counts_are_nonnegative_ints():
    spec = GeneratorSpec(
        seed=2, kind="decay",
        truth={"components": [(3.0, 80.0)], "background": 0.4,
               "pulse_time": 20.0},
        sampling={"t_start": 0.0, "t_end": 600.0, "bin_ns": 1.0},
        noise={"kind": "poisson"},
    )
    tr = generate(spec)
    assert np.all(tr.counts >= 0)
    assert np.all(tr.counts == np.round(tr.counts))


def test_invalid_truth_rejected():
    spec = decay_spec()
    spec.truth = dict(spec.truth, components=[(100.0, -5.0)])
    with pytest.raises(ValidationError):
        generate(spec)
    sspec = GeneratorSpec(
        seed=1, kind="spectrum",
        truth={"zpl": [("a", 1280.0, 0.3, 10.0), ("a", 1281.0, 0.3, 5.0)]},
        sampling={"wl_start": 1270.0, "wl_end": 1290.0, "step_nm": 0.1},
    )
    with pytest.raises(ValidationError):
        generate(sspec)


def test_spectrum_generator_area():
    spec = GeneratorSpec(
        seed=1, kind="spectrum",
        truth={"zpl": [("alpha3", 1280.0, 0.3, 700.0)]},
        sampling={"wl_start": 1270.0, "wl_end": 1290.0, "step_nm": 0.02},
    )
    sp = generate(spec)
    area = np.trapezoid(sp.intensities, sp.wavelengths)
    assert area == pytest.approx(700.0, rel=1e-6)


def test_psb_generator_area_via_jacobian():
    # the sideband is defined per meV; after conversion to per-nm the
    # integrated counts must still equal i0 * j_max
    spec = GeneratorSpec(
        seed=1, kind="spectrum",
        truth={"psb": [{"i0": 50.0, "sigma": 5.0, "delta0": 30.0, "j_max": 4,
                        "e_ref_nm": 1280.0}]},
        sampling={"wl_start": 1281.0, "wl_end": 1420.0, "step_nm": 0.05},
    )
    sp = generate(spec)
    area = np.trapezoid(sp.intensities, sp.wavelengths)
    assert area == pytest.approx(200.0, rel=1e-3)


def test_thermal_series_shapes():
    spec = GeneratorSpec(
        seed=1, kind="thermal_series",
        truth={"tau": 163.0, "tau_p": 83.0, "e_p": 28.0},
        sampling={"temperatures": [4.0, 50.0, 100.0, 150.0]},
        noise={"kind": "gaussian", "sigma_frac": 0.02},
    )
    pts = generate(spec)
    assert len(pts) == 4
    for T, tau, sig in pts:
        assert sig == pytest.approx(0.02 * (tau / (1.0 + np.finfo(float).eps)),
                                    rel=0.2)
    with pytest.raises(ValidationError):
        generate(GeneratorSpec(
            seed=1, kind="thermal_series",
            truth={"tau": 163.0, "tau_p": 83.0, "e_p": 28.0},
            sampling={"temperatures": [4.0, 50.0, 100.0, 150.0]},
            noise={"kind": "poisson"}))


def test_generate_dispatch():
    assert generate(decay_spec()).pulse_time == 50.0


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_any_seed_gives_valid_trace(seed):
    tr = generate(decay_spec(seed=seed))
    assert np.all(tr.counts >= 0)
    assert tr.counts.size == 901


SERIES = {
    "thermal_series": ({"tau": 163.0, "tau_p": 83.0, "e_p": 28.0}, {"temperatures": [4.0, 50.0]}),
}


@pytest.mark.parametrize("kind", SERIES)
def test_series_refuse_poisson_noise(kind):
    truth, sampling = SERIES[kind]
    generate(GeneratorSpec(seed=1, kind=kind, truth=truth, sampling=sampling,
                           noise={"kind": "gaussian", "sigma_frac": 0.1}))
    with pytest.raises(ValidationError, match=f"{kind} noise must be one of none, gaussian"):
        GeneratorSpec(seed=1, kind=kind, truth=truth, sampling=sampling,
                      noise={"kind": "poisson"})


HR_MODES = [[0.30, 20.0], [0.25, 35.0], [0.11, 60.0]]


def test_hr_spectrum_area_and_zpl_share():
    # the Huang-Rhys lineshape carries area_nm counts*nm, and the ZPL bin
    # holds exp(-S) of them
    e_zpl = 1e-3 * EV_NM_MEV / 1280.0
    sp = generate(GeneratorSpec(
        seed=1, kind="spectrum",
        truth={"hr": {"modes": HR_MODES, "zpl_energy_ev": e_zpl, "area_nm": 500.0}},
        sampling={"wl_start": 1270.0, "wl_end": 1520.0, "step_nm": 0.02}))
    wl, y = sp.wavelengths, sp.intensities
    assert np.all(y >= 0)
    assert np.trapezoid(y, wl) == pytest.approx(500.0, rel=2e-3)
    near = np.abs(EV_NM_MEV / wl - 1e3 * e_zpl) < 0.3
    share = np.trapezoid(y[near], wl[near]) / np.trapezoid(y, wl)
    assert share == pytest.approx(np.exp(-sum(s for s, _ in HR_MODES)), rel=5e-3)


# ---------------------------------------------------------------------------
# the noise draws: bounds below are 4 sigma, so a correct sampler fails
# each with probability below 1e-4


def _poisson_draws(rate, n):
    spec = GeneratorSpec(seed=21, kind="decay",
                         truth={"components": [], "pulse_time": 0.0},
                         sampling={"t_start": 0.0, "t_end": 1.0, "bin_ns": 1.0},
                         noise={"kind": "poisson"})
    return _noise(spec, np.full(n, rate))


@pytest.mark.parametrize("rate", [0.3, 9.99, 10.0, 30.0, 2e4])
def test_poisson_draws_match_the_pmf(rate):
    n = 200_000
    k = _poisson_draws(rate, n)
    assert np.all(k >= 0) and np.all(k == np.round(k))
    # mean and variance: var(mean) = rate / n, var(variance) ~ (rate + 2 rate^2) / n
    assert abs(k.mean() - rate) < 4.0 * np.sqrt(rate / n)
    assert abs(k.var() - rate) < 4.0 * np.sqrt((rate + 2.0 * rate**2) / n)
    # chi-square against the pmf over the values expecting >= 5 draws, with
    # each tail pooled into the end bin next to it
    values = np.arange(int(rate + 10.0 * np.sqrt(rate) + 10.0))
    expected = n * np.exp([v * math.log(rate) - rate - math.lgamma(v + 1.0) for v in values])
    kept = values[expected >= 5.0]
    lo, hi = kept[0], kept[-1]
    observed = np.bincount(np.clip(k.astype(int), lo, hi) - lo, minlength=hi - lo + 1)
    exp_bins = expected[lo:hi + 1].copy()
    exp_bins[0] += expected[:lo].sum()
    exp_bins[-1] = n - exp_bins[:-1].sum()
    chi2 = np.sum((observed - exp_bins) ** 2 / exp_bins)
    dof = exp_bins.size - 1
    # Wilson-Hilferty: (chi2 / dof)^(1/3) is near normal
    z = ((chi2 / dof) ** (1.0 / 3.0) - (1.0 - 2.0 / (9.0 * dof))) / math.sqrt(2.0 / (9.0 * dof))
    assert z < 4.0, f"chi2 {chi2:.1f} on {dof} dof"


def test_poisson_draws_of_no_rate_are_zero():
    assert np.array_equal(_poisson_draws(0.0, 1000), np.zeros(1000))
    assert np.array_equal(_noise(decay_spec(), np.array([-3.0, 0.0, 1e-300])), np.zeros(3))


def test_noise_refuses_a_non_finite_mean():
    with pytest.raises(ValidationError, match="not all finite"):
        _noise(decay_spec(), np.array([1.0, np.inf]))


def test_gaussian_draws_are_standard_normal():
    n = 200_000
    spec = GeneratorSpec(seed=17, kind="thermal_series",
                         truth={"tau": 1.0, "tau_p": 1.0, "e_p": 0.0},
                         sampling={"temperatures": [1.0]},
                         noise={"kind": "gaussian", "sigma_frac": 0.5})
    z = _noise(spec, np.full(n, -2.0)) + 2.0
    assert abs(z.mean()) < 4.0 / np.sqrt(n)
    assert abs(z.std() - 1.0) < 4.0 / np.sqrt(2.0 * n)
    for cut, tail in ((1.0, 0.31731051), (2.0, 0.04550026), (3.0, 0.00269980)):
        share = np.mean(np.abs(z) > cut)
        assert abs(share - tail) < 4.0 * np.sqrt(tail * (1.0 - tail) / n)


def test_first_draw_differs_between_seeds():
    spec = GeneratorSpec(seed=0, kind="thermal_series",
                         truth={"tau": 1.0, "tau_p": 1.0, "e_p": 0.0},
                         sampling={"temperatures": [1.0]},
                         noise={"kind": "gaussian", "sigma_frac": 1.0})
    firsts = set()
    for seed in range(1001):
        spec.seed = seed
        firsts.add(_noise(spec, np.ones(1))[0])
    assert len(firsts) == 1001


@pytest.mark.parametrize("truth", [{"tau": -163.0}, {"tau_p": 0.0}, {"e_p": -1.0}])
def test_thermal_truth_range_checked(truth):
    spec = GeneratorSpec(seed=1, kind="thermal_series",
                         truth={"tau": 163.0, "tau_p": 83.0, "e_p": 28.0, **truth},
                         sampling={"temperatures": [4.0, 50.0]})
    with pytest.raises(ValidationError, match="invalid thermal truth"):
        generate(spec)


def test_oversized_grid_refused_before_allocation():
    spec = decay_spec()
    spec.sampling = dict(spec.sampling, t_end=1e12, bin_ns=1e-3)
    with pytest.raises(ValidationError, match="sampling gives a grid"):
        expected_decay(spec)
