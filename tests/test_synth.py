"""Synthetic-data generators: determinism, noise statistics, closure."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sicpl.errors import ValidationError
from sicpl.spectrum import EV_NM_MEV
from sicpl.synth import (
    GeneratorSpec,
    expected_decay,
    expected_spectrum,
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
    with pytest.raises(ValidationError):
        GeneratorSpec(seed=1, kind="mystery", truth={}, sampling={})
    with pytest.raises(ValidationError):
        GeneratorSpec(seed=1, kind="decay", truth={}, sampling={},
                      noise={"kind": "salt"})
    with pytest.raises(ValidationError):
        GeneratorSpec(seed=1, kind="decay", truth={}, sampling={},
                      noise={"kind": "gaussian"})  # missing sigma_frac


def test_determinism_byte_identical():
    a = generate(decay_spec())
    b = generate(decay_spec())
    assert a.counts.tobytes() == b.counts.tobytes()
    assert a.times.tobytes() == b.times.tobytes()
    c = generate(decay_spec(seed=4))
    assert c.counts.tobytes() != a.counts.tobytes()


def test_point_independence():
    # the substream-per-point scheme makes each bin's draw independent of
    # the sampling extent: a longer trace reproduces the shared prefix
    short = generate(decay_spec())
    long_spec = decay_spec()
    long_spec.sampling = dict(long_spec.sampling, t_end=1200.0)
    longer = generate(long_spec)
    assert np.array_equal(longer.counts[: short.counts.size], short.counts)


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
    pw = generate(GeneratorSpec(seed=1, kind="power_series",
                                truth={"c": 2.0, "k": 1.3},
                                sampling={"powers": [1.0, 2.0]}))
    assert pw == [(1.0, 2.0), (2.0, pytest.approx(2.0 * 2.0**1.3))]
    pz = generate(GeneratorSpec(seed=1, kind="polarization_series",
                                truth={"a": 1.0, "b": 2.0},
                                sampling={"angles": [0.0, 90.0]}))
    assert pz[0][1] == pytest.approx(3.0)
    assert pz[1][1] == pytest.approx(1.0)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_any_seed_gives_valid_trace(seed):
    tr = generate(decay_spec(seed=seed))
    assert np.all(tr.counts >= 0)
    assert tr.counts.size == 901


SERIES = {
    "thermal_series": ({"tau": 163.0, "tau_p": 83.0, "e_p": 28.0}, {"temperatures": [4.0, 50.0]}),
    "power_series": ({"c": 3.0, "k": 1.0}, {"powers": [0.1, 1.0]}),
    "polarization_series": ({"a": 10.0, "b": 40.0}, {"angles": [0.0, 45.0]}),
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


def test_gaussian_counts_noise_on_decay():
    spec = GeneratorSpec(
        seed=5, kind="decay",
        truth={"components": [(0.0, 1.0)], "background": 400.0, "pulse_time": 5000.0},
        sampling={"t_start": 0.0, "t_end": 3999.0, "bin_ns": 1.0},
        noise={"kind": "gaussian", "sigma_frac": 0.1})
    counts = generate(spec).counts
    assert counts.size == 4000
    assert np.all(counts >= 0) and np.all(counts == np.round(counts))
    assert abs(counts.mean() - 400.0) < 3.0 * 40.0 / np.sqrt(counts.size)
    assert counts.std() == pytest.approx(40.0, rel=0.1)


def test_gaussian_counts_noise_on_spectrum():
    spec = GeneratorSpec(
        seed=6, kind="spectrum",
        truth={"zpl": [("wide", 1280.0, 50.0, 1e6)]},
        sampling={"wl_start": 1270.0, "wl_end": 1290.0, "step_nm": 0.01},
        noise={"kind": "gaussian", "sigma_frac": 0.01})
    _, mean = expected_spectrum(spec)
    counts = generate(spec).intensities
    assert counts.size == mean.size == 2001
    assert np.all(counts >= 0) and np.all(counts == np.round(counts))
    z = (counts - mean) / (0.01 * mean)
    assert abs(z.mean()) < 3.0 / np.sqrt(z.size)
    assert z.std() == pytest.approx(1.0, rel=0.1)


def test_gaussian_noise_on_a_negative_mean():
    # sd is sigma_frac * |mean|, so a negative intensity gets noise too
    rows = generate(GeneratorSpec(seed=1, kind="power_series", truth={"c": -3.0, "k": 1.0},
                                  sampling={"powers": [1.0, 2.0, 4.0]},
                                  noise={"kind": "gaussian", "sigma_frac": 0.01}))
    for power, value in rows:
        assert value != -3.0 * power
        assert abs(value + 3.0 * power) < 5 * 0.01 * 3.0 * power
