"""ZPL fitting, sideband series, lineshape and DW partitioning."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sicpl import spectrum
from sicpl.datatypes import Spectrum
from sicpl.errors import FitError, ValidationError
from sicpl.nls import finite_diff_jacobian, minimize
from sicpl.spectrum import (
    EV_NM_MEV,
    HRModel,
    PsbModel,
    ZplLine,
    ZplSet,
    find_zpls,
    fit_psb,
    hr_lineshape,
    partition_dw,
    psb_eval,
    _psb_model,
    _psb_sums,
    to_phonon_axis,
)
from sicpl.synth import GeneratorSpec, generate

E3 = EV_NM_MEV / 1280.0
C2 = EV_NM_MEV / (E3 + 1.47)
CB = EV_NM_MEV / (E3 - 40.0)


def spectrum_with_lines(zpl, step=0.05, wl=(1270.0, 1290.0), seed=1, noise="none"):
    spec = GeneratorSpec(seed=seed, kind="spectrum", truth={"zpl": zpl},
                         sampling={"wl_start": wl[0], "wl_end": wl[1],
                                   "step_nm": step},
                         noise={"kind": noise})
    return generate(spec)


def test_find_zpls_doublet():
    sp = spectrum_with_lines([("alpha3", 1280.0, 0.30, 700.0),
                              ("alpha2", C2, 0.30, 300.0)])
    zpls = find_zpls(sp, [("alpha3", 1280.0, 1.5), ("alpha2", C2, 1.5)])
    assert type(zpls["alpha3"].fwhm_is_upper_bound) is bool  # JSON writes it
    assert zpls["alpha3"].center == pytest.approx(1280.0, abs=1e-6)
    assert zpls["alpha3"].area == pytest.approx(700.0, rel=1e-6)
    assert zpls.doublet_splitting_mev == pytest.approx(1.47, abs=1e-6)
    assert zpls.warnings == []
    assert zpls.area_nm(("alpha2", "alpha3")) == pytest.approx(1000.0, rel=1e-6)


def test_splitting_warning_when_off():
    c2_off = EV_NM_MEV / (E3 + 2.5)
    sp = spectrum_with_lines([("alpha3", 1280.0, 0.30, 700.0),
                              ("alpha2", c2_off, 0.30, 300.0)])
    zpls = find_zpls(sp, [("alpha3", 1280.0, 1.5), ("alpha2", c2_off, 1.5)])
    assert any("splitting" in w for w in zpls.warnings)


def test_ordering_warning_when_alpha2_is_not_above_alpha3():
    swapped = ZplSet(lines={"alpha3": ZplLine("alpha3", C2, 0.0, 0.3, False, 300.0),
                            "alpha2": ZplLine("alpha2", 1280.0, 0.0, 0.3, False, 700.0)})
    assert swapped.doublet_splitting_mev == pytest.approx(-1.47)
    assert swapped.warnings == ["doublet energy ordering inconsistent (alpha2 <= alpha3)"]


def test_resolution_limited_fwhm_is_upper_bound():
    # true width below two pixels at 0.2 nm/pixel sampling
    sp = spectrum_with_lines([("alpha3", 1280.0, 0.3, 700.0)], step=0.2,
                             wl=(1275.0, 1285.0))
    zpls = find_zpls(sp, [("alpha3", 1280.0, 3.0)])
    line = zpls["alpha3"]
    assert line.fwhm_is_upper_bound is True
    assert line.fwhm == pytest.approx(0.4)  # two pixels


def test_zpl_fits_with_background_on_its_bound(monkeypatch):
    # Poisson spectra at 0.3x-10x of the benchmark's lines and sidebands:
    # where the local background B ends on its bound 0, the fit must reach
    # the cost of the same problem with B held at 0 by equal bounds, and
    # no fit may crawl along the bound
    fits = []

    def recording_minimize(problem):
        fits.append((problem, minimize(problem)))
        return fits[-1][1]

    monkeypatch.setattr(spectrum, "minimize", recording_minimize)
    lines = [("alpha3", 1280.0, 3.0), ("alpha2", C2, 3.0), ("beta", CB, 4.0)]
    for seed, scale in enumerate(np.geomspace(0.3, 10.0, 60)):
        truth = {"zpl": [("alpha3", 1280.0, 0.3, 700.0 * scale),
                         ("alpha2", C2, 0.3, 300.0 * scale),
                         ("beta", CB, 0.3, 400.0 * scale)],
                 "psb": [{"i0": 90.0 * scale, "sigma": 6.0, "delta0": 35.0, "j_max": 10,
                          "e_ref_nm": 1280.0, "doublet": [1.47, 300.0 / 700.0]},
                         {"i0": 230.0 * scale, "sigma": 6.0, "delta0": 50.0, "j_max": 3,
                          "e_ref_nm": CB}]}
        find_zpls(generate(GeneratorSpec(
            seed=seed, kind="spectrum", truth=truth, noise={"kind": "poisson"},
            sampling={"wl_start": 1270.0, "wl_end": 1340.0, "step_nm": 0.05})), lines)
    assert len(fits) == 180
    assert all(fit.converged and fit.n_iterations <= 20 for _, fit in fits)
    on_bound = [(problem, fit) for problem, fit in fits if fit.parameters[0] == 0.0]
    assert len(on_bound) >= 20
    for problem, fit in on_bound:
        lower, upper, p0 = problem.lower.copy(), problem.upper.copy(), problem.p0.copy()
        lower[0] = upper[0] = p0[0] = 0.0
        held = minimize(replace(problem, lower=lower, upper=upper, p0=p0))
        assert fit.cost == pytest.approx(held.cost, rel=1e-10)


def test_line_not_found():
    wl = np.linspace(1270.0, 1290.0, 200)
    flat = Spectrum(wavelengths=wl, intensities=np.full(wl.size, 5.0))
    with pytest.raises(FitError, match="no local maximum: window is flat"):
        find_zpls(flat, [("alpha3", 1280.0, 2.0)])
    ramp = Spectrum(wavelengths=wl, intensities=wl - 1260.0)
    with pytest.raises(FitError, match="maximum at window edge; no interior peak"):
        find_zpls(ramp, [("alpha3", 1280.0, 2.0)])
    with pytest.raises(ValidationError):
        find_zpls(flat, [("alpha3", 1269.0, 4.0)])  # window leaves the data


def test_repeated_label_is_refused():
    # a second row with the same label would replace the first line's fit
    sp = spectrum_with_lines([("alpha3", 1280.0, 0.30, 700.0),
                              ("alpha2", C2, 0.30, 300.0)])
    with pytest.raises(ValidationError, match="'alpha3' appears more than once"):
        find_zpls(sp, [("alpha3", 1280.0, 1.5), ("alpha3", C2, 1.5)])


# field: values ZplLine refuses there; an int or a bool is no float, even
# where its value is in the domain
BAD_LINE_FIELDS = {
    "label": [None, 3],
    "center": [0.0, -1280.0, math.nan, math.inf, 1280, True, "1280.0"],
    "center_sigma3": [-1.0, math.nan, math.inf, 0],
    "fwhm": [0.0, -0.3, math.nan, math.inf, 1],
    "fwhm_is_upper_bound": [1, 0.0, None, "false"],
    "area": [-5.0, -math.inf, math.nan, 700],
}


def test_zpl_line_checks_its_fields():
    good = {"label": "alpha3", "center": 1280.0, "center_sigma3": 0.0, "fwhm": 0.3,
            "fwhm_is_upper_bound": False, "area": 0.0}
    ZplLine(**good)  # a zero margin and a zero area are in the domain
    line = ZplLine(**{**good, "center": np.float64(1280.0), "area": np.float64(700.0)})
    assert line.energy_mev == E3
    for name, values in BAD_LINE_FIELDS.items():
        for value in values:
            with pytest.raises(ValidationError, match=f"{name} must be a"):
                ZplLine(**{**good, name: value})


# ---------------------------------------------------------------------------
# sideband series


def test_psb_spot_value():
    # at delta = Delta0 every term contributes 1/(sqrt(j pi) sigma)
    val = psb_eval(PsbModel(i0=2.0, sigma=3.0, delta0=40.0, j_max=10),
                   np.array([40.0]))[0]
    expected = 2.0 * sum(1.0 / math.sqrt(j) for j in range(1, 11)) \
        / (math.sqrt(math.pi) * 3.0)
    assert val == pytest.approx(expected, rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0.5, max_value=12.0),
       st.floats(min_value=10.0, max_value=60.0),
       st.integers(min_value=1, max_value=10),
       st.floats(min_value=0.05, max_value=1.0))
def test_psb_area_invariant(sigma, delta0, j_max, ratio):
    # total area i0 * j_max, with or without doublet replication
    model = PsbModel(i0=7.0, sigma=sigma, delta0=delta0, j_max=j_max,
                     doublet=(1.47, ratio))
    span = delta0 + 12.0 * sigma * math.sqrt(j_max)
    d = np.linspace(delta0 - 12.0 * sigma * math.sqrt(j_max), span, 6000)
    area = np.trapezoid(psb_eval(model, d), d)
    assert area == pytest.approx(model.area, rel=1e-6)


def _per_j_terms(d, sigma, centre, j_max):
    """Each g_j = exp(-u_j^2) / (sqrt(pi) s_j) of one line, with s_j^2."""
    for j in range(1, j_max + 1):
        sj = math.sqrt(j) * sigma
        yield np.exp(-(((d - centre) / sj) ** 2)) / (math.sqrt(j * math.pi) * sigma), sj**2


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.5, max_value=12.0),
       st.floats(min_value=1.0, max_value=60.0),
       st.integers(min_value=1, max_value=10),
       st.integers(min_value=1, max_value=3000))
def test_psb_base_matches_per_j_loop(sigma, delta0, j_max, n):
    # the one matrix product over the (j_max, n) exponentials against the
    # per-j sums it replaced
    d = np.linspace(-10.0, 200.0, n)
    g_ref, gs_ref = np.zeros_like(d), np.zeros_like(d)
    for gj, s2 in _per_j_terms(d, sigma, delta0, j_max):
        g_ref += gj
        gs_ref += gj / s2
    g, gs = _psb_sums(d, sigma, delta0, j_max)
    # far-tail g and gs can be subnormal, where a float holds fewer than 53 bits
    np.testing.assert_allclose(g, g_ref, rtol=1e-14, atol=np.finfo(float).tiny)
    np.testing.assert_allclose(gs, gs_ref, rtol=1e-14, atol=np.finfo(float).tiny)


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.5, max_value=12.0),
       st.floats(min_value=1.0, max_value=60.0),
       st.integers(min_value=1, max_value=10),
       st.floats(min_value=0.05, max_value=1.0))
# a subnormal far-tail value that differs from the loop's in its last bits
@example(0.741217490931057, 8.795712204482342, 7, 1.0)
def test_psb_doublet_matches_per_j_loop(sigma, delta0, j_max, ratio):
    # the weighted pair, the secondary 1.47 meV below the primary, against
    # a per-j loop over both lines
    d = np.linspace(-10.0, 200.0, 1500)
    w = 1.0 / (1.0 + ratio)
    ref = np.zeros_like(d)
    for centre, weight in ((delta0, w), (delta0 - 1.47, 1.0 - w)):
        for gj, _ in _per_j_terms(d, sigma, centre, j_max):
            ref += weight * gj
    out = psb_eval(PsbModel(i0=7.0, sigma=sigma, delta0=delta0, j_max=j_max,
                            doublet=(1.47, ratio)), d)
    # far-tail values can be subnormal, where a float holds fewer than 53 bits
    np.testing.assert_allclose(out, 7.0 * ref, rtol=1e-14, atol=np.finfo(float).tiny)


@pytest.mark.parametrize("doublet", [None, (1.47, 30.0 / 70.0)])
def test_psb_values_are_i0_times_the_i0_column(doublet):
    # values and Jacobian come from one pair of sums per line
    model = _psb_model(10, doublet)
    d = np.linspace(0.1, 70.0, 1500)
    for p in ([1.0, 6.0, 35.0], [163.7, 2.3, 12.9], [2.9e3, 11.5, 58.0]):
        values, J = model(np.array(p), d)
        assert np.array_equal(values, p[0] * J[:, 0])


def test_psb_jacobian_at_zero_i0():
    # fit-psb evaluates the series at max(i0, 0), so a central difference
    # at the bound i0 = 0 sees only its upper half and returns half the
    # slope; the analytic i0 column is the unit-i0 series there too
    model = _psb_model(10, (1.47, 30.0 / 70.0))
    d = np.linspace(0.1, 70.0, 1500)
    unit = model(np.array([1.0, 6.0, 35.0]), d)[0]
    J = model(np.array([0.0, 6.0, 35.0]), d)[1]
    np.testing.assert_allclose(J[:, 0], unit, rtol=1e-12, atol=0.0)
    assert not J[:, 1:].any()
    fd = finite_diff_jacobian(lambda p, x: model(p, x)[0], np.array([0.0, 6.0, 35.0]), d)
    np.testing.assert_allclose(fd[:, 0], 0.5 * unit, rtol=1e-6)


def test_psb_validation():
    with pytest.raises(ValidationError):
        PsbModel(i0=-1.0, sigma=1.0, delta0=10.0)
    with pytest.raises(ValidationError):
        PsbModel(i0=1.0, sigma=0.0, delta0=10.0)
    with pytest.raises(ValidationError):
        PsbModel(i0=1.0, sigma=1.0, delta0=10.0, doublet=(1.47, 1.5))
    with pytest.raises(ValidationError, match="j_max must be >= 1"):
        PsbModel(i0=1.0, sigma=1.0, delta0=10.0, j_max=0)


def test_phonon_axis_preserves_area():
    sp = spectrum_with_lines([("alpha3", 1280.0, 0.5, 700.0)],
                             wl=(1180.0, 1380.0), step=0.1)
    delta, density = to_phonon_axis(sp, E3)
    nm_area = np.trapezoid(sp.intensities, sp.wavelengths)
    mev_area = np.trapezoid(density, delta)
    assert mev_area == pytest.approx(nm_area, rel=1e-4)


def _one_phonon_spectrum(scale, noise):
    """alpha ZPLs and only the one-phonon Gaussian, every area times scale"""
    truth = {"psb": [{"i0": 90.0 * scale, "sigma": 6.0, "delta0": 35.0, "j_max": 1,
                      "e_ref_nm": 1280.0}],
             "zpl": [("alpha3", 1280.0, 0.3, 700.0 * scale),
                     ("alpha2", C2, 0.3, 300.0 * scale)]}
    return generate(GeneratorSpec(seed=2, kind="spectrum", truth=truth, noise={"kind": noise},
                                  sampling={"wl_start": 1256.0, "wl_end": 1400.0,
                                            "step_nm": 0.2}))


def test_fit_psb_flags_oversubtraction():
    # the full ten-term series fitted to one-phonon data overshoots at
    # higher phonon energies. At scale 1 it overshoots by less than one
    # count per bin, within Poisson noise, so the fit stands; at 1000x the
    # counts the overshoot lies beyond 3 sd in about a third of the bins
    lines = [("alpha3", 1280.0, 1.5), ("alpha2", C2, 1.5)]
    sp = _one_phonon_spectrum(1.0, "none")
    fit_psb(sp, find_zpls(sp, lines))
    for noise in ("none", "poisson"):
        sp = _one_phonon_spectrum(1000.0, noise)
        zpls = find_zpls(sp, lines)
        with pytest.raises(FitError, match="beyond 3 Poisson sd"):
            fit_psb(sp, zpls)


def test_fit_psb_alpha_model_is_the_fitted_series():
    truth = {"zpl": [("alpha3", 1280.0, 0.3, 700.0), ("alpha2", C2, 0.3, 300.0),
                     ("beta", CB, 0.3, 400.0)],
             "psb": [{"i0": 90.0, "sigma": 6.0, "delta0": 35.0, "j_max": 10,
                      "e_ref_nm": 1280.0, "doublet": [1.47, 300.0 / 700.0]},
                     {"i0": 230.0, "sigma": 6.0, "delta0": 50.0, "j_max": 3,
                      "e_ref_nm": CB}]}
    sp = generate(GeneratorSpec(seed=0, kind="spectrum", truth=truth, noise={"kind": "poisson"},
                                sampling={"wl_start": 1255.0, "wl_end": 1470.0,
                                          "step_nm": 0.2}))
    zpls = find_zpls(sp, [("alpha3", 1280.0, 3.0), ("alpha2", C2, 3.0), ("beta", CB, 4.0)])
    fit = fit_psb(sp, zpls)
    # the fit's model and the value-only psb_eval give the same floats
    m = fit.model
    series = _psb_model(m.j_max, m.doublet)(np.array([m.i0, m.sigma, m.delta0]), fit.delta)[0]
    assert np.array_equal(fit.alpha_model, series)


# ---------------------------------------------------------------------------
# Huang-Rhys lineshape


def default_hr_grid(model, step_mev, n_max):
    """Energy grid (eV) in steps of step_mev from n_max times the largest
    mode energy below the ZPL up to the ZPL."""
    n = int(math.ceil(n_max * max(hw for _, hw in model.modes) / step_mev)) + 1
    return model.zpl_energy - 1e-3 * step_mev * np.arange(n)[::-1]


def test_hr_zero_coupling_is_pure_zpl():
    model = HRModel(modes=(), zpl_energy=0.97)
    grid = np.linspace(0.90, 0.97, 200)
    shape = hr_lineshape(model, grid)
    assert shape.sum() == pytest.approx(1.0)
    assert shape.max() == pytest.approx(1.0)
    assert math.exp(-model.s_total) == 1.0


def test_hr_single_mode_poisson_weights():
    S, hw = 0.66, 30.0
    model = HRModel(modes=((S, hw),), zpl_energy=0.97)
    grid = default_hr_grid(model, step_mev=0.5, n_max=30)
    shape = hr_lineshape(model, grid)
    assert shape.sum() == pytest.approx(1.0)
    i_zpl = int(np.argmin(np.abs(grid - 0.97)))
    off = int(round(hw / 0.5))
    for n in range(4):
        w = math.exp(-S) * S**n / math.factorial(n)
        assert shape[i_zpl - n * off] == pytest.approx(w, rel=1e-9)


def test_hr_multi_mode_compound_poisson_moments():
    # phonon offsets in bins: 40, 70 and 120 = 3 x 40; the grid holds all
    # but ~1e-30 of the mass, so the shape is the compound-Poisson law
    modes = ((0.30, 20.0), (0.25, 35.0), (0.11, 60.0))
    model = HRModel(modes=modes, zpl_energy=0.97)
    grid = default_hr_grid(model, step_mev=0.5, n_max=30)
    shape = hr_lineshape(model, grid)
    i_zpl = int(np.argmin(np.abs(grid - 0.97)))
    k = i_zpl - np.arange(grid.size)  # bins below the ZPL
    offs = [int(round(hw / 0.5)) for _, hw in modes]
    mean = sum(s * off for (s, _), off in zip(modes, offs))
    var = sum(s * off**2 for (s, _), off in zip(modes, offs))
    assert np.sum(shape[k < 0]) == 0.0
    assert np.sum(k * shape) == pytest.approx(mean, rel=1e-12)
    assert np.sum((k - mean) ** 2 * shape) == pytest.approx(var, rel=1e-12)
    # one phonon of a mode whose offset no other phonon combination reaches
    S = model.s_total
    for s, off in ((0.30, 40), (0.25, 70)):
        assert shape[i_zpl - off] == pytest.approx(s * math.exp(-S), rel=1e-12)
    # offset 120 is reached by one 60 meV phonon or three 20 meV phonons
    w120 = (0.11 + 0.30**3 / 6.0) * math.exp(-S)
    assert shape[i_zpl - 120] == pytest.approx(w120, rel=1e-12)


def test_hr_grid_ending_below_the_zpl_is_the_full_shape_cut_and_renormalized():
    # the cut grid ends 8.6 meV, 34.4 bins, below the ZPL; the full grid
    # goes on to the ZPL's bin
    model = HRModel(modes=((0.30, 20.0), (0.25, 35.0)), zpl_energy=0.9686)
    full = model.zpl_energy - 1e-4 - 0.25e-3 * np.arange(2000)[::-1]
    cut = full[:-34]
    assert (model.zpl_energy - cut[-1]) * 1e3 == pytest.approx(8.6)
    whole = hr_lineshape(model, full)[: cut.size]
    assert np.allclose(hr_lineshape(model, cut), whole / whole.sum(), rtol=0, atol=1e-15)


def test_hr_grid_without_emission_is_refused():
    model = HRModel(modes=((0.30, 20.0),), zpl_energy=0.9686)
    grid = np.linspace(0.97, 1.0, 200)
    with pytest.raises(ValidationError, match="the ZPL lies below the grid"):
        hr_lineshape(model, grid)
    with pytest.raises(ValidationError, match="too far above it"):
        hr_lineshape(HRModel(modes=model.modes, zpl_energy=1e6), grid)
    # no phonons: all the mass is in the ZPL bin, above the grid
    with pytest.raises(ValidationError, match="no emission falls on the grid"):
        hr_lineshape(HRModel(modes=(), zpl_energy=1.01), grid)


def test_hr_validation():
    with pytest.raises(ValidationError):
        HRModel(modes=((-0.1, 30.0),), zpl_energy=0.97)
    with pytest.raises(ValidationError):
        HRModel(modes=((0.1, 0.0),), zpl_energy=0.97)
    model = HRModel(modes=((0.5, 30.0),), zpl_energy=0.97)
    with pytest.raises(ValidationError):
        hr_lineshape(model, np.array([0.97]))
    with pytest.raises(ValidationError):
        hr_lineshape(model, np.array([0.97, 0.96]))


# ---------------------------------------------------------------------------
# DW partition


def _zset(a3, a2, ab):
    lines = {"alpha3": ZplLine("alpha3", 1280.0, 0.0, 0.3, False, a3),
             "alpha2": ZplLine("alpha2", C2, 0.0, 0.3, False, a2),
             "beta": ZplLine("beta", CB, 0.0, 0.3, False, ab)}
    return ZplSet(lines=lines)


def test_partition_bound_ordering():
    wl = np.linspace(1256.0, 1456.0, 300)
    sp = Spectrum(wavelengths=wl, intensities=np.full(wl.size, 2.0))
    part = partition_dw(sp, _zset(7.0, 3.0, 4.0), 60.0, 0.0)
    lo, hi = part.dw_alpha_bounds
    assert 0.0 <= lo <= hi <= 1.0
    assert 0.0 <= part.dw_mean <= 1.0


def test_partition_refined_fractions_stay_inside_their_bounds():
    # line areas >= 0 keep both sideband regions >= 0, and the sideband
    # fit's area is clamped between them, so the refined alpha DW lies
    # inside its bounds and the refined beta DW at or above its low bound
    rng = np.random.default_rng(11)
    wl = np.linspace(1256.0, 1456.0, 240)
    for _ in range(2000):
        sp = Spectrum(wavelengths=wl, intensities=rng.uniform(0.0, 5.0, wl.size))
        areas = rng.uniform(0.0, 40.0, 3) * rng.integers(0, 2, 3)  # some areas 0
        psb_area = PsbModel(i0=rng.uniform(0.0, 100.0), sigma=6.0, delta0=35.0).area
        part = partition_dw(sp, _zset(*areas), rng.uniform(20.0, 120.0), psb_area,
                            area_correction=rng.uniform(1.0, 1.5))
        lo, hi = part.dw_alpha_bounds
        assert 0.0 <= lo <= part.dw_alpha_refined <= hi <= 1.0
        assert part.dw_beta_refined >= part.dw_beta_low - 1e-12


def test_psb_model_refuses_a_non_finite_intensity():
    # a NaN sideband area once gave partition_dw a refined alpha DW of 0.0,
    # outside its bounds
    for bad in (math.nan, math.inf, -1.0):
        with pytest.raises(ValidationError, match="i0 must be finite and >= 0"):
            PsbModel(i0=bad, sigma=6.0, delta0=35.0)


def test_partition_area_correction():
    wl = np.linspace(1256.0, 1456.0, 300)
    sp = Spectrum(wavelengths=wl, intensities=np.full(wl.size, 2.0))
    z = _zset(7.0, 3.0, 4.0)
    base = partition_dw(sp, z, 60.0, 0.0)
    corr = partition_dw(sp, z, 60.0, 0.0, area_correction=1.2)
    assert corr.dw_mean < base.dw_mean  # more assumed sideband, smaller DW
    for bad in (0.9, math.nan, math.inf):
        with pytest.raises(ValidationError):
            partition_dw(sp, z, 60.0, 0.0, area_correction=bad)


def test_partition_refuses_a_non_finite_energy():
    # a NaN partition energy once selected no bins and gave alpha-high DW 1.0
    wl = np.linspace(1256.0, 1456.0, 300)
    sp = Spectrum(wavelengths=wl, intensities=np.full(wl.size, 2.0))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError):
            partition_dw(sp, _zset(7.0, 3.0, 4.0), bad, 0.0)


def test_partition_requires_reference_line():
    wl = np.linspace(1256.0, 1456.0, 300)
    sp = Spectrum(wavelengths=wl, intensities=np.full(wl.size, 2.0))
    with pytest.raises(ValidationError):
        partition_dw(sp, ZplSet(lines={}), 60.0, 0.0)


def test_partition_refuses_a_bad_sideband_area():
    wl = np.linspace(1256.0, 1456.0, 300)
    sp = Spectrum(wavelengths=wl, intensities=np.full(wl.size, 2.0))
    for bad in (math.nan, math.inf, -1.0):
        with pytest.raises(ValidationError, match="sideband area must be finite and >= 0"):
            partition_dw(sp, _zset(7.0, 3.0, 4.0), 60.0, bad)


def test_partition_refuses_a_spectrum_of_no_counts():
    wl = np.linspace(1256.0, 1456.0, 300)
    sp = Spectrum(wavelengths=wl, intensities=np.zeros(wl.size))
    with pytest.raises(ValidationError, match="zero total spectrum area"):
        partition_dw(sp, _zset(7.0, 3.0, 4.0), 60.0, 0.0)


def test_fit_psb_refuses_too_few_sideband_samples():
    # the spectrum ends 5 nm past alpha3: fewer than 10 bins of sideband
    wl = np.linspace(1200.0, 1285.0, 100)
    sp = Spectrum(wavelengths=wl, intensities=np.full(wl.size, 2.0))
    with pytest.raises(ValidationError, match="too few sideband samples"):
        fit_psb(sp, _zset(7.0, 3.0, 4.0))
