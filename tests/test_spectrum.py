"""ZPL fitting, sideband series, lineshape and DW partitioning."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sicpl.datatypes import Spectrum
from sicpl.errors import (
    DomainError,
    InsufficientDataError,
    LineNotFoundError,
    ModelInconsistencyError,
    ValidationError,
)
from sicpl.spectrum import (
    EV_NM_MEV,
    HRModel,
    PsbModel,
    ZplLine,
    ZplSet,
    default_hr_grid,
    doublet_ratio_vs_T,
    find_zpls,
    fit_psb,
    hr_lineshape,
    partition_dw,
    polarization_fit,
    power_law_check,
    psb_eval,
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


def test_resolution_limited_fwhm_is_upper_bound():
    # true width below two pixels at 0.2 nm/pixel sampling
    sp = spectrum_with_lines([("alpha3", 1280.0, 0.3, 700.0)], step=0.2,
                             wl=(1275.0, 1285.0))
    zpls = find_zpls(sp, [("alpha3", 1280.0, 3.0)])
    line = zpls["alpha3"]
    assert line.fwhm_is_upper_bound
    assert line.fwhm == pytest.approx(0.4)  # two pixels


def test_line_not_found():
    wl = np.linspace(1270.0, 1290.0, 200)
    flat = Spectrum(wavelengths=wl, intensities=np.full(wl.size, 5.0),
                    temperature=4.0)
    with pytest.raises(LineNotFoundError):
        find_zpls(flat, [("alpha3", 1280.0, 2.0)])
    with pytest.raises(ValidationError):
        find_zpls(flat, [("alpha3", 1269.0, 4.0)])  # window leaves the data


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


def test_psb_validation():
    with pytest.raises(ValidationError):
        PsbModel(i0=-1.0, sigma=1.0, delta0=10.0)
    with pytest.raises(ValidationError):
        PsbModel(i0=1.0, sigma=0.0, delta0=10.0)
    with pytest.raises(ValidationError):
        PsbModel(i0=1.0, sigma=1.0, delta0=10.0, doublet=(1.47, 1.5))


def test_phonon_axis_preserves_area():
    sp = spectrum_with_lines([("alpha3", 1280.0, 0.5, 700.0)],
                             wl=(1180.0, 1380.0), step=0.1)
    delta, density = to_phonon_axis(sp, E3)
    nm_area = np.trapezoid(sp.intensities, sp.wavelengths)
    mev_area = np.trapezoid(density, delta)
    assert mev_area == pytest.approx(nm_area, rel=1e-4)


def test_fit_psb_flags_oversubtraction():
    # data holding only the one-phonon Gaussian: the full ten-term series
    # fitted to it badly overshoots at higher phonon energies, and the
    # negative residual must trip the consistency check
    truth = {"psb": [{"i0": 90.0, "sigma": 6.0, "delta0": 35.0, "j_max": 1,
                      "e_ref_nm": 1280.0}],
             "zpl": [("alpha3", 1280.0, 0.3, 700.0),
                     ("alpha2", C2, 0.3, 300.0)]}
    sp = generate(GeneratorSpec(seed=2, kind="spectrum", truth=truth,
                                sampling={"wl_start": 1256.0,
                                          "wl_end": 1400.0,
                                          "step_nm": 0.2}))
    zpls = find_zpls(sp, [("alpha3", 1280.0, 1.5), ("alpha2", C2, 1.5)])
    with pytest.raises(ModelInconsistencyError):
        fit_psb(sp, zpls)


# ---------------------------------------------------------------------------
# Huang-Rhys lineshape


def test_hr_zero_coupling_is_pure_zpl():
    model = HRModel(modes=(), zpl_energy=0.97)
    grid = np.linspace(0.90, 0.97, 200)
    shape = hr_lineshape(model, grid)
    assert shape.sum() == pytest.approx(1.0)
    assert shape.max() == pytest.approx(1.0)
    assert model.debye_waller == 1.0


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
    lines = {"alpha3": ZplLine("alpha3", 1280.0, 0.0, 0.3, False, a3, 1.0, 0.0),
             "alpha2": ZplLine("alpha2", C2, 0.0, 0.3, False, a2, 1.0, 0.0),
             "beta": ZplLine("beta", CB, 0.0, 0.3, False, ab, 1.0, 0.0)}
    return ZplSet(lines=lines)


def test_partition_bound_ordering():
    wl = np.linspace(1256.0, 1456.0, 300)
    sp = Spectrum(wavelengths=wl, intensities=np.full(wl.size, 2.0),
                  temperature=4.0)
    part = partition_dw(sp, _zset(7.0, 3.0, 4.0), 60.0)
    lo, hi = part.dw_alpha_bounds
    assert 0.0 <= lo <= hi <= 1.0
    assert 0.0 <= part.dw_mean <= 1.0


def test_partition_area_correction():
    wl = np.linspace(1256.0, 1456.0, 300)
    sp = Spectrum(wavelengths=wl, intensities=np.full(wl.size, 2.0),
                  temperature=4.0)
    z = _zset(7.0, 3.0, 4.0)
    base = partition_dw(sp, z, 60.0)
    corr = partition_dw(sp, z, 60.0, area_correction=1.2)
    assert corr.dw_mean < base.dw_mean  # more assumed sideband, smaller DW
    with pytest.raises(ValidationError):
        partition_dw(sp, z, 60.0, area_correction=0.9)


def test_partition_requires_reference_line():
    wl = np.linspace(1256.0, 1456.0, 300)
    sp = Spectrum(wavelengths=wl, intensities=np.full(wl.size, 2.0),
                  temperature=4.0)
    with pytest.raises(ValidationError):
        partition_dw(sp, ZplSet(lines={}), 60.0)


# ---------------------------------------------------------------------------
# thermometry, power and polarization checks


def test_power_law_linear():
    pts = generate(GeneratorSpec(
        seed=1, kind="power_series", truth={"c": 3.0, "k": 1.0},
        sampling={"powers": [0.1, 0.3, 1.0, 3.0, 10.0]},
        noise={"kind": "gaussian", "sigma_frac": 0.01}))
    k, s3 = power_law_check(pts)
    assert abs(k - 1.0) < max(s3, 0.05)
    with pytest.raises(DomainError):
        power_law_check([(1.0, 1.0), (2.0, -1.0), (3.0, 2.0)])


def test_polarization_fit_and_flat_flag():
    pts = generate(GeneratorSpec(
        seed=1, kind="polarization_series",
        truth={"a": 10.0, "b": 40.0, "theta0": 30.0},
        sampling={"angles": list(range(0, 180, 15))}))
    fit = polarization_fit(pts)
    assert fit.visibility == pytest.approx(40.0 / 60.0, rel=1e-6)
    assert fit.theta0 == pytest.approx(30.0, abs=1e-6)
    flat = polarization_fit([(a, 5.0) for a in range(0, 181, 20)])
    assert flat.flagged and flat.visibility == 0.0 and flat.theta0 is None


def test_thermometry_needs_cold_points():
    sp = spectrum_with_lines([("alpha3", 1280.0, 0.30, 700.0),
                              ("alpha2", C2, 0.30, 300.0)])
    with pytest.raises(InsufficientDataError):
        doublet_ratio_vs_T([sp], (("alpha3", 1280.0, 1.5), ("alpha2", C2, 1.5)))
