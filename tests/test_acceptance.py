"""End-to-end acceptance suite.

Each test exercises one headline requirement on synthetic data built from
the published parameter values, and prints a single PASS/FAIL line (run
with `pytest -s` to see them live).
"""

import math
import time

import numpy as np

from sicpl.constants import EV_NM
from sicpl.datatypes import Spectrum
from sicpl.decay import fit_decay, fit_thermal
from sicpl.nls import finite_diff_jacobian
from sicpl.photophysics import CavityParams, budget, cooperativity, fill_factor, finesse_sweep
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
)
from sicpl.synth import GeneratorSpec, generate
from test_spectrum import default_hr_grid

E3_MEV = EV_NM_MEV / 1280.0
C_ALPHA2 = EV_NM_MEV / (E3_MEV + 1.47)
C_BETA = EV_NM_MEV / (E3_MEV - 40.0)


def _verdict(n, label, ok, detail=""):
    print(f"ACCEPTANCE {n} [{label}]: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {n} ({label}) failed: {detail}"


def test_1_decay_round_trip_fast_emitter():
    t0 = time.time()
    spec = GeneratorSpec(
        seed=42, kind="decay",
        truth={"components": [(1e4, 164.2)], "background": 20.0, "pulse_time": 100.0},
        sampling={"t_start": 0.0, "t_end": 1800.0, "bin_ns": 1.0},
        noise={"kind": "poisson"},
    )
    res = fit_decay(generate(spec))
    elapsed = time.time() - t0
    tau, s3 = res.components[0][1], res.fit.sigma3[1]
    ok = (abs(tau - 164.2) <= s3 and abs(tau - 164.2) <= 1.5
          and res.model_kind == "single" and elapsed < 1.0)
    _verdict(1, "single-exp round trip",
             ok, f"tau={tau:.2f}+/-{s3:.2f} ns in {elapsed:.2f} s")


def test_2_decay_round_trip_two_channels():
    t0 = time.time()
    spec = GeneratorSpec(
        seed=7, kind="decay",
        truth={"components": [(2e4, 158.5), (2e4, 43.3)],
               "background": 20.0, "pulse_time": 1000.0},
        sampling={"t_start": 0.0, "t_end": 3000.0, "bin_ns": 1.0},
        noise={"kind": "poisson"},
    )
    res = fit_decay(generate(spec), kind="auto")
    elapsed = time.time() - t0
    taus = [c[1] for c in res.components]
    ok = (res.model_kind == "double"
          and abs(taus[0] - 158.5) <= res.fit.sigma3[1]
          and abs(taus[1] - 43.3) <= res.fit.sigma3[3]
          and elapsed < 1.0)
    _verdict(2, "double-exp round trip",
             ok, f"taus={taus[0]:.2f}/{taus[1]:.2f} ns in {elapsed:.2f} s")


def test_3_thermal_activation_recovery():
    # per case, 150 seeded draws: at least 0.88 of them covered by their own
    # 3-sigma margin, and the median E_p within half a median sigma of the
    # truth; a correct fit fails either with probability < 0.1% per case
    cases = [
        ((163.0, 83.0, 28.0), [4, 25, 50, 75, 100, 125, 150, 175]),
        ((43.0, 36.0, 8.0), [4, 10, 20, 30, 40, 60, 80, 100]),
    ]
    details = []
    ok = True
    for (tau, tau_p, e_p), temps in cases:
        fits = [fit_thermal(generate(GeneratorSpec(
            seed=seed, kind="thermal_series",
            truth={"tau": tau, "tau_p": tau_p, "e_p": e_p},
            sampling={"temperatures": temps},
            noise={"kind": "gaussian", "sigma_frac": 0.02},
        ))) for seed in range(1000, 1150)]
        fitted = np.array([m.e_p for m in fits])
        margin = np.array([m.fit.sigma3[2] for m in fits])
        covered = np.mean(np.abs(fitted - e_p) <= margin)
        ok &= (covered >= 0.88
               and abs(np.median(fitted) - e_p) <= 0.5 * np.median(margin) / 3.0)
        details.append(f"median E_p={np.median(fitted):.2f} (truth {e_p}), "
                       f"3-sigma coverage {covered:.3f}")
    _verdict(3, "thermal activation energy", ok, "; ".join(details))


def test_4_huang_rhys_dw_identity():
    ok = (round(math.exp(-0.66), 2) == 0.52 and round(math.exp(-0.79), 2) == 0.45)
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(20):
        n_modes = rng.integers(1, 11)
        modes = [(float(rng.uniform(0.01, 0.3)), float(rng.uniform(5.0, 100.0)))
                 for _ in range(n_modes)]
        model = HRModel(modes=tuple(modes), zpl_energy=0.97)
        grid = default_hr_grid(model, step_mev=0.5, n_max=40)
        shape = hr_lineshape(model, grid)
        i_zpl = int(np.argmin(np.abs(grid - model.zpl_energy)))
        worst = max(worst, abs(shape[i_zpl] - math.exp(-model.s_total)))
    ok &= worst < 1e-8
    _verdict(4, "DW = exp(-S) identity", ok, f"max ZPL-weight error {worst:.2e}")


def test_5_efficiency_budget():
    row_k = budget(704.0, 163.0, 0.39, 0.66, site_label="k")
    row_h = budget(277.0, 43.0, 0.22, 0.79, site_label="h", tau_nr_reference=47.0)
    ok = (abs(row_k.tau_nr - 212.0) <= 1.0
          and abs(100 * row_k.eta_rad - 23.0) <= 0.5
          and abs(100 * row_k.eta_tot - 9.0) <= 0.2
          and abs(100 * row_h.eta_rad - 15.5) <= 0.5
          and abs(100 * row_h.eta_tot - 3.4) <= 0.2
          and any("47.0" in n for n in row_h.notes))
    _verdict(5, "radiative-efficiency budget", ok,
             f"tau_NR(k)={row_k.tau_nr:.1f} ns, "
             f"eta_tot={100 * row_k.eta_tot:.2f}/{100 * row_h.eta_tot:.2f} %")


def test_6_cavity_enhancement():
    params = CavityParams(wavelength_nm=1280.0, finesse=3.4e4, roc_mm=1.3,
                          l_vac_um=5.0, l_sic_um=5.0, eta_tot=0.089)
    est = cooperativity(params)
    ok = abs(100 * est.eta_cav - 82.0) <= 5.0
    sweep = finesse_sweep(params, 1e2, 1e5, 25)
    etas = [row[2] for row in sweep]
    ok &= all(b > a for a, b in zip(etas, etas[1:]))
    fl = fill_factor(CavityParams(wavelength_nm=1280.0, finesse=1.0, roc_mm=1.3,
                                  l_vac_um=5.0, l_sic_um=5.0, eta_tot=0.5,
                                  n_sic=2.6))
    ok &= abs(fl - 0.464) <= 1e-3
    _verdict(6, "cavity cooperativity", ok,
             f"eta_cav={100 * est.eta_cav:.1f} %, f_L={fl:.4f}, sweep monotone")


ZPL_LINES = [("alpha3", 1280.0, 3.0), ("alpha2", C_ALPHA2, 3.0), ("beta", C_BETA, 4.0)]


def _composite_spectrum(seed, noise, scale=1.0, step_nm=0.2):
    """The three ZPLs, the alpha doublet series and the beta series, every
    area times scale."""
    ratio = 300.0 / 700.0
    truth = {
        "zpl": [("alpha3", 1280.0, 0.30, 700.0 * scale),
                ("alpha2", C_ALPHA2, 0.30, 300.0 * scale),
                ("beta", C_BETA, 0.30, 400.0 * scale)],
        "psb": [{"i0": 90.0 * scale, "sigma": 6.0, "delta0": 35.0, "j_max": 10,
                 "doublet": (1.47, ratio), "e_ref_nm": 1280.0},
                {"i0": 230.0 * scale, "sigma": 6.0, "delta0": 50.0, "j_max": 3,
                 "e_ref_nm": C_BETA}],
        "temperature": 4.0,
    }
    return generate(GeneratorSpec(
        seed=seed, kind="spectrum", truth=truth,
        sampling={"wl_start": 1255.0, "wl_end": 1470.0, "step_nm": step_nm},
        noise=noise,
    ))


def test_7_psb_dw_partitioning():
    spectrum = _composite_spectrum(5, {"kind": "none"})
    zpls = find_zpls(spectrum, ZPL_LINES)
    psb = fit_psb(spectrum, zpls)
    part = partition_dw(spectrum, zpls, 60.0, psb.model.area)
    dw_true = 1400.0 / (1400.0 + 900.0 + 690.0)
    ok = abs(part.dw_mean - dw_true) <= 0.02

    # bound-ordering invariant on randomized spectra (partitioning is pure
    # arithmetic over a density, so the sweep is fast)
    rng = np.random.default_rng(7)
    for _ in range(1000):
        wl = np.linspace(1256.0, 1456.0, 240)
        dens = rng.uniform(0.5, 5.0, wl.size)
        a3 = float(rng.uniform(0.1, 20.0))
        a2 = float(rng.uniform(0.1, a3))
        ab = float(rng.uniform(0.1, 20.0))
        lines = {
            "alpha3": ZplLine("alpha3", 1280.0, 0.0, 0.3, False, a3),
            "alpha2": ZplLine("alpha2", C_ALPHA2, 0.0, 0.3, False, a2),
            "beta": ZplLine("beta", C_BETA, 0.0, 0.3, False, ab),
        }
        zset = ZplSet(lines=lines)
        p = partition_dw(Spectrum(wavelengths=wl, intensities=dens), zset,
                         float(rng.uniform(45.0, 80.0)), 0.0)
        lo, hi = p.dw_alpha_bounds
        assert 0.0 <= lo <= hi <= 1.0 + 1e-9
        assert 0.0 <= p.dw_mean <= 1.0 + 1e-9
        assert 0.0 <= p.dw_beta_low <= 1.0 + 1e-9

    spot = psb_eval(PsbModel(i0=1.0, sigma=1.0, delta0=0.0, j_max=10),
                    np.array([0.0]))[0]
    target = sum(1.0 / math.sqrt(j) for j in range(1, 11)) / math.sqrt(math.pi)
    ok &= abs(spot * math.sqrt(math.pi) - 5.0211) <= 1e-3
    ok &= abs(spot - target) < 1e-12
    _verdict(7, "sideband/DW partitioning", ok,
             f"dw_mean={part.dw_mean:.4f} (constructed {dw_true:.4f}), "
             f"series spot sum={spot * math.sqrt(math.pi):.4f}")


def test_8_engine_properties():
    from sicpl.decay import R_MAX, _exp_model, _thermal_model, thermal_lifetime
    from sicpl.nls import FitProblem, minimize
    from sicpl.spectrum import (
        PSB_J_MAX,
        _gaussian_model,
        _psb_model,
    )

    rng = np.random.default_rng(8)
    worst = 0.0

    def check(model, draw, xs, h=1e-6):
        # the Jacobian model(p, x)[1] against the central difference of the
        # values model(p, x)[0]; h must stay well below the narrowest
        # feature scale relative to the parameter magnitude, else the FD
        # truncation error dominates
        nonlocal worst
        for _ in range(100):
            p = draw(rng)
            Ja = model(p, xs)[1]
            Jf = finite_diff_jacobian(lambda q, x: model(q, x)[0], p, xs, h)
            scale = max(np.max(np.abs(Ja)), 1e-30)
            worst = max(worst, float(np.max(np.abs(Ja - Jf)) / scale))

    t = np.linspace(0.5, 800.0, 60)
    check(_exp_model, lambda r: np.array([r.uniform(1e2, 1e5), r.uniform(20, 400)]), t)
    # the double in (A1, tau1, A2, r), tau2 = r tau1: r over its whole
    # range up to R_MAX, where a collapsed fit ends, and A2 = 0 there
    check(_exp_model, lambda r: np.array([r.uniform(1e2, 1e5), r.uniform(100, 400),
                                          r.uniform(1e2, 1e5), r.uniform(0.02, R_MAX)]), t)
    edge = np.random.default_rng(80)  # keeps rng's draws for the checks below
    check(_exp_model, lambda _: np.array([edge.uniform(1e2, 1e5), edge.uniform(100, 400),
                                          edge.choice([0.0, edge.uniform(1e2, 1e5)]),
                                          R_MAX - edge.uniform(0.0, 1e-3)]), t)
    wl = np.linspace(1270.0, 1290.0, 60)
    check(_gaussian_model,
          lambda r: np.array([r.uniform(0, 10), r.uniform(10, 1e4),
                              r.uniform(1275, 1285), r.uniform(0.1, 2.0)]),
          wl, h=1e-7)

    temps = np.linspace(4.0, 200.0, 40)
    check(_thermal_model,
          lambda r: np.array([r.uniform(20, 400), r.uniform(5, 200),
                              r.uniform(2, 80)]), temps)

    # the fit-psb model: the doublet sideband series over the bench's range
    doublet = (1.47, 30.0 / 70.0)
    check(_psb_model(PSB_J_MAX, doublet),
          lambda r: np.array([r.uniform(1.0, 3e3), r.uniform(2.0, 12.0),
                              r.uniform(10.0, 60.0)]),
          np.linspace(0.1, 70.0, 1500))
    ok = worst <= 1e-5
    # the values a fit model returns are its value function's, bit for bit
    q = np.array([163.0, 83.0, 28.0])
    ok &= np.array_equal(_thermal_model(q, temps)[0], thermal_lifetime(temps, *q))

    # weight rescaling must not move the optimum
    y = _exp_model(np.array([5e3, 150.0]), t)[0] + rng.normal(0.0, 5.0, t.size)
    w = 1.0 / np.maximum(np.abs(y), 1.0)
    f_a = minimize(FitProblem(model=_exp_model, x=t, y=y, weights=w,
                              p0=np.array([4e3, 100.0])))
    f_b = minimize(FitProblem(model=_exp_model, x=t, y=y, weights=7.3 * w,
                              p0=np.array([4e3, 100.0])))
    rescale = float(np.max(np.abs(f_a.parameters - f_b.parameters)
                           / np.abs(f_a.parameters)))
    ok &= rescale <= 1e-8

    # noiseless generator -> fit -> truth closure for every fit model
    closures = []
    spec = GeneratorSpec(seed=1, kind="decay",
                         truth={"components": [(1e8, 164.2)],
                                "background": 50.0, "pulse_time": 100.0},
                         sampling={"t_start": 0.0, "t_end": 1800.0, "bin_ns": 1.0})
    r = fit_decay(generate(spec), kind="single")
    closures.append(abs(r.components[0][1] - 164.2) / 164.2)

    spec = GeneratorSpec(seed=1, kind="decay",
                         truth={"components": [(5e7, 200.0), (5e7, 40.0)],
                                "background": 50.0, "pulse_time": 100.0},
                         sampling={"t_start": 0.0, "t_end": 2000.0, "bin_ns": 1.0})
    r = fit_decay(generate(spec), kind="double")
    closures.append(abs(r.components[0][1] - 200.0) / 200.0)
    closures.append(abs(r.components[1][1] - 40.0) / 40.0)

    spec = GeneratorSpec(seed=1, kind="thermal_series",
                         truth={"tau": 163.0, "tau_p": 83.0, "e_p": 28.0},
                         sampling={"temperatures": [4, 25, 50, 75, 100, 125, 150, 175]})
    tm = fit_thermal(generate(spec))
    closures += [abs(tm.tau - 163.0) / 163.0, abs(tm.e_p - 28.0) / 28.0]

    spec = GeneratorSpec(seed=1, kind="spectrum",
                         truth={"zpl": [("alpha3", 1280.0, 0.30, 700.0),
                                        ("alpha2", C_ALPHA2, 0.30, 300.0)]},
                         sampling={"wl_start": 1270.0, "wl_end": 1290.0,
                                   "step_nm": 0.05})
    z = find_zpls(generate(spec),
                  [("alpha3", 1280.0, 1.5), ("alpha2", C_ALPHA2, 1.5)])
    closures += [abs(z["alpha3"].center - 1280.0) / 1280.0,
                 abs(z["alpha3"].area - 700.0) / 700.0]

    spec = GeneratorSpec(seed=1, kind="spectrum",
                         truth={"psb": [{"i0": 90.0, "sigma": 6.0, "delta0": 35.0,
                                         "j_max": 10, "doublet": (1.47, 0.4),
                                         "e_ref_nm": 1280.0}]},
                         sampling={"wl_start": 1256.0, "wl_end": 1400.0,
                                   "step_nm": 0.2})
    lines = {
        "alpha3": ZplLine("alpha3", 1280.0, 0.0, 0.3, False, 700.0),
        "alpha2": ZplLine("alpha2", C_ALPHA2, 0.0, 0.3, False, 280.0),
    }
    f = fit_psb(generate(spec), ZplSet(lines=lines))
    closures += [abs(f.model.i0 - 90.0) / 90.0, abs(f.model.sigma - 6.0) / 6.0]

    worst_closure = max(closures)
    ok &= worst_closure <= 1e-6
    _verdict(8, "engine properties", ok,
             f"jac err {worst:.2e}, rescale {rescale:.2e}, "
             f"closure {worst_closure:.2e}")


def test_10_psb_dw_poisson_round_trip():
    # one Poisson spectrum per count scale from 0.3x to 10x: fit_psb must
    # reject none of them, and the refined alpha DW must recover the truth
    dw_true = 1000.0 / (1000.0 + 90.0 * 10)
    dws = []
    for seed, scale in enumerate(np.geomspace(0.3, 10.0, 20)):
        spectrum = _composite_spectrum(seed, {"kind": "poisson"}, float(scale), step_nm=0.05)
        zpls = find_zpls(spectrum, ZPL_LINES)
        part = partition_dw(spectrum, zpls, 60.0, fit_psb(spectrum, zpls).model.area)
        dws.append(part.dw_alpha_refined)
    ok = max(abs(dw - dw_true) for dw in dws) <= 0.01
    _verdict(10, "sideband DW on Poisson spectra", ok,
             f"alpha DW refined {min(dws):.4f}-{max(dws):.4f} (constructed {dw_true:.4f})")
