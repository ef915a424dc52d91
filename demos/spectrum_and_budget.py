"""Walk-through: from an emission spectrum to the efficiency budget.

Builds a composite low-temperature spectrum (doublet + second ZPL + two
phonon sidebands), identifies the lines, fits the sideband series,
partitions the Debye-Waller factor and feeds everything into the
radiative budget and a cavity-enhancement estimate.
"""

import numpy as np

from sicpl.photophysics import CavityParams, budget, cooperativity, finesse_sweep
from sicpl.spectrum import (
    EV_NM_MEV,
    find_zpls,
    fit_psb,
    partition_dw,
)
from sicpl.synth import GeneratorSpec, generate

# line positions: doublet split by 1.47 meV, second emitter 40 meV below
E3 = EV_NM_MEV / 1280.0
C_A2 = EV_NM_MEV / (E3 + 1.47)
C_B = EV_NM_MEV / (E3 - 40.0)

truth = {
    "zpl": [("alpha3", 1280.0, 0.30, 700.0),
            ("alpha2", C_A2, 0.30, 300.0),
            ("beta", C_B, 0.30, 400.0)],
    "psb": [{"i0": 90.0, "sigma": 6.0, "delta0": 35.0, "j_max": 10,
             "doublet": (1.47, 300.0 / 700.0), "e_ref_nm": 1280.0},
            {"i0": 230.0, "sigma": 6.0, "delta0": 50.0, "j_max": 3,
             "e_ref_nm": C_B}],
    "temperature": 4.0,
}
sp = generate(GeneratorSpec(
    seed=5, kind="spectrum", truth=truth,
    sampling={"wl_start": 1255.0, "wl_end": 1470.0, "step_nm": 0.2},
    noise={"kind": "poisson"},
))

zpls = find_zpls(sp, [("alpha3", 1280.0, 3.0), ("alpha2", C_A2, 3.0),
                      ("beta", C_B, 4.0)])
print("identified lines:")
for label, line in sorted(zpls.lines.items()):
    bound = "<=" if line.fwhm_is_upper_bound else "  "
    print(f"  {label:7s} {line.center:9.3f} nm  FWHM {bound}{line.fwhm:.3f} nm"
          f"  area {line.area:7.1f}")
print(f"doublet splitting: {zpls.doublet_splitting_mev:.3f} meV")

psb = fit_psb(sp, zpls)
print(f"\nsideband series: I0 = {psb.model.i0:.1f}, sigma = {psb.model.sigma:.2f} meV,"
      f" Delta0 = {psb.model.delta0:.2f} meV  (area {psb.model.area:.0f})")

part = partition_dw(sp, zpls, 60.0, psb.model.area)
lo, hi = part.dw_alpha_bounds
print(f"DW mean = {part.dw_mean:.3f}")
print(f"DW alpha in [{lo:.3f}, {hi:.3f}], refined {part.dw_alpha_refined:.3f}")
print(f"DW beta  >= {part.dw_beta_low:.3f}, refined {part.dw_beta_refined:.3f}")

# ---------------------------------------------------------------------
# efficiency budget for both sites, using the published lifetimes

print("\nradiative budget:")
for row in (budget(704.0, 163.0, 0.39, 0.66, site_label="k"),
            budget(277.0, 43.0, 0.22, 0.79, site_label="h")):
    print(f"  site {row.site_label}: tau_NR = {row.tau_nr:6.1f} ns,"
          f" eta_rad = {100 * row.eta_rad:5.1f} %, eta_tot = {100 * row.eta_tot:4.1f} %")

# ---------------------------------------------------------------------
# what a fiber microcavity would buy

params = CavityParams(wavelength_nm=1280.0, finesse=3.4e4, roc_mm=1.3,
                      l_vac_um=5.0, l_sic_um=5.0, eta_tot=0.089)
est = cooperativity(params, extraction_fraction=0.61)
print(f"\ncavity: w_C = {est.w_c_um:.2f} um, C = {est.cooperativity:.2f},"
      f" eta_cav = {100 * est.eta_cav:.1f} %, eta_out = {100 * est.eta_out:.1f} %")

print("\nfinesse sweep:")
for F, C, eta in finesse_sweep(params, 1e2, 1e5, 7):
    print(f"  F = {F:9.0f}   C = {C:7.3f}   eta_cav = {100 * eta:5.1f} %")
