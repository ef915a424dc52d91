"""Radiative-efficiency budgeting and Fabry-Perot cavity-enhancement
estimates for a single emitter.

The budget combines a calculated radiative lifetime with the measured
total lifetime and Debye-Waller factor into non-radiative lifetime and
efficiency figures; the cavity calculator evaluates the cooperativity
C = (2/pi) (sigma_E/sigma_C) eta_tot (f_L/n) F and eta_cav = 2C/(2C+1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .constants import MAX_GRID_POINTS, N_SIC_DEFAULT
from .errors import ValidationError


@dataclass
class PhotophysicsBudget:
    """Efficiency chain for one site: lifetimes in ns, efficiencies as fractions.

    tau_nr is None in the purely radiative limit (tau_tot_exp == tau_rad).
    """

    s_th: float
    dw_th: float
    dw_exp: float
    tau_rad: float
    tau_tot_exp: float
    tau_nr: float | None
    eta_rad: float
    eta_tot: float
    site_label: str = ""
    notes: list = field(default_factory=list)


def budget(tau_rad: float, tau_tot_exp: float, dw_exp: float, s_th: float,
           site_label: str = "", tau_nr_reference: float | None = None
           ) -> PhotophysicsBudget:
    """Derive tau_NR, eta_rad, eta_tot and the theoretical DW factor.

    tau_nr_reference, when given, is compared against the computed value
    and any disagreement beyond 2 % is flagged in the notes.
    """
    if not (0 < tau_tot_exp <= tau_rad < math.inf):
        raise ValidationError(
            f"measured lifetime {tau_tot_exp} ns must be in (0, tau_rad={tau_rad}], "
            "with tau_rad finite; a faster measured decay implies a finite "
            "non-radiative channel"
        )
    if not (0 < dw_exp <= 1):
        raise ValidationError("dw_exp must be in (0, 1]")
    if not (0 <= s_th < math.inf):
        raise ValidationError(f"s_th must be finite and >= 0, got {s_th}")
    if tau_nr_reference is not None and not (0 < tau_nr_reference < math.inf):
        raise ValidationError(f"tau_nr_reference must be finite and > 0, got {tau_nr_reference}")
    eta_rad = tau_tot_exp / tau_rad
    if tau_tot_exp == tau_rad:
        tau_nr = None
    else:
        tau_nr = tau_rad * tau_tot_exp / (tau_rad - tau_tot_exp)
    notes = []
    if tau_nr_reference is not None and tau_nr is not None:
        rel = abs(tau_nr - tau_nr_reference) / tau_nr_reference
        if rel > 0.02:
            notes.append(
                f"computed tau_NR = {tau_nr:.1f} ns disagrees with the "
                f"reference value {tau_nr_reference:.1f} ns ({rel:.1%})"
            )
    return PhotophysicsBudget(
        s_th=s_th,
        dw_th=math.exp(-s_th),
        dw_exp=dw_exp,
        tau_rad=tau_rad,
        tau_tot_exp=tau_tot_exp,
        tau_nr=tau_nr,
        eta_rad=eta_rad,
        eta_tot=eta_rad * dw_exp,
        site_label=site_label,
        notes=notes,
    )


@dataclass
class CavityParams:
    """Plano-concave microcavity and emitter parameters.

    Lengths: wavelength_nm in nm, roc_mm in mm, l_vac_um / l_sic_um in um.
    w_c_um (the 1/e^2 mode field radius) is derived from the Gaussian
    waist of the plano-concave geometry when not supplied.
    """

    wavelength_nm: float
    finesse: float
    roc_mm: float
    l_vac_um: float
    l_sic_um: float
    eta_tot: float
    n_sic: float = N_SIC_DEFAULT
    w_c_um: float | None = None

    def __post_init__(self):
        # written so that NaN fails every range check
        if not (0 < self.wavelength_nm < math.inf and 0 < self.roc_mm < math.inf):
            raise ValidationError("wavelength and mirror radius must be finite and > 0")
        if not (0 < self.l_vac_um < math.inf and 0 <= self.l_sic_um < math.inf):
            raise ValidationError("cavity lengths must be finite and positive")
        if not (0 <= self.finesse < math.inf):
            raise ValidationError("finesse must be finite and >= 0")
        if not (1 <= self.n_sic < math.inf):
            raise ValidationError("n_sic must be finite and >= 1")
        if not (0 < self.eta_tot <= 1):
            raise ValidationError("eta_tot must be in (0, 1]")
        if self.w_c_um is not None and not (0 < self.w_c_um < math.inf):
            raise ValidationError("w_c must be finite and > 0")


def mode_field_radius(params: CavityParams) -> float:
    """Mode field radius in um: supplied value or the plano-concave waist
    w0^2 = (lambda/pi) sqrt(L (R_c - L)) with L the geometric length."""
    if params.w_c_um is not None:
        return params.w_c_um
    lam_um = params.wavelength_nm * 1e-3
    L = params.l_vac_um + params.l_sic_um
    rc = params.roc_mm * 1e3
    if L >= rc:
        raise ValidationError(
            f"geometric length {L} um not smaller than mirror radius {rc} um; "
            "cannot derive a stable Gaussian waist"
        )
    return math.sqrt(lam_um / math.pi * math.sqrt(L * (rc - L)))


def mode_cross_sections(params: CavityParams):
    """(sigma_E, sigma_C) in m^2: ideal emitter cross-section 3 lambda^2/2 pi
    and cavity-mode cross-section pi w_C^2."""
    lam_m = params.wavelength_nm * 1e-9
    sigma_e = 3.0 * lam_m**2 / (2.0 * math.pi)
    w_m = mode_field_radius(params) * 1e-6
    sigma_c = math.pi * w_m**2
    return sigma_e, sigma_c


def fill_factor(params: CavityParams) -> float:
    """Electric-field fill factor of the partially SiC-filled cavity."""
    n = params.n_sic
    return (params.l_vac_um + n * params.l_sic_um) / (
        params.l_vac_um + n**2 * params.l_sic_um
    )


@dataclass
class CavityEstimate:
    cooperativity: float
    eta_cav: float
    eta_out: float | None
    sigma_e: float
    sigma_c: float
    fill: float
    w_c_um: float


def _eta_cav(C):
    """Cavity emission probability 2C/(2C+1), of a number or an array."""
    return 2.0 * C / (2.0 * C + 1.0)


def cooperativity(params: CavityParams,
                  extraction_fraction: float | None = None) -> CavityEstimate:
    """Cooperativity, cavity emission probability and optional output
    efficiency (eta_cav scaled by a mirror-asymmetry extraction fraction)."""
    sigma_e, sigma_c = mode_cross_sections(params)
    f_l = fill_factor(params)
    C = (2.0 / math.pi) * (sigma_e / sigma_c) * params.eta_tot \
        * (f_l / params.n_sic) * params.finesse
    eta_cav = _eta_cav(C)
    eta_out = None
    if extraction_fraction is not None:
        if not (0 < extraction_fraction <= 1):
            raise ValidationError("extraction fraction must be in (0, 1]")
        eta_out = eta_cav * extraction_fraction
    return CavityEstimate(
        cooperativity=C,
        eta_cav=eta_cav,
        eta_out=eta_out,
        sigma_e=sigma_e,
        sigma_c=sigma_c,
        fill=f_l,
        w_c_um=mode_field_radius(params),
    )


def finesse_sweep(params: CavityParams, start: float, stop: float, n: int) -> np.ndarray:
    """eta_cav over n log-spaced finesse values; returns an (n, 3) array of
    (F, C, eta_cav) rows, each equal to what `cooperativity` gives at that
    finesse. n above MAX_GRID_POINTS is refused before the grid is made."""
    if not (0 < start < stop < math.inf and 2 <= n <= MAX_GRID_POINTS):
        raise ValidationError(f"need 0 < start < stop < inf and 2 <= n <= {MAX_GRID_POINTS:.0e}")
    fs = np.logspace(math.log10(start), math.log10(stop), n)
    # C is the factor in front of F times F, and C at F = 1 is that factor
    # exactly, so one product per finesse gives cooperativity's C
    C = cooperativity(replace(params, finesse=1.0)).cooperativity * fs
    return np.column_stack((fs, C, _eta_cav(C)))
