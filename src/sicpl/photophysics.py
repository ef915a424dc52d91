"""Radiative-efficiency budgeting and Fabry-Perot cavity-enhancement
estimates for a single emitter.

The budget combines a calculated radiative lifetime with the measured
total lifetime and Debye-Waller factor into non-radiative lifetime and
efficiency figures; the cavity calculator evaluates the cooperativity
C = (2/pi) (sigma_E/sigma_C) eta_tot (f_L/n) F and eta_cav = 2C/(2C+1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import N_SIC_DEFAULT
from .errors import ConfigurationError, DomainError, ValidationError


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
    if not (0 < tau_tot_exp <= tau_rad):
        raise DomainError(
            f"measured lifetime {tau_tot_exp} ns must be in (0, tau_rad={tau_rad}]; "
            "a faster measured decay implies a finite non-radiative channel"
        )
    if not (0 < dw_exp <= 1):
        raise DomainError("dw_exp must be in (0, 1]")
    if s_th < 0:
        raise DomainError("s_th must be >= 0")
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
        if self.wavelength_nm <= 0 or self.roc_mm <= 0:
            raise ValidationError("wavelength and mirror radius must be > 0")
        if self.l_vac_um <= 0 or self.l_sic_um < 0:
            raise ValidationError("cavity lengths must be positive")
        if self.finesse < 0:
            raise ValidationError("finesse must be >= 0")
        if self.n_sic < 1:
            raise ValidationError("n_sic must be >= 1")
        if not (0 < self.eta_tot <= 1):
            raise ValidationError("eta_tot must be in (0, 1]")
        if self.w_c_um is not None and self.w_c_um <= 0:
            raise ValidationError("w_c must be > 0")


def mode_field_radius(params: CavityParams) -> float:
    """Mode field radius in um: supplied value or the plano-concave waist
    w0^2 = (lambda/pi) sqrt(L (R_c - L)) with L the geometric length."""
    if params.w_c_um is not None:
        return params.w_c_um
    lam_um = params.wavelength_nm * 1e-3
    L = params.l_vac_um + params.l_sic_um
    rc = params.roc_mm * 1e3
    if L >= rc:
        raise ConfigurationError(
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


def cooperativity(params: CavityParams,
                  extraction_fraction: float | None = None) -> CavityEstimate:
    """Cooperativity, cavity emission probability and optional output
    efficiency (eta_cav scaled by a mirror-asymmetry extraction fraction)."""
    sigma_e, sigma_c = mode_cross_sections(params)
    f_l = fill_factor(params)
    C = (2.0 / math.pi) * (sigma_e / sigma_c) * params.eta_tot \
        * (f_l / params.n_sic) * params.finesse
    eta_cav = 2.0 * C / (2.0 * C + 1.0)
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


def finesse_sweep(params: CavityParams, start: float, stop: float, n: int):
    """eta_cav over a log-spaced finesse range; returns (F, C, eta_cav)."""
    if start <= 0 or stop <= start or n < 2:
        raise ValidationError("need 0 < start < stop and n >= 2")
    fs = np.logspace(math.log10(start), math.log10(stop), n)
    rows = []
    for f in fs:
        p = CavityParams(
            wavelength_nm=params.wavelength_nm, finesse=float(f),
            roc_mm=params.roc_mm, l_vac_um=params.l_vac_um,
            l_sic_um=params.l_sic_um, eta_tot=params.eta_tot,
            n_sic=params.n_sic, w_c_um=params.w_c_um,
        )
        est = cooperativity(p)
        rows.append((float(f), est.cooperativity, est.eta_cav))
    return rows
