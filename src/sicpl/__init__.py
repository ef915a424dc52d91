"""Photophysics analysis toolkit for near-infrared color centers:
decay-lifetime fitting, thermally activated decay modeling, phonon-sideband
reconstruction, Debye-Waller/Huang-Rhys accounting, radiative-efficiency
budgeting and cavity-enhancement estimates.
"""

__version__ = "0.1.0"

from .datatypes import DecayTrace, Spectrum
from .decay import (
    DecayFitResult,
    ThermalModel,
    estimate_background,
    fit_decay,
    fit_thermal,
    pool_lifetimes,
    thermal_lifetime,
)
from .io import load_sidecar, load_spectrum, load_trace, save_two_column
from .nls import FitProblem, FitResult, finite_diff_jacobian, minimize
from .photophysics import (
    CavityParams,
    PhotophysicsBudget,
    budget,
    cooperativity,
    fill_factor,
    finesse_sweep,
    mode_cross_sections,
    mode_field_radius,
)
from .spectrum import (
    DwPartition,
    HRModel,
    PsbModel,
    ZplLine,
    ZplSet,
    doublet_ratio_vs_T,
    find_zpls,
    fit_psb,
    hr_lineshape,
    partition_dw,
    psb_eval,
    to_phonon_axis,
)
from .synth import GeneratorSpec, generate
