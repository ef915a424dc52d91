"""Spectral analysis: ZPL identification, Gaussian phonon-sideband series,
Huang-Rhys forward lineshape, and Debye-Waller partitioning.

Phonon energies delta are measured in meV below a reference ZPL energy;
spectra are converted to this axis with the proper Jacobian so that areas
(counts x meV) are preserved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import EV_NM
from .datatypes import Spectrum
from .errors import FitError, ValidationError
from .nls import FitProblem, FitResult, minimize

EV_NM_MEV = EV_NM * 1000.0  # hc in meV*nm
FWHM_PER_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))  # Gaussian FWHM / sigma

# np.trapz was renamed in numpy 2.0
_trapezoid = getattr(np, "trapezoid", None) or np.trapz

# Doublet splitting consistent with the measured alpha doublet (meV)
DOUBLET_SPLITTING_MEV = 1.47
DOUBLET_SPLITTING_TOL = 0.30

# Sideband partition assumptions (see fit_psb); the alpha series has PSB_J_MAX terms
BETA_PSB_MIN_MEV = 20.0
PSB_MAX_MEV = 200.0
ZPL_EXCLUSION_SIGMAS = 4.0
PSB_J_MAX = 10


# ---------------------------------------------------------------------------
# ZPL identification


@dataclass
class ZplLine:
    """One fitted ZPL: a str label, a bool bound flag and four finite floats
    (np.float64 passes, an int or a bool does not), center and fwhm > 0 and
    center_sigma3 and area >= 0; any other value raises ValidationError."""

    label: str
    center: float            # nm
    center_sigma3: float     # nm
    fwhm: float              # nm
    fwhm_is_upper_bound: bool
    area: float              # counts * nm

    def __post_init__(self):
        if not isinstance(self.label, str):
            raise ValidationError(f"ZPL label must be a string, got {self.label!r}")
        if not isinstance(self.fwhm_is_upper_bound, bool):
            raise ValidationError(f"ZPL line {self.label!r}: fwhm_is_upper_bound must be "
                                  f"a bool, got {self.fwhm_is_upper_bound!r}")
        for name, positive in (("center", True), ("center_sigma3", False),
                               ("fwhm", True), ("area", False)):
            value = getattr(self, name)
            if not (isinstance(value, float) and math.isfinite(value)
                    and (value > 0 if positive else value >= 0)):
                raise ValidationError(f"ZPL line {self.label!r}: {name} must be a finite "
                                      f"float {'>' if positive else '>='} 0, got {value!r}")

    @property
    def energy_mev(self) -> float:
        return EV_NM_MEV / self.center


@dataclass
class ZplSet:
    """ZPLs by label, and the doublet splitting (meV) and warnings they give."""

    lines: dict
    doublet_splitting_mev: float | None = field(init=False, default=None)
    warnings: list = field(init=False, default_factory=list)

    def __post_init__(self):
        if "alpha2" in self.lines and "alpha3" in self.lines:
            splitting = self["alpha2"].energy_mev - self["alpha3"].energy_mev
            self.doublet_splitting_mev = splitting
            if splitting <= 0:
                self.warnings.append("doublet energy ordering inconsistent (alpha2 <= alpha3)")
            elif abs(splitting - DOUBLET_SPLITTING_MEV) > DOUBLET_SPLITTING_TOL:
                self.warnings.append(f"doublet splitting {splitting:.3f} meV outside "
                                     f"{DOUBLET_SPLITTING_MEV} +/- {DOUBLET_SPLITTING_TOL} meV")

    def __getitem__(self, label):
        return self.lines[label]

    def area_nm(self, labels) -> float:
        return sum(self.lines[lab].area for lab in labels if lab in self.lines)


def _gaussian_model(p, x):
    """(values, Jacobian) of B + A exp(-(x - c)^2 / (2 s^2)) in p = (B, A, c, s)."""
    B, A, c, s = p
    e = np.exp(-((x - c) ** 2) / (2.0 * s**2))
    u = (x - c) / s
    J = np.empty((x.size, 4))
    J[:, 0] = 1.0
    J[:, 1] = e
    J[:, 2] = A * e * u / s
    J[:, 3] = A * e * u**2 / s
    return B + A * e, J


def fit_gaussian_line(wl, it):
    """Constant + Gaussian fit of one emission line; raises FitError if the
    window has no interior peak.

    The start is read off the data: B from the median of the window's
    outer eighths, A as the peak above it, and sigma from the width of
    the samples above half maximum.
    """
    if np.ptp(it) <= 0:
        raise FitError("no local maximum: window is flat")
    i_max = int(np.argmax(it))
    if i_max in (0, it.size - 1):
        raise FitError("maximum at window edge; no interior peak")
    span = wl[-1] - wl[0]
    k = max(it.size // 8, 1)
    b0 = max(float(np.median(np.concatenate((it[:k], it[-k:])))), 0.0)
    a0 = float(it[i_max]) - b0
    fwhm0 = np.count_nonzero(it > b0 + a0 / 2.0) * float(np.median(np.diff(wl)))
    s0 = min(max(fwhm0 / FWHM_PER_SIGMA, 1e-6 * span), span)
    p0 = np.array([b0, a0, float(wl[i_max]), s0])
    problem = FitProblem(
        model=_gaussian_model, x=wl, y=it, p0=p0,
        lower=np.array([0.0, 0.0, wl[0], 1e-6 * span]),
        upper=np.array([np.inf, np.inf, wl[-1], span]),
    )
    return minimize(problem)


def find_zpls(spectrum: Spectrum, expected) -> ZplSet:
    """Locate and fit expected ZPLs.

    expected: iterable of (label, center_guess_nm, window_nm). Each line
    is fitted with a local constant-plus-Gaussian model; the FWHM of a
    resolution-limited line is reported as an upper bound of two pixels.
    Each label may appear once.
    """
    expected = list(expected)
    labels = [label for label, _, _ in expected]
    for label in labels:
        if labels.count(label) > 1:
            raise ValidationError(f"ZPL label {label!r} appears more than once")
    zpls = {}
    wl_all = spectrum.wavelengths
    pixel = float(np.median(np.diff(wl_all)))
    for label, center, window in expected:
        lo, hi = center - window / 2.0, center + window / 2.0
        if lo < wl_all[0] or hi > wl_all[-1]:
            raise ValidationError(f"window for {label!r} outside spectrum range")
        sel = (wl_all >= lo) & (wl_all <= hi)
        if np.count_nonzero(sel) < 6:
            raise ValidationError(f"window for {label!r} has fewer than 6 samples")
        fit = fit_gaussian_line(wl_all[sel], spectrum.intensities[sel])
        _, A, c, s = fit.parameters
        fwhm = FWHM_PER_SIGMA * s
        limited = fwhm < 2.0 * pixel
        zpls[label] = ZplLine(
            label=label,
            center=float(c),
            center_sigma3=float(fit.sigma3[2]),
            fwhm=float(2.0 * pixel) if limited else float(fwhm),
            fwhm_is_upper_bound=bool(limited),
            area=float(A * s * math.sqrt(2.0 * math.pi)),
        )
    return ZplSet(zpls)


# ---------------------------------------------------------------------------
# Gaussian phonon-sideband series


@dataclass
class PsbModel:
    """Summed Gaussian sideband series with optional doublet replication.

    The base series is sum_{j=1..j_max} of unit-area Gaussians centered
    at delta0 with widths sqrt(j)*sigma; total area is i0 * j_max. When
    doublet=(splitting_meV, ratio) is set, each Gaussian is replaced by a
    weighted pair (ratio = secondary/primary intensity), preserving area.
    """

    i0: float
    sigma: float
    delta0: float
    j_max: int = PSB_J_MAX
    doublet: tuple | None = None

    def __post_init__(self):
        if not 0 <= self.i0 < math.inf:
            raise ValidationError(f"i0 must be finite and >= 0, got {self.i0}")
        if self.sigma <= 0:
            raise ValidationError("sigma must be > 0")
        if self.j_max < 1:
            raise ValidationError("j_max must be >= 1")
        if self.doublet is not None:
            _, ratio = self.doublet
            if not (0 < ratio <= 1):
                raise ValidationError("doublet ratio must be in (0, 1]")

    @property
    def area(self) -> float:
        """Total sideband area (counts * meV)."""
        return self.i0 * self.j_max


def _psb_exps(d, sigma, centre, j_max):
    """exp(-((d - centre) / s_j)^2) with s_j = sqrt(j) sigma, j = 1..j_max,
    as one (j_max, n) array."""
    s = np.sqrt(np.arange(1.0, j_max + 1))[:, None] * sigma
    u = (d - centre) / s
    np.square(u, out=u)  # in place: one (j_max, n) array, not four
    np.negative(u, out=u)
    return np.exp(u, out=u)


def _psb_sums(d, sigma, centre, j_max):
    """(g, gs) = (sum_j g_j, sum_j g_j / s_j^2) over the terms
    g_j = exp(-u_j^2) / (sqrt(pi) s_j) of one line, u_j = (d - centre) / s_j:
    one matrix product [c; c / s^2] @ e over the _psb_exps array e, with
    c_j = 1 / sqrt(pi s_j^2)."""
    s2 = np.arange(1.0, j_max + 1) * sigma**2
    c = 1.0 / np.sqrt(math.pi * s2)
    return np.stack([c, c / s2]) @ _psb_exps(d, sigma, centre, j_max)


def _psb_series(d, sigma, delta0, j_max, doublet):
    """Each line of the unit-i0 sideband series as (centre, w, g, gs): its
    centre, its weight w and its _psb_sums. One line, or with doublet =
    (splitting, ratio) the weighted pair of PsbModel, the secondary
    `splitting` meV below the primary."""
    lines = ((0.0, 1.0),)
    if doublet is not None:
        splitting, ratio = doublet
        w_primary = 1.0 / (1.0 + ratio)
        lines = ((0.0, w_primary), (splitting, 1.0 - w_primary))
    return [(delta0 - offset, w, *_psb_sums(d, sigma, delta0 - offset, j_max))
            for offset, w in lines]


def _psb_model(j_max, doublet):
    """The fit model of the sideband series in p = (i0, sigma, delta0):
    model(p, d) returns (values, Jacobian), both from the one pair of sums
    (g, gs) that _psb_series gives per line. With x = d - centre and
    u_j = x / s_j, the per-j derivatives g_j (2 u_j^2 - 1) / sigma and
    g_j 2 u_j / s_j both carry 1 / s_j^2, so summed over j and the lines:
      d/d i0     = sum w g
      d/d sigma  = i0 sum w (2 x^2 gs - g) / sigma
      d/d delta0 = i0 sum w 2 x gs
    The values are i0 times the first column. i0 enters as max(i0, 0)."""

    def model(p, d):
        i0, sigma, delta0 = max(p[0], 0.0), p[1], p[2]
        J = np.zeros((d.size, 3))
        for centre, w, g, gs in _psb_series(d, sigma, delta0, j_max, doublet):
            x = d - centre
            J[:, 0] += w * g
            J[:, 1] += w * (2.0 * x * x * gs - g)
            J[:, 2] += w * 2.0 * x * gs
        J[:, 1] *= i0 / sigma
        J[:, 2] *= i0
        return i0 * J[:, 0], J

    return model


def psb_eval(model: PsbModel, delta):
    """Evaluate the sideband series on a phonon-energy grid (meV): the
    values of `_psb_model`, bit for bit, without a Jacobian."""
    d = np.asarray(delta, dtype=float)
    # gs goes unused, but BLAS rounds the c row alone (c @ e) differently
    lines = _psb_series(d, model.sigma, model.delta0, model.j_max, model.doublet)
    return model.i0 * sum(w * g for _, w, g, _ in lines)


def to_phonon_axis(spectrum: Spectrum, e_ref_mev: float):
    """Convert a wavelength spectrum to (delta_meV, counts/meV) arrays.

    delta = e_ref - E(lambda); the Jacobian lambda^2 / hc preserves areas.
    """
    wl = spectrum.wavelengths
    delta = e_ref_mev - EV_NM_MEV / wl
    density = spectrum.intensities * wl**2 / EV_NM_MEV
    return delta, density


@dataclass
class PsbFit:
    model: PsbModel
    delta: np.ndarray          # meV grid of the converted spectrum
    alpha_model: np.ndarray    # fitted alpha sideband on that grid
    beta_residual: np.ndarray  # residual density assigned to beta
    fit: FitResult             # the sideband fit in (i0, sigma, delta0)


def _reference_axis(spectrum: Spectrum, zpls: ZplSet):
    """(e_ref, delta, density): the 'alpha3' energy (meV) and its phonon axis."""
    if "alpha3" not in zpls.lines:
        raise ValidationError("zpls must contain the 'alpha3' reference line")
    e_ref = zpls["alpha3"].energy_mev
    return (e_ref, *to_phonon_axis(spectrum, e_ref))


def _zpl_mask(delta, zpls, e_ref_mev):
    mask = np.zeros(delta.shape, dtype=bool)
    for line in zpls.lines.values():
        c = e_ref_mev - line.energy_mev
        half = ZPL_EXCLUSION_SIGMAS * (line.fwhm / FWHM_PER_SIGMA) * EV_NM_MEV / line.center**2
        mask |= (delta >= c - half) & (delta <= c + half)
    return mask


def fit_psb(spectrum: Spectrum, zpls: ZplSet) -> PsbFit:
    """Fit the alpha Gaussian sideband series and split off the beta residual.

    Requires 'alpha3' (reference ZPL) in zpls. The alpha series is fitted
    up to the 'beta' ZPL offset (40 meV without one) plus BETA_PSB_MIN_MEV,
    skipping ZPL_EXCLUSION_SIGMAS line sigmas around each ZPL; the residual
    up to PSB_MAX_MEV, outside those ZPL neighborhoods, is assigned to beta.
    Raises FitError when over 5% of those bins lie below -3 sd, the
    Poisson sd of the fitted alpha counts, sqrt(alpha * lambda^2 / hc).
    """
    e_ref, delta, density = _reference_axis(spectrum, zpls)

    if "beta" in zpls.lines:
        beta_offset = e_ref - zpls["beta"].energy_mev
    else:
        beta_offset = 40.0
    alpha_only_max = beta_offset + BETA_PSB_MIN_MEV

    zmask = _zpl_mask(delta, zpls, e_ref)
    fit_sel = (delta > 0) & (delta <= alpha_only_max) & ~zmask
    if np.count_nonzero(fit_sel) < 10:
        raise ValidationError("too few sideband samples in the alpha-only region")
    d_fit, y_fit = delta[fit_sel], density[fit_sel]

    splitting = zpls.doublet_splitting_mev or DOUBLET_SPLITTING_MEV
    if "alpha2" in zpls.lines and zpls["alpha3"].area > 0:
        ratio = min(max(zpls["alpha2"].area / zpls["alpha3"].area, 1e-3), 1.0)
    else:
        ratio = 30.0 / 70.0

    d0_init = float(d_fit[np.argmax(y_fit)])
    peak = float(np.max(y_fit))
    p0 = np.array([max(peak * 3.0, 1e-9), 5.0, max(d0_init, 1.0)])
    problem = FitProblem(
        model=_psb_model(PSB_J_MAX, (splitting, ratio)), x=d_fit, y=y_fit, p0=p0,
        lower=np.array([0.0, 1e-3, 0.0]),
        upper=np.array([np.inf, alpha_only_max, alpha_only_max]),
    )
    fit = minimize(problem)
    psb = PsbModel(i0=float(fit.parameters[0]), sigma=float(fit.parameters[1]),
                   delta0=float(fit.parameters[2]), doublet=(splitting, ratio))

    alpha_curve = psb_eval(psb, delta)
    residual = density - alpha_curve
    # alpha ZPL neighborhoods stay with alpha
    keep = (delta > 0) & (delta <= PSB_MAX_MEV) & ~zmask
    beta_residual = np.where(keep, residual, 0.0)

    check = residual[keep]
    if check.size:
        sd = np.sqrt(alpha_curve[keep] * spectrum.wavelengths[keep] ** 2 / EV_NM_MEV)
        frac_neg = np.mean(check < -3.0 * sd)
        if frac_neg > 0.05:
            raise FitError(f"negative residual beyond 3 Poisson sd over {frac_neg:.1%} of bins")
    return PsbFit(model=psb, delta=delta, alpha_model=alpha_curve,
                  beta_residual=beta_residual, fit=fit)


# ---------------------------------------------------------------------------
# Huang-Rhys forward lineshape


@dataclass
class HRModel:
    """Huang-Rhys multi-mode model: partial factors S_i at energies hw_i."""

    modes: tuple               # (S_i, homega_i_meV) pairs
    zpl_energy: float          # eV

    def __post_init__(self):
        for s, hw in self.modes:
            if s < 0:
                raise ValidationError("partial HR factors must be >= 0")
            if hw <= 0:
                raise ValidationError("mode energies must be > 0")
        object.__setattr__(self, "modes", tuple(self.modes))

    @property
    def s_total(self) -> float:
        return float(sum(s for s, _ in self.modes))

    @property
    def debye_waller(self) -> float:
        """ZPL fraction exp(-S_total)."""
        return math.exp(-self.s_total)


def hr_lineshape(model: HRModel, grid_ev):
    """Multi-phonon emission lineshape as bin masses on grid_ev.

    The phonon count of mode i is Poisson with mean S_i, each phonon
    shifting the line by the mode's energy rounded to whole bins. The
    mass f[k] at k bins below the ZPL follows exactly from the
    compound-Poisson recursion f[0] = exp(-S), k f[k] = sum_i S_i off_i
    f[k - off_i], with no truncation in phonon number. Mass below the
    grid bottom is dropped and the returned masses are renormalized to
    sum to 1, so the ZPL bin carries exp(-S_total) up to that off-grid
    share.
    """
    grid = np.asarray(grid_ev, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValidationError("grid must be a 1-D array with >= 2 points")
    if np.any(np.diff(grid) <= 0):
        raise ValidationError("grid must be strictly increasing")

    de = float(np.median(np.diff(grid))) * 1e3  # meV per bin
    i_zpl = int(np.argmin(np.abs(grid - model.zpl_energy)))
    s_at = {}  # S summed per bin offset
    for s, hw in model.modes:
        off = int(round(hw / de))
        s_at[off] = s_at.get(off, 0.0) + s
    # phonons of a mode rounding to offset 0 stay in the ZPL bin
    f = [math.exp(s_at.pop(0, 0.0) - model.s_total)]
    for k in range(1, i_zpl + 1):
        f.append(sum(s * off * f[k - off] for off, s in s_at.items() if off <= k) / k)
    out = np.zeros(grid.size)
    out[: i_zpl + 1] = f[::-1]
    return out / out.sum()


# ---------------------------------------------------------------------------
# Debye-Waller partitioning


@dataclass
class DwPartition:
    """ZPL fractions from spectral partitioning at the beta sideband onset."""

    dw_mean: float
    dw_alpha_bounds: tuple      # (low, high)
    dw_beta_low: float
    dw_alpha_refined: float | None = None
    dw_beta_refined: float | None = None


ALPHA_ZPL_LABELS = ("alpha2", "alpha3")
BETA_ZPL_LABELS = ("beta",)


def partition_dw(spectrum: Spectrum, zpls: ZplSet, partition_energy_mev: float,
                 psb_fit: PsbFit | None = None,
                 area_correction: float = 1.0) -> DwPartition:
    """Debye-Waller accounting by partitioning at the beta sideband onset.

    The region below partition_energy_mev (phonon energies relative to
    the alpha ZPL, excluding ZPL areas) can only be alpha sideband; the
    region above is ambiguous and is assigned wholly to alpha (lower
    alpha bound) or wholly to beta (upper alpha bound, beta lower bound).
    area_correction >= 1 scales the total emission area to account for
    sideband beyond the recorded window (default: no correction).
    """
    if not (1.0 <= area_correction < math.inf):
        raise ValidationError("area_correction must be finite and >= 1")
    if not math.isfinite(partition_energy_mev):
        raise ValidationError(f"partition energy must be finite, got {partition_energy_mev}")
    e_ref, delta, density = _reference_axis(spectrum, zpls)
    total = float(_trapezoid(density, delta))
    if total <= 0:
        raise ValidationError("zero total spectrum area")
    total_eff = total * area_correction

    # integrated areas (total counts) are coordinate-invariant, so the
    # nm-axis line areas compare directly with delta-axis integrals
    zpl_alpha = zpls.area_nm(ALPHA_ZPL_LABELS)
    zpl_beta = zpls.area_nm(BETA_ZPL_LABELS)
    zpl_total = zpl_alpha + zpl_beta

    # region areas with the ZPL areas removed; clamp small negatives
    sel1 = delta < partition_energy_mev
    area1 = float(_trapezoid(density[sel1], delta[sel1])) if sel1.sum() > 1 else 0.0
    for line in zpls.lines.values():
        if e_ref - line.energy_mev < partition_energy_mev:
            area1 -= line.area
    p1 = max(area1, 0.0)
    p2 = max(total_eff - zpl_total - p1, 0.0)

    def frac(z, psb):
        denom = z + psb
        return z / denom if denom > 0 else 0.0

    dw_mean = zpl_total / total_eff
    alpha_low = frac(zpl_alpha, p1 + p2)
    alpha_high = frac(zpl_alpha, p1)
    beta_low = frac(zpl_beta, p2)

    alpha_ref = beta_ref = None
    if psb_fit is not None:
        psb_alpha = min(max(psb_fit.model.area, p1), p1 + p2)
        alpha_ref = frac(zpl_alpha, psb_alpha)
        beta_ref = frac(zpl_beta, p1 + p2 - psb_alpha)
    return DwPartition(
        dw_mean=dw_mean,
        dw_alpha_bounds=(alpha_low, alpha_high),
        dw_beta_low=beta_low,
        dw_alpha_refined=alpha_ref,
        dw_beta_refined=beta_ref,
    )
