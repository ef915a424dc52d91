"""Spectral analysis: ZPL identification, doublet thermometry, power and
polarization checks, Gaussian phonon-sideband series, Huang-Rhys forward
lineshape, and Debye-Waller partitioning.

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
from .errors import (
    DegenerateFitError,
    DomainError,
    InsufficientDataError,
    LineNotFoundError,
    ModelInconsistencyError,
    ValidationError,
)
from .nls import FitProblem, minimize

EV_NM_MEV = EV_NM * 1000.0  # hc in meV*nm

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
    label: str
    center: float            # nm
    center_sigma3: float     # nm
    fwhm: float              # nm
    fwhm_is_upper_bound: bool
    area: float              # counts * nm
    amplitude: float
    background: float

    @property
    def energy_mev(self) -> float:
        return EV_NM_MEV / self.center


@dataclass
class ZplSet:
    lines: dict
    doublet_splitting_mev: float | None = None
    warnings: list = field(default_factory=list)

    def __getitem__(self, label):
        return self.lines[label]

    def area_nm(self, labels) -> float:
        return sum(self.lines[lab].area for lab in labels if lab in self.lines)


def _gaussian(p, x):
    B, A, c, s = p
    return B + A * np.exp(-((x - c) ** 2) / (2.0 * s**2))


def _gaussian_jac(p, x):
    B, A, c, s = p
    u = (x - c) / s
    e = np.exp(-0.5 * u**2)
    J = np.empty((x.size, 4))
    J[:, 0] = 1.0
    J[:, 1] = e
    J[:, 2] = A * e * u / s
    J[:, 3] = A * e * u**2 / s
    return J


def fit_gaussian_line(wl, it):
    """Constant + Gaussian fit of one emission line; raises if no peak."""
    if np.ptp(it) <= 0:
        raise LineNotFoundError("no local maximum: window is flat")
    i_max = int(np.argmax(it))
    if i_max in (0, it.size - 1):
        raise LineNotFoundError("maximum at window edge; no interior peak")
    span = wl[-1] - wl[0]
    p0 = np.array([float(np.min(it)), float(np.ptp(it)), float(wl[i_max]), span / 8.0])
    problem = FitProblem(
        model=_gaussian, x=wl, y=it, p0=p0,
        lower=np.array([0.0, 0.0, wl[0], 1e-6 * span]),
        upper=np.array([np.inf, np.inf, wl[-1], span]),
        jacobian=_gaussian_jac,
    )
    return minimize(problem)


def find_zpls(spectrum: Spectrum, expected) -> ZplSet:
    """Locate and fit expected ZPLs.

    expected: iterable of (label, center_guess_nm, window_nm). Each line
    is fitted with a local constant-plus-Gaussian model; the FWHM of a
    resolution-limited line is reported as an upper bound of two pixels.
    """
    zpls = {}
    warnings = []
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
        B, A, c, s = fit.parameters
        fwhm = 2.0 * math.sqrt(2.0 * math.log(2.0)) * s
        limited = fwhm < 2.0 * pixel
        zpls[label] = ZplLine(
            label=label,
            center=float(c),
            center_sigma3=float(fit.sigma3[2]),
            fwhm=float(2.0 * pixel) if limited else float(fwhm),
            fwhm_is_upper_bound=limited,
            area=float(A * s * math.sqrt(2.0 * math.pi)),
            amplitude=float(A),
            background=float(B),
        )
    splitting = None
    if "alpha2" in zpls and "alpha3" in zpls:
        splitting = zpls["alpha2"].energy_mev - zpls["alpha3"].energy_mev
        if splitting <= 0:
            warnings.append("doublet energy ordering inconsistent (alpha2 <= alpha3)")
        elif abs(splitting - DOUBLET_SPLITTING_MEV) > DOUBLET_SPLITTING_TOL:
            warnings.append(
                f"doublet splitting {splitting:.3f} meV outside "
                f"{DOUBLET_SPLITTING_MEV} +/- {DOUBLET_SPLITTING_TOL} meV"
            )
    return ZplSet(lines=zpls, doublet_splitting_mev=splitting, warnings=warnings)


# ---------------------------------------------------------------------------
# Doublet thermometry


def _doublet_ratio(r0, t0, temperature):
    return 1.0 + (r0 - 1.0) * np.exp(-np.asarray(temperature) / t0)


@dataclass
class DoubletThermometry:
    """Phenomenological ratio model r(T) = 1 + (r0 - 1) exp(-T / T0)."""

    r0: float
    t0: float
    sigma3: np.ndarray
    points: list  # (T, ratio) actually used
    warnings: list = field(default_factory=list)

    def ratio(self, temperature):
        return _doublet_ratio(self.r0, self.t0, temperature)

    def dominant_share(self, temperature):
        r = self.ratio(temperature)
        return r / (1.0 + r)


def doublet_ratio_vs_T(spectra, expected_pair) -> DoubletThermometry:
    """Fit the doublet intensity ratio versus temperature.

    expected_pair: ((label_dominant, center, window), (label_other, center,
    window)); the ratio is area(dominant)/area(other). Needs at least 3
    resolvable spectra below 100 K.
    """
    points = []
    for sp in spectra:
        try:
            zpls = find_zpls(sp, expected_pair)
        except LineNotFoundError:
            continue
        lab1, lab2 = expected_pair[0][0], expected_pair[1][0]
        a1, a2 = zpls[lab1].area, zpls[lab2].area
        if a2 <= 0:
            continue
        points.append((sp.temperature, a1 / a2))
    below = [p for p in points if p[0] < 100.0]
    if len(below) < 3:
        raise InsufficientDataError(
            f"need >= 3 resolvable doublets below 100 K, got {len(below)}"
        )
    T = np.array([p[0] for p in points])
    r = np.array([p[1] for p in points])

    r0_init = float(r[np.argmin(T)])
    problem = FitProblem(
        model=lambda p, TT: _doublet_ratio(p[0], p[1], TT), x=T, y=r,
        p0=np.array([r0_init, 30.0]),
        lower=np.array([0.0, 1e-3]),
        upper=np.array([np.inf, 1e4]),
    )
    fit = minimize(problem)
    out = DoubletThermometry(
        r0=float(fit.parameters[0]),
        t0=float(fit.parameters[1]),
        sigma3=fit.sigma3,
        points=points,
    )
    share4 = out.dominant_share(4.0)
    if abs(share4 - 0.70) > 0.05:
        out.warnings.append(
            f"4 K dominant-line share {share4:.3f} deviates from ~0.70"
        )
    return out


# ---------------------------------------------------------------------------
# Power and polarization checks


def power_law_check(points):
    """Fit I = c * P^k in log-log space; returns (k, sigma3_k).

    points: iterable of (power_mW, intensity), all positive, >= 3 powers.
    """
    pts = np.asarray(list(points), dtype=float)
    if pts.shape[0] < 3:
        raise ValidationError("need at least 3 powers")
    P, I = pts[:, 0], pts[:, 1]
    if np.any(P <= 0):
        raise DomainError("powers must be positive")
    if np.any(I <= 0):
        raise DomainError("intensities must be positive for a log-log fit")
    x, y = np.log(P), np.log(I)

    def model(p, xx):
        return p[0] + p[1] * xx

    fit = minimize(FitProblem(model=model, x=x, y=y, p0=np.array([y.mean(), 1.0])))
    return float(fit.parameters[1]), float(fit.sigma3[1])


@dataclass
class PolarizationFit:
    i_min: float
    i_max: float
    theta0: float | None   # degrees; None when unidentifiable
    visibility: float
    sigma3: np.ndarray | None
    flagged: bool = False


def polarization_fit(points) -> PolarizationFit:
    """Fit I(theta) = a + b cos^2(theta - theta0); visibility b/(2a + b)."""
    pts = np.asarray(list(points), dtype=float)
    if pts.shape[0] < 4:
        raise ValidationError("need at least 4 angles")
    theta, I = pts[:, 0], pts[:, 1]
    if np.ptp(theta) < 90.0:
        raise ValidationError("angles must span at least 90 degrees")
    if np.ptp(I) <= 1e-12 * max(abs(I).max(), 1.0):
        mean = float(np.mean(I))
        return PolarizationFit(i_min=mean, i_max=mean, theta0=None,
                               visibility=0.0, sigma3=None, flagged=True)

    def model(p, th):
        return p[0] + p[1] * np.cos(np.radians(th - p[2])) ** 2

    th0 = float(theta[np.argmax(I)])
    problem = FitProblem(
        model=model, x=theta, y=I,
        p0=np.array([float(np.min(I)), float(np.ptp(I)), th0]),
        lower=np.array([0.0, 0.0, th0 - 180.0]),
        upper=np.array([np.inf, np.inf, th0 + 180.0]),
    )
    fit = minimize(problem)
    a, b, t0 = fit.parameters
    return PolarizationFit(
        i_min=float(a),
        i_max=float(a + b),
        theta0=float(t0 % 180.0),
        visibility=float(b / (2.0 * a + b)),
        sigma3=fit.sigma3,
    )


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
        if self.i0 < 0:
            raise ValidationError("i0 must be >= 0")
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


def _psb_base(delta, i0, sigma, delta0, j_max):
    d = np.asarray(delta, dtype=float)
    out = np.zeros_like(d)
    for j in range(1, j_max + 1):
        sj = math.sqrt(j) * sigma
        out += np.exp(-(((d - delta0) / sj) ** 2)) / (math.sqrt(j * math.pi) * sigma)
    return i0 * out


def _psb_series(delta, i0, sigma, delta0, j_max, doublet):
    if doublet is None:
        return _psb_base(delta, i0, sigma, delta0, j_max)
    splitting, ratio = doublet
    w_primary = 1.0 / (1.0 + ratio)
    primary = _psb_base(delta, i0, sigma, delta0, j_max)
    secondary = _psb_base(delta, i0, sigma, delta0 - splitting, j_max)
    return w_primary * primary + (1.0 - w_primary) * secondary


def psb_eval(model: PsbModel, delta):
    """Evaluate the sideband series on a phonon-energy grid (meV); the fit
    evaluates the same `_psb_series` without building a PsbModel."""
    return _psb_series(delta, model.i0, model.sigma, model.delta0, model.j_max,
                       model.doublet)


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
    sigma3: np.ndarray
    reduced_chi2: float
    e_ref_mev: float


def _zpl_mask(delta, zpls, e_ref_mev):
    mask = np.zeros(delta.shape, dtype=bool)
    for line in zpls.lines.values():
        c = e_ref_mev - line.energy_mev
        half = ZPL_EXCLUSION_SIGMAS * (line.fwhm / 2.355) * EV_NM_MEV / line.center**2
        mask |= (delta >= c - half) & (delta <= c + half)
    return mask


def fit_psb(spectrum: Spectrum, zpls: ZplSet) -> PsbFit:
    """Fit the alpha Gaussian sideband series and split off the beta residual.

    Requires 'alpha3' (reference ZPL) in zpls. The alpha series is fitted
    up to the 'beta' ZPL offset (40 meV without one) plus BETA_PSB_MIN_MEV,
    skipping ZPL_EXCLUSION_SIGMAS line sigmas around each ZPL; the residual
    up to PSB_MAX_MEV, outside those ZPL neighborhoods, is assigned to beta.
    """
    if "alpha3" not in zpls.lines:
        raise ValidationError("zpls must contain the 'alpha3' reference line")
    e_ref = zpls["alpha3"].energy_mev
    delta, density = to_phonon_axis(spectrum, e_ref)

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

    def model(p, dd):
        return _psb_series(dd, max(p[0], 0.0), p[1], p[2], PSB_J_MAX, (splitting, ratio))

    d0_init = float(d_fit[np.argmax(y_fit)])
    peak = float(np.max(y_fit))
    p0 = np.array([max(peak * 3.0, 1e-9), 5.0, max(d0_init, 1.0)])
    problem = FitProblem(
        model=model, x=d_fit, y=y_fit, p0=p0,
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
        noise = 1.4826 * np.median(np.abs(np.diff(density))) / math.sqrt(2.0)
        noise = max(noise, 1e-12 * max(density.max(), 1.0))
        frac_neg = np.mean(check < -3.0 * noise)
        if frac_neg > 0.05:
            raise ModelInconsistencyError(
                f"negative residual beyond 3x noise over {frac_neg:.1%} of bins"
            )
    return PsbFit(model=psb, delta=delta, alpha_model=alpha_curve,
                  beta_residual=beta_residual, sigma3=fit.sigma3,
                  reduced_chi2=fit.reduced_chi2, e_ref_mev=e_ref)


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


def default_hr_grid(model: HRModel, step_mev: float = 0.5, n_max: int = 8):
    """Energy grid (eV) from zpl - n_max * max(homega) up to zpl."""
    if model.modes:
        span_mev = n_max * max(hw for _, hw in model.modes)
    else:
        span_mev = 10.0
    n = int(math.ceil(span_mev / step_mev)) + 1
    return model.zpl_energy - 1e-3 * step_mev * np.arange(n)[::-1]


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

    def __post_init__(self):
        lo, hi = self.dw_alpha_bounds
        if not (0.0 <= lo <= hi <= 1.0 + 1e-9):
            raise ValidationError("alpha DW bounds out of order")
        if self.dw_alpha_refined is not None and not (
            lo - 1e-9 <= self.dw_alpha_refined <= hi + 1e-9
        ):
            raise ValidationError("refined alpha DW outside its bounds")
        if self.dw_beta_refined is not None and (
            self.dw_beta_refined < self.dw_beta_low - 1e-9
        ):
            raise ValidationError("refined beta DW below its lower bound")


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
    if area_correction < 1.0:
        raise ValidationError("area_correction must be >= 1")
    if "alpha3" not in zpls.lines:
        raise ValidationError("zpls must contain the 'alpha3' reference line")
    e_ref = zpls["alpha3"].energy_mev
    delta, density = to_phonon_axis(spectrum, e_ref)
    total = float(_trapezoid(density, delta))
    if total <= 0:
        raise DomainError("zero total spectrum area")
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
