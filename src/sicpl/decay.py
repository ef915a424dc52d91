"""Fluorescence-decay analysis.

Covers pre-pulse background estimation, single/double exponential decay
fitting with AIC-based model selection, the thermally activated decay
model tau_tot(T) = [1/tau + exp(-E_p/kB T)/tau_p]^-1, and inverse-variance
pooling of lifetimes across spectral bands.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constants import KB_MEV_PER_K
from .datatypes import DecayTrace
from .errors import (
    DegenerateFitError,
    InsufficientBaselineError,
    NoDataError,
    ValidationError,
)
from .nls import FitProblem, FitResult, minimize

# Thermally-assisted channels roughly 4x apart in the data; anything
# within this relative difference is treated as the same channel.
CHANNEL_MATCH_RTOL = 0.30

# "Decisive" evidence threshold for preferring the double exponential.
AIC_THRESHOLD = 10.0

# lower bounds of each (A, tau) pair of the exponential fits; no upper bounds
EXP_LOWER = (0.0, 1e-6)


@dataclass
class BackgroundEstimate:
    mean: float
    std_error: float
    bin_std: float
    n_bins: int


@dataclass
class DecayFitResult:
    """Fitted exponential-decay parameters with 3-sigma margins.

    components are (amplitude, tau_ns) pairs, tau descending for the
    double model. sigma3 follows the same ordering: (A1, tau1[, A2, tau2]).
    """

    background: float
    background_error: float
    components: list
    sigma3: list
    model_kind: str  # "single" | "double"
    reduced_chi2: float
    converged: bool
    warnings: list = field(default_factory=list)
    fit: FitResult | None = None

    @property
    def lifetimes(self):
        return [tau for _, tau in self.components]


@dataclass
class ThermalModel:
    """Parameters of the thermally activated decay model."""

    tau: float       # ns, low-T intrinsic lifetime
    tau_p: float     # ns, thermally-assisted lifetime
    e_p: float       # meV, activation energy
    sigma3: np.ndarray
    reduced_chi2: float
    fit: FitResult | None = None

    def __call__(self, temperature):
        return thermal_lifetime(temperature, self.tau, self.tau_p, self.e_p)


def thermal_lifetime(temperature, tau, tau_p, e_p_mev):
    """Total lifetime of the thermally activated decay model (ns)."""
    T = np.asarray(temperature, dtype=float)
    rate = 1.0 / tau + np.exp(-e_p_mev / (KB_MEV_PER_K * T)) / tau_p
    out = 1.0 / rate
    return float(out) if np.isscalar(temperature) else out


def estimate_background(trace: DecayTrace) -> BackgroundEstimate:
    """Mean and standard error of the pre-pulse bins."""
    pre = trace.counts[trace.times < trace.pulse_time]
    if pre.size < 10:
        raise InsufficientBaselineError(
            f"need >= 10 pre-pulse bins, got {pre.size}"
        )
    std = float(np.std(pre, ddof=1))
    return BackgroundEstimate(
        mean=float(np.mean(pre)),
        std_error=std / np.sqrt(pre.size),
        bin_std=std,
        n_bins=int(pre.size),
    )


def _default_window(trace, bg):
    """pulse + 2 bins through the last bin still above background + 3 sigma."""
    dt = trace.bin_width
    t_start = trace.pulse_time + 2 * dt
    thresh = bg.mean + 3.0 * bg.bin_std
    above = np.nonzero((trace.times >= t_start) & (trace.counts >= thresh))[0]
    t_end = trace.times[above[-1]] if above.size else trace.times[-1]
    if t_end <= t_start:
        t_end = trace.times[-1]
    return (t_start, t_end)


def _exp_model(n_components):
    def model(p, t):
        out = np.zeros_like(t)
        for k in range(n_components):
            A, tau = p[2 * k], p[2 * k + 1]
            out = out + A * np.exp(-t / tau)
        return out

    def jac(p, t):
        J = np.empty((t.size, 2 * n_components))
        for k in range(n_components):
            A, tau = p[2 * k], p[2 * k + 1]
            e = np.exp(-t / tau)
            J[:, 2 * k] = e
            J[:, 2 * k + 1] = A * e * t / tau**2
        return J

    return model, jac


def _initial_tau(t, y):
    """Crude log-slope estimate over the fit window."""
    pos = y > 0
    if np.count_nonzero(pos) >= 2:
        tt, yy = t[pos], y[pos]
        num = np.log(yy[0] / yy[-1])
        if num > 0.1:
            return (tt[-1] - tt[0]) / num
    return max((t[-1] - t[0]) / 3.0, 1e-3)


def _fit_exponentials(t, y, w, p0, background=0.0):
    """Two-pass fit: observed-count weights first, then weights from the
    fitted expectation (removes the low-count bias of observed weighting)."""
    n_components = len(p0) // 2
    model, jac = _exp_model(n_components)
    lower = np.array(EXP_LOWER * n_components)
    upper = np.full(2 * n_components, np.inf)
    fit = minimize(FitProblem(model=model, x=t, y=y, weights=w, p0=np.asarray(p0, float),
                              lower=lower, upper=upper, jacobian=jac))
    w2 = 1.0 / np.maximum(model(fit.parameters, t) + background, 1.0)
    return minimize(FitProblem(model=model, x=t, y=y, weights=w2,
                               p0=fit.parameters, lower=lower, upper=upper,
                               jacobian=jac))


def fit_decay(trace: DecayTrace, kind: str = "auto", fit_window=None) -> DecayFitResult:
    """Fit exponential decay(s) to a background-subtracted trace.

    kind is 'single', 'double' or 'auto'; 'auto' keeps the double model
    only when it beats the single model by more than 10 AIC units.
    """
    if kind not in ("single", "double", "auto"):
        raise ValidationError(f"unknown fit kind {kind!r}")
    bg = estimate_background(trace)
    if fit_window is None:
        fit_window = _default_window(trace, bg)
    t0, t1 = fit_window
    if t0 <= trace.pulse_time:
        raise ValidationError("fit window must start after pulse_time")
    sel = (trace.times >= t0) & (trace.times <= t1)
    if np.count_nonzero(sel) < 5:
        raise ValidationError("fit window contains fewer than 5 bins")
    # time measured from the pulse; Poisson weights from raw counts
    t = trace.times[sel] - trace.pulse_time
    raw = trace.counts[sel]
    y = raw - bg.mean
    w = 1.0 / np.maximum(raw, 1.0)

    tau0 = _initial_tau(t, y)
    a0 = max(float(np.max(y)), 1.0)
    single = _fit_exponentials(t, y, w, [a0, tau0], bg.mean)

    def as_result(fit, kind_name, warnings=()):
        pairs = [(fit.parameters[2 * k], fit.parameters[2 * k + 1])
                 for k in range(len(fit.parameters) // 2)]
        s3 = list(fit.sigma3)
        order = sorted(range(len(pairs)), key=lambda k: -pairs[k][1])
        comps = [pairs[k] for k in order]
        sig = []
        for k in order:
            sig.extend([s3[2 * k], s3[2 * k + 1]])
        warns = list(warnings)
        n = len(pairs)
        if np.any(fit.at_bound(np.array(EXP_LOWER * n), np.full(2 * n, np.inf))):
            warns.append("boundary-solution: parameter pinned at bound")
        return DecayFitResult(
            background=bg.mean,
            background_error=bg.std_error,
            components=comps,
            sigma3=sig,
            model_kind=kind_name,
            reduced_chi2=fit.reduced_chi2,
            converged=fit.converged,
            warnings=warns,
            fit=fit,
        )

    if kind == "single":
        return as_result(single, "single")

    # double-fit initialization brackets the single-fit tau at 1/3 and 3x
    tau_s = single.parameters[1]
    amp = single.parameters[0] / 2.0
    fallback = None
    try:
        double = _fit_exponentials(t, y, w, [amp, 3.0 * tau_s, amp, tau_s / 3.0],
                                   bg.mean)
    except DegenerateFitError:
        fallback = "double fit degenerate; collapsed to single"
    else:
        taus = sorted([double.parameters[1], double.parameters[3]])
        if abs(taus[1] - taus[0]) < 0.02 * taus[1]:
            fallback = "double fit collapsed to single (tau1 ~= tau2)"
    # only a forced double fit reports falling back to the single fit
    if fallback is not None:
        return as_result(single, "single", [fallback] if kind == "double" else [])

    # auto: decisive AIC improvement required to keep the extra component
    aic_single = single.cost + 2 * 2
    aic_double = double.cost + 2 * len(double.parameters)
    if kind == "double" or aic_single - aic_double > AIC_THRESHOLD:
        return as_result(double, "double")
    return as_result(single, "single")


def _arrhenius_start(T, tau_tot, sigma):
    """(tau, tau_p, E_p) read off the Arrhenius line of the excess rate.

    tau is the coldest row with sigma < tau/2 (the coldest row if none
    is). Over the rows where that holds and k = 1/tau_tot - 1/tau > 0,
    ln k = -ln tau_p - E_p/(kB T) is fitted as a weighted line; with fewer
    than two such temperatures the start is (tau, tau, 20 meV).
    """
    ok = sigma < tau_tot / 2
    if ok.any():
        T, tau_tot, sigma = T[ok], tau_tot[ok], sigma[ok]
    tau0 = float(tau_tot[np.argmin(T)])
    k = 1.0 / tau_tot - 1.0 / tau0 if ok.any() else np.zeros(T.size)
    use = k > 0
    if np.unique(T[use]).size < 2:
        return tau0, tau0, 20.0
    # weights 1/sd(ln k), with sd(ln k) = sigma / (tau_tot^2 k)
    e_p0, ln_rate = np.polyfit(-1.0 / (KB_MEV_PER_K * T[use]), np.log(k[use]), 1,
                               w=tau_tot[use] ** 2 * k[use] / sigma[use])
    tau_p0 = np.exp(np.clip(-ln_rate, np.log(1e-3), np.log(1e6)))
    return tau0, float(tau_p0), float(np.clip(e_p0, 1e-3, 1e3))


def fit_thermal(points) -> ThermalModel:
    """Weighted fit of the thermally activated decay model.

    points: iterable of (T_K, tau_tot_ns, sigma_ns). Needs >= 4 points on
    >= 3 distinct temperatures. One fit, started from the Arrhenius line
    of the excess rate 1/tau_tot - 1/tau (see _arrhenius_start); a
    DegenerateFitError from it propagates.
    """
    pts = np.asarray(list(points), dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValidationError("points must be (T, tau_tot, sigma) triples")
    if pts.shape[0] < 4:
        raise ValidationError("need at least 4 points")
    T, tau_tot, sigma = pts[:, 0], pts[:, 1], pts[:, 2]
    if np.any(T <= 0):
        raise ValidationError("temperatures must be positive")
    if np.any(sigma <= 0):
        raise ValidationError("sigma must be positive")
    if np.unique(T).size < 3:
        raise DegenerateFitError("need >= 3 distinct temperatures")
    w = 1.0 / sigma**2

    def model(p, TT):
        return thermal_lifetime(TT, p[0], p[1], p[2])

    def jac(p, TT):
        tau, tau_p, e_p = p
        boltz = np.exp(-e_p / (KB_MEV_PER_K * TT))
        rate = 1.0 / tau + boltz / tau_p
        J = np.empty((TT.size, 3))
        J[:, 0] = 1.0 / (rate * tau) ** 2
        J[:, 1] = boltz / (rate * tau_p) ** 2
        J[:, 2] = boltz / (tau_p * rate**2 * KB_MEV_PER_K * TT)
        return J

    fit = minimize(FitProblem(
        model=model, x=T, y=tau_tot, weights=w,
        p0=np.array(_arrhenius_start(T, tau_tot, sigma)),
        lower=np.array([1e-6, 1e-6, 1e-6]),
        upper=np.full(3, np.inf), jacobian=jac,
    ))
    return ThermalModel(
        tau=float(fit.parameters[0]),
        tau_p=float(fit.parameters[1]),
        e_p=float(fit.parameters[2]),
        sigma3=fit.sigma3,
        reduced_chi2=fit.reduced_chi2,
        fit=fit,
    )


@dataclass
class PooledLifetime:
    tau: float
    sigma: float
    n_members: int
    members: list


def pool_lifetimes(entries) -> list[PooledLifetime]:
    """Inverse-variance pooling of (tau_ns, sigma_ns) pairs into channels.

    Entries whose tau differ by less than 30 % (relative to the running
    channel mean) are treated as the same decay channel.
    """
    entries = [(float(t), float(s)) for t, s in entries]
    if not entries:
        raise NoDataError("no lifetimes to pool")
    for tau, sigma in entries:
        if sigma <= 0:
            raise ValidationError("sigma must be positive")
    channels = []
    for tau, sigma in sorted(entries):
        placed = False
        for ch in channels:
            mean = np.average([t for t, _ in ch], weights=[1 / s**2 for _, s in ch])
            if abs(tau - mean) / mean < CHANNEL_MATCH_RTOL:
                ch.append((tau, sigma))
                placed = True
                break
        if not placed:
            channels.append([(tau, sigma)])
    out = []
    for ch in channels:
        wts = np.array([1.0 / s**2 for _, s in ch])
        taus = np.array([t for t, _ in ch])
        pooled = float(np.sum(wts * taus) / np.sum(wts))
        out.append(PooledLifetime(
            tau=pooled,
            sigma=float(1.0 / np.sqrt(np.sum(wts))),
            n_members=len(ch),
            members=ch,
        ))
    return out
