"""Fluorescence-decay analysis.

Covers pre-pulse background estimation, single/double exponential decay
fitting with AIC-based model selection, the thermally activated decay
model tau_tot(T) = [1/tau + exp(-E_p/kB T)/tau_p]^-1, and inverse-variance
pooling of lifetimes across spectral bands.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .constants import KB_MEV_PER_K
from .datatypes import DecayTrace
from .errors import DegenerateFitError, FitError, ValidationError
from .nls import FitProblem, FitResult, minimize

# Thermally-assisted channels roughly 4x apart in the data; anything
# within this relative difference is treated as the same channel.
CHANNEL_MATCH_RTOL = 0.30

# "Decisive" evidence threshold for preferring the double exponential.
AIC_THRESHOLD = 10.0

# Bounds of the exponential fits, in (A1, tau1[, A2, r]) with tau2 = r * tau1.
# r <= R_MAX keeps tau1 the slow component and ends the walk of two
# lifetimes into each other: a double fit with r held at R_MAX has
# collapsed to one lifetime.
R_MAX = 0.98
EXP_LOWER = (0.0, 1e-6, 0.0, 1e-12)
EXP_UPPER = (np.inf, np.inf, np.inf, R_MAX)

# Score screen of 'auto': the score statistic for a second component
# A2 exp(-t/tau2) is maximised over SCORE_GRID_SIZE log-spaced tau2 in
# [1 ns, 10 x window span]; S >= SCORE_THRESHOLD, half the deviance gain
# AIC asks of a double (2 more parameters), is evidence for one.
SCORE_GRID_SIZE = 20
SCORE_THRESHOLD = (AIC_THRESHOLD + 2 * 2) / 2
_SCORE_STEPS = np.linspace(0.0, 1.0, SCORE_GRID_SIZE)  # log tau2 / log(10 x span)


@dataclass
class BackgroundEstimate:
    mean: float
    std_error: float
    bin_std: float


@dataclass
class DecayFitResult:
    """Fitted exponential-decay parameters.

    components are (amplitude, tau_ns) pairs, tau descending for the
    double model; fit.sigma3 holds their 3-sigma margins as (A1, tau1[, A2, tau2]).
    """

    background: float
    background_error: float
    components: list
    model_kind: str  # "single" | "double"
    fit: FitResult
    warnings: list = field(default_factory=list)


@dataclass
class ThermalModel:
    """Parameters of the thermally activated decay model."""

    tau: float       # ns, low-T intrinsic lifetime
    tau_p: float     # ns, thermally-assisted lifetime
    e_p: float       # meV, activation energy
    fit: FitResult   # in (tau, tau_p, e_p)

    def __call__(self, temperature):
        return thermal_lifetime(temperature, self.tau, self.tau_p, self.e_p)


def _thermal_rate(T, tau, tau_p, e_p_mev):
    """(Boltzmann factor exp(-E_p / kB T), total rate 1/tau_tot)."""
    boltz = np.exp(-e_p_mev / (KB_MEV_PER_K * T))
    return boltz, 1.0 / tau + boltz / tau_p


def thermal_lifetime(temperature, tau, tau_p, e_p_mev):
    """Total lifetime of the thermally activated decay model (ns)."""
    _, rate = _thermal_rate(np.asarray(temperature, dtype=float), tau, tau_p, e_p_mev)
    out = 1.0 / rate
    return float(out) if np.isscalar(temperature) else out


def _thermal_model(p, T):
    """(values, Jacobian) of thermal_lifetime in p = (tau, tau_p, E_p)."""
    tau, tau_p, e_p = p
    boltz, rate = _thermal_rate(T, tau, tau_p, e_p)
    J = np.empty((T.size, 3), order="F")
    J[:, 0] = 1.0 / (rate * tau) ** 2
    J[:, 1] = boltz / (rate * tau_p) ** 2
    J[:, 2] = boltz / (tau_p * rate**2 * KB_MEV_PER_K * T)
    return 1.0 / rate, J


def decay_counts(t, pulse_time, background, components):
    """Expected counts at times `t`: `background`, plus from `pulse_time`
    on A exp(-(t - pulse_time) / tau) for each (A, tau) of `components`."""
    y = np.full(t.shape, background)
    after = t >= pulse_time
    for amp, tau in components:
        y[after] += amp * np.exp(-(t[after] - pulse_time) / tau)
    return y


def estimate_background(trace: DecayTrace) -> BackgroundEstimate:
    """Mean and standard error of the pre-pulse bins."""
    pre = trace.counts[trace.times < trace.pulse_time]
    std = float(np.std(pre, ddof=1))
    return BackgroundEstimate(
        mean=float(np.mean(pre)),
        std_error=std / np.sqrt(pre.size),
        bin_std=std,
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


def _exp_model(p, t):
    """(values, Jacobian) of sum_k A_k exp(-t / tau_k) in p = (A1, tau1) or,
    for two components, p = (A1, tau1, A2, r) with tau2 = r * tau1."""
    # in place, into J's columns, each product in the order of the formula:
    # t / -tau is -t / tau
    A1, tau1 = p[0], p[1]
    J = np.empty((t.size, p.size), order="F")
    e1 = np.divide(t, -tau1, out=J[:, 0])
    np.exp(e1, out=e1)
    f = A1 * e1
    d1 = np.multiply(f, t, out=J[:, 1])
    d1 /= tau1**2
    if p.size == 2:
        return f, J
    A2, r = p[2], p[3]
    tau2 = r * tau1
    e2 = np.divide(t, -tau2, out=J[:, 2])
    np.exp(e2, out=e2)
    g2 = e2 * A2
    f += g2
    # d/d tau1 and d/dr of A2 exp(-t / tau2) share A2 e2 t / tau2
    g2 *= t
    g2 /= tau2
    np.divide(g2, r, out=J[:, 3])
    g2 /= tau1
    d1 += g2
    return f, J


def _initial_tau(t, y):
    """Crude log-slope estimate over the fit window."""
    pos = y > 0
    if np.count_nonzero(pos) >= 2:
        tt, yy = t[pos], y[pos]
        num = np.log(yy[0] / yy[-1])
        if num > 0.1:
            return (tt[-1] - tt[0]) / num
    return max((t[-1] - t[0]) / 3.0, 1e-3)


def _fit_exponentials(t, y, w, p0, background):
    """Two-pass fit: observed-count weights first, then Poisson weights
    1 / max(f + background, 1) from the fitted expectation f (removes the
    low-count bias of observed weighting). Returns the second pass's fit
    and the weights it minimised with."""
    m = len(p0)
    lower, upper = np.array(EXP_LOWER[:m]), np.array(EXP_UPPER[:m])
    fit = minimize(FitProblem(model=_exp_model, x=t, y=y, weights=w, p0=np.asarray(p0, float),
                              lower=lower, upper=upper))
    w2 = 1.0 / np.maximum(_exp_model(fit.parameters, t)[0] + background, 1.0)
    return minimize(FitProblem(model=_exp_model, x=t, y=y, weights=w2,
                               p0=fit.parameters, lower=lower, upper=upper)), w2


def _needs_double(t, y, single: FitResult, w) -> bool:
    """Whether the single fit leaves evidence of a second component.

    Evidence is a misfit at 3 sigma (weighted chi2 above dof + 3 sqrt(2
    dof)) or a one-sided score statistic S = U^2 / I >= SCORE_THRESHOLD
    for A2 exp(-t/tau2) at A2 = 0 for some tau2 of the grid (Rao 1948;
    Davies 1987 for a tau2 that exists only under the alternative):
    U = sum w (y - f) e and I = e'We - e'WJ (J'WJ)^-1 J'We, with f and J
    the single model at its fit and w the weights its second pass
    minimised with, so that U is orthogonal to J. (J'WJ)^-1 enters through
    the LDL' factors of J'WJ = [[a, b], [b, c]]: with g = J'We and
    s = c - b^2 / a, I = e'We - g0^2 / a - (g1 - b g0 / a)^2 / s. A
    non-positive I, or a J'WJ that is not positive definite, counts as
    evidence. The chi2 test comes first; S is then taken over the whole
    grid at once.
    """
    dof = t.size - 2
    if single.cost > dof + 3.0 * np.sqrt(2.0 * dof):
        return True
    f, J = _exp_model(single.parameters, t)
    B = np.empty((3, t.size))  # rows w (y - f) and (WJ)'
    B[0] = w * (y - f)
    np.multiply(J.T, w, out=B[1:])
    (a, b), (_, c) = B[1:] @ J
    s = c - b * b / a
    if not (a > 0.0 and s > 0.0):
        return True
    # rows e = exp(-t / tau2) over the grid; e >= exp(-350) keeps e and e^2
    # out of the slow subnormal range, and a floored term is below 1e-150
    # of the same row's first one
    E = np.multiply.outer(-np.exp(_SCORE_STEPS * -np.log(10.0 * (t[-1] - t[0]))), t)
    np.maximum(E, -350.0, out=E)
    np.exp(E, out=E)
    U, g0, g1 = B @ E.T
    g1 -= (b / a) * g0
    np.square(E, out=E)
    I = E @ w - g0 * g0 / a - g1 * g1 / s
    return bool((np.maximum(U, 0.0) ** 2 >= SCORE_THRESHOLD * I).any())


def _as_lifetimes(fit: FitResult) -> FitResult:
    """A double fit in (A1, tau1, A2, r) mapped to (A1, tau1, A2, tau2 = r tau1).

    The covariance becomes T C T^T, with T the Jacobian of (A1, tau1, A2,
    r tau1): the Gauss-Newton covariance of the same fit made in tau2.
    """
    A1, tau1, A2, r = fit.parameters
    T = np.eye(4)
    T[3] = [0.0, r, 0.0, tau1]
    return replace(fit, parameters=np.array([A1, tau1, A2, r * tau1]),
                   covariance=T @ fit.covariance @ T.T)


def fit_decay(trace: DecayTrace, kind: str = "auto", fit_window=None) -> DecayFitResult:
    """Fit exponential decay(s) to a background-subtracted trace.

    kind is 'single', 'double' or 'auto'. 'auto' fits the double model only
    when the single fit misfits at 3 sigma or the score finds a second
    component (`_needs_double`), and keeps it only when it beats the single
    model by more than 10 AIC units.

    The double model is fitted as (A1, tau1, A2, r) with tau2 = r tau1 and
    r <= R_MAX, so tau1 is the slow component. A double fit that ends with
    r held at R_MAX has collapsed to one lifetime; it, and a degenerate
    double fit, fall back to the single fit. Results report (A1, tau1, A2,
    tau2) with the covariance mapped to match.
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
    single, w_single = _fit_exponentials(t, y, w, [a0, tau0], bg.mean)

    def as_result(fit, kind_name, warnings=()):
        p = fit.parameters
        return DecayFitResult(
            background=bg.mean,
            background_error=bg.std_error,
            components=[(p[k], p[k + 1]) for k in range(0, p.size, 2)],
            model_kind=kind_name,
            fit=fit,
            warnings=list(warnings),
        )

    if kind == "single" or (kind == "auto" and not _needs_double(t, y, single, w_single)):
        return as_result(single, "single")

    # the double starts around the single-fit tau: tau1 = 3 tau_s, tau2 = tau1 / 9
    tau_s = single.parameters[1]
    amp = single.parameters[0] / 2.0
    fallback = None
    try:
        double, _ = _fit_exponentials(t, y, w, [amp, 3.0 * tau_s, amp, 1.0 / 9.0], bg.mean)
    except DegenerateFitError:
        fallback = "double fit degenerate; collapsed to single"
    else:
        if double.parameters[3] >= R_MAX:
            fallback = "double fit collapsed to single (tau1 ~= tau2)"
    # only a forced double fit reports falling back to the single fit
    if fallback is not None:
        return as_result(single, "single", [fallback] if kind == "double" else [])

    # auto: decisive AIC improvement required to keep the extra component
    aic_single = single.cost + 2 * 2
    aic_double = double.cost + 2 * len(double.parameters)
    if kind == "double" or aic_single - aic_double > AIC_THRESHOLD:
        return as_result(_as_lifetimes(double), "double")
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
    fit = minimize(FitProblem(
        model=_thermal_model, x=T, y=tau_tot, weights=1.0 / sigma**2,
        p0=np.array(_arrhenius_start(T, tau_tot, sigma)),
        lower=np.array([1e-6, 1e-6, 1e-6]),
        upper=np.full(3, np.inf),
    ))
    return ThermalModel(
        tau=float(fit.parameters[0]),
        tau_p=float(fit.parameters[1]),
        e_p=float(fit.parameters[2]),
        fit=fit,
    )


@dataclass
class PooledLifetime:
    tau: float
    sigma: float
    members: list


def pool_lifetimes(entries) -> list[PooledLifetime]:
    """Inverse-variance pooling of (tau_ns, sigma_ns) pairs into channels.

    Entries whose tau differ by less than 30 % (relative to the running
    channel mean) are treated as the same decay channel.
    """
    entries = [(float(t), float(s)) for t, s in entries]
    if not entries:
        raise FitError("no lifetimes to pool")
    for tau, sigma in entries:
        if not (0 < tau < np.inf and 0 < sigma < np.inf):
            raise ValidationError(f"tau and sigma must be finite and > 0, got ({tau}, {sigma})")
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
            members=ch,
        ))
    return out
