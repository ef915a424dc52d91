"""Deterministic, seedable generators of synthetic traces, spectra and
fit-input series from known truth parameters.

These are the independent oracles for every round-trip fit test: a fixed
GeneratorSpec produces byte-identical output, and noiseless output fed to
the corresponding fitter must return the truth parameters.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .constants import EV_NM
from .datatypes import DecayTrace, Spectrum
from .decay import thermal_lifetime
from .errors import ValidationError
from .spectrum import EV_NM_MEV, PSB_J_MAX, HRModel, PsbModel, hr_lineshape, psb_eval

# per generator kind: the truth keys and the sampling keys it needs, and the
# noise kinds it takes
RECIPES = {
    "decay": (("components", "pulse_time"), ("t_start", "t_end", "bin_ns"),
              ("none", "poisson", "gaussian")),
    "spectrum": ((), ("wl_start", "wl_end", "step_nm"), ("none", "poisson", "gaussian")),
    "thermal_series": (("tau", "tau_p", "e_p"), ("temperatures",), ("none", "gaussian")),
    "power_series": (("c", "k"), ("powers",), ("none", "gaussian")),
    "polarization_series": (("a", "b"), ("angles",), ("none", "gaussian")),
}
# the keys each entry of a spectrum truth's 'psb' list, and its 'hr', needs
PSB_KEYS = ("i0", "sigma", "delta0", "e_ref_nm")
HR_KEYS = ("modes", "zpl_energy_ev")


def _real(value):
    return isinstance(value, numbers.Real)


def _reals(value, n=None):
    return (isinstance(value, (list, tuple, np.ndarray)) and all(map(_real, value))
            and n in (None, len(value)))


def _pairs(value):
    return isinstance(value, (list, tuple)) and all(_reals(v, 2) for v in value)


def _zpl_rows(value):
    return isinstance(value, (list, tuple)) and all(
        isinstance(row, (list, tuple)) and len(row) == 4 and _reals(row[1:]) for row in value)


REAL = (_real, "a real number")
REALS = (_reals, "a list of reals")
# the form of every truth, sampling, 'psb' and 'hr' value a generator reads
FORMS = {
    **dict.fromkeys(("pulse_time", "background", "temperature", "band_center", "band_width",
                     "t_start", "t_end", "bin_ns", "wl_start", "wl_end", "step_nm",
                     "tau", "tau_p", "e_p", "c", "k", "a", "b", "theta0",
                     "i0", "sigma", "delta0", "e_ref_nm", "zpl_energy_ev", "area_nm"), REAL),
    **dict.fromkeys(("temperatures", "powers", "angles"), REALS),
    "components": (_pairs, "a list of (A, tau) pairs"),
    "modes": (_pairs, "a list of (S, homega) pairs"),
    "doublet": (lambda v: _reals(v, 2), "a (splitting, ratio) pair"),
    "j_max": (lambda v: isinstance(v, numbers.Integral), "an integer"),
    "zpl": (_zpl_rows, "a list of [label, center, fwhm, area] rows"),
    "psb": (lambda v: isinstance(v, (list, tuple)) and all(isinstance(e, dict) for e in v),
            "a list of objects"),
    "hr": (lambda v: isinstance(v, dict), "an object"),
}


def _check_values(where, given, needs):
    for key in needs:
        if key not in given:
            raise ValidationError(f"{where} needs {key!r}")
    for key, value in given.items():
        test, form = FORMS.get(key, (None, None))
        if test is not None and not test(value):
            raise ValidationError(f"{key!r} must be {form}, got {value!r}")


@dataclass
class GeneratorSpec:
    """Recipe for one synthetic dataset, validated on construction.

    noise: {'kind': 'none'} | {'kind': 'poisson'} |
           {'kind': 'gaussian', 'sigma_frac': f}, as RECIPES allows per kind;
    truth and sampling contents depend on kind; truth parameter names
    match the corresponding fit-report names one-to-one.
    """

    seed: int
    kind: str
    truth: dict
    sampling: dict
    noise: dict = field(default_factory=lambda: {"kind": "none"})

    def __post_init__(self):
        if self.kind not in RECIPES:
            raise ValidationError(f"unknown generator kind {self.kind!r}")
        if not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise ValidationError(f"'seed' must be an integer >= 0, got {self.seed!r}")
        for name in ("truth", "sampling", "noise"):
            if not isinstance(getattr(self, name), dict):
                raise ValidationError(f"{name!r} must be an object, got {getattr(self, name)!r}")
        truth_keys, sampling_keys, noises = RECIPES[self.kind]
        _check_values(f"{self.kind} truth", self.truth, truth_keys)
        _check_values(f"{self.kind} sampling", self.sampling, sampling_keys)
        for entry in self.truth.get("psb", ()):
            _check_values("psb entry", entry, PSB_KEYS)
        if "hr" in self.truth:
            _check_values("hr", self.truth["hr"], HR_KEYS)
        noise = self.noise.get("kind")
        if noise not in noises:
            raise ValidationError(f"{self.kind} noise must be one of {', '.join(noises)}, "
                                  f"got {noise!r}")
        frac = self.noise.get("sigma_frac")
        if noise == "gaussian" and not (_real(frac) and frac >= 0):
            raise ValidationError(f"'sigma_frac' must be a real >= 0 for gaussian noise, "
                                  f"got {frac!r}")


def _point_rngs(seed, n):
    """One deterministic substream per data point."""
    children = np.random.SeedSequence(int(seed)).spawn(int(n))
    return [np.random.Generator(np.random.PCG64(c)) for c in children]


def _gaussian_draws(seed, means, sds):
    """One Gaussian draw per point, from that point's own substream."""
    rngs = _point_rngs(seed, len(means))
    return np.array([r.normal(mu, sd) for r, mu, sd in zip(rngs, means, sds)])


def _sample_poisson(rng, rate):
    """Inversion sampling below rate 30, rounded Gaussian approximation above."""
    if rate <= 0:
        return 0
    if rate < 30.0:
        u = rng.uniform()
        k, p = 0, math.exp(-rate)
        cum = p
        while u > cum and k < 10_000:
            k += 1
            p *= rate / k
            cum += p
        return k
    return max(int(round(rng.normal(rate, math.sqrt(rate)))), 0)


def _apply_counts_noise(spec, expected):
    """Counting noise on expected rates; output rounded to integer counts."""
    kind = spec.noise["kind"]
    if kind == "none":
        return np.round(expected)
    if kind == "poisson":
        rngs = _point_rngs(spec.seed, expected.size)
        return np.array([_sample_poisson(r, mu) for r, mu in zip(rngs, expected)],
                        dtype=float)
    frac = spec.noise["sigma_frac"]
    out = _gaussian_draws(spec.seed, expected, frac * np.maximum(np.abs(expected), 1e-300))
    return np.round(np.clip(out, 0.0, None))


def expected_decay(spec: GeneratorSpec):
    """Noise-free expected counts of a decay recipe; returns (t, counts)."""
    truth, samp = spec.truth, spec.sampling
    bg = float(truth.get("background", 0.0))
    comps = truth["components"]
    pulse = float(truth["pulse_time"])
    if bg < 0 or any(a < 0 or tau <= 0 for a, tau in comps):
        raise ValidationError("invalid decay truth: need background >= 0, A >= 0, tau > 0")
    t = np.arange(samp["t_start"], samp["t_end"] + samp["bin_ns"] / 2.0,
                  samp["bin_ns"], dtype=float)
    y = np.full(t.shape, bg)
    after = t >= pulse
    for a, tau in comps:
        y[after] += a * np.exp(-(t[after] - pulse) / tau)
    return t, y


def gen_decay(spec: GeneratorSpec) -> DecayTrace:
    if spec.kind != "decay":
        raise ValidationError("spec.kind must be 'decay'")
    t, y = expected_decay(spec)
    counts = _apply_counts_noise(spec, y)
    return DecayTrace(
        times=t,
        counts=counts,
        pulse_time=float(spec.truth["pulse_time"]),
        band_center=spec.truth.get("band_center"),
        band_width=spec.truth.get("band_width"),
        temperature=spec.truth.get("temperature", 4.0),
    )


def expected_spectrum(spec: GeneratorSpec):
    """Noise-free expected counts/nm of a spectrum recipe; returns (wl, y)."""
    truth, samp = spec.truth, spec.sampling
    wl = np.arange(samp["wl_start"], samp["wl_end"] + samp["step_nm"] / 2.0,
                   samp["step_nm"], dtype=float)
    y = np.zeros(wl.shape)
    labels = [z[0] for z in truth.get("zpl", ())]
    if len(set(labels)) != len(labels):
        raise ValidationError("duplicate ZPL labels in truth")
    for _, center, fwhm, area in truth.get("zpl", ()):
        s = fwhm / (2.0 * math.sqrt(2.0 * math.log(2.0)))
        y += area / (s * math.sqrt(2.0 * math.pi)) * np.exp(
            -((wl - center) ** 2) / (2.0 * s**2)
        )
    # sideband series are defined on the phonon-energy axis; the Jacobian
    # hc/lambda^2 converts counts/meV to counts/nm
    for psb in truth.get("psb", ()):
        model = PsbModel(
            i0=psb["i0"], sigma=psb["sigma"], delta0=psb["delta0"],
            j_max=psb.get("j_max", PSB_J_MAX), doublet=psb.get("doublet"),
        )
        e_ref = EV_NM_MEV / psb["e_ref_nm"]
        delta = e_ref - EV_NM_MEV / wl
        y += psb_eval(model, delta) * EV_NM_MEV / wl**2
    if "hr" in truth:
        hr = truth["hr"]
        model = HRModel(modes=tuple(hr["modes"]), zpl_energy=hr["zpl_energy_ev"])
        e_nodes = EV_NM / wl
        step_ev = 0.25e-3
        grid = np.arange(e_nodes.min() - step_ev, e_nodes.max() + step_ev, step_ev)
        mass = hr_lineshape(model, grid)
        dens_ev = mass / step_ev
        dens_at = np.interp(e_nodes, grid, dens_ev)
        y += hr.get("area_nm", 1.0) * dens_at * EV_NM / wl**2
    return wl, y


def gen_spectrum(spec: GeneratorSpec) -> Spectrum:
    if spec.kind != "spectrum":
        raise ValidationError("spec.kind must be 'spectrum'")
    wl, y = expected_spectrum(spec)
    if spec.noise["kind"] == "none":
        counts = y
    else:
        counts = _apply_counts_noise(spec, y)
    return Spectrum(
        wavelengths=wl,
        intensities=counts,
        temperature=float(spec.truth.get("temperature", 4.0)),
        label=spec.truth.get("label", "synthetic"),
    )


def gen_thermal_series(spec: GeneratorSpec):
    """(T, tau_tot, sigma) triples from the thermally activated decay model."""
    if spec.kind != "thermal_series":
        raise ValidationError("spec.kind must be 'thermal_series'")
    truth = spec.truth
    temps = np.asarray(spec.sampling["temperatures"], dtype=float)
    if np.any(temps <= 0):
        raise ValidationError("temperatures must be positive")
    tau_tot = thermal_lifetime(temps, truth["tau"], truth["tau_p"], truth["e_p"])
    if spec.noise["kind"] == "gaussian":
        sigma = spec.noise["sigma_frac"] * tau_tot
        noisy = _gaussian_draws(spec.seed, tau_tot, sigma)
    else:
        noisy = tau_tot
        sigma = np.full(temps.shape, 1e-9) * tau_tot
    return [(float(T), float(v), float(s)) for T, v, s in zip(temps, noisy, sigma)]


def gen_power_series(spec: GeneratorSpec):
    """(power_mW, intensity) pairs from I = c * P^k."""
    if spec.kind != "power_series":
        raise ValidationError("spec.kind must be 'power_series'")
    powers = np.asarray(spec.sampling["powers"], dtype=float)
    c, k = spec.truth["c"], spec.truth["k"]
    ideal = c * powers**k
    if spec.noise["kind"] == "gaussian":
        vals = _gaussian_draws(spec.seed, ideal, spec.noise["sigma_frac"] * ideal)
    else:
        vals = ideal
    return list(zip(powers.tolist(), vals.tolist()))


def gen_polarization_series(spec: GeneratorSpec):
    """(angle_deg, intensity) pairs from I = a + b cos^2(theta - theta0)."""
    if spec.kind != "polarization_series":
        raise ValidationError("spec.kind must be 'polarization_series'")
    angles = np.asarray(spec.sampling["angles"], dtype=float)
    a, b, t0 = spec.truth["a"], spec.truth["b"], spec.truth.get("theta0", 0.0)
    ideal = a + b * np.cos(np.radians(angles - t0)) ** 2
    if spec.noise["kind"] == "gaussian":
        frac = spec.noise["sigma_frac"]
        vals = _gaussian_draws(spec.seed, ideal, frac * np.maximum(ideal, 1e-12))
    else:
        vals = ideal
    return list(zip(angles.tolist(), vals.tolist()))


def generate(spec: GeneratorSpec):
    """Dispatch on spec.kind."""
    return {
        "decay": gen_decay,
        "spectrum": gen_spectrum,
        "thermal_series": gen_thermal_series,
        "power_series": gen_power_series,
        "polarization_series": gen_polarization_series,
    }[spec.kind](spec)
