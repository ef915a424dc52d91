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

# a key with no default: a recipe must give it
REQUIRED = object()
# per generator kind: every truth key and every sampling key it reads, each
# with its default, and the noise kinds it takes
RECIPES = {
    "decay": ({"components": REQUIRED, "pulse_time": REQUIRED, "background": 0.0,
               "temperature": 4.0, "band_center": None, "band_width": None},
              {"t_start": REQUIRED, "t_end": REQUIRED, "bin_ns": REQUIRED},
              ("none", "poisson", "gaussian")),
    "spectrum": ({"zpl": (), "psb": (), "hr": None, "temperature": 4.0, "label": "synthetic"},
                 {"wl_start": REQUIRED, "wl_end": REQUIRED, "step_nm": REQUIRED},
                 ("none", "poisson", "gaussian")),
    "thermal_series": ({"tau": REQUIRED, "tau_p": REQUIRED, "e_p": REQUIRED},
                       {"temperatures": REQUIRED}, ("none", "gaussian")),
    "power_series": ({"c": REQUIRED, "k": REQUIRED}, {"powers": REQUIRED}, ("none", "gaussian")),
    "polarization_series": ({"a": REQUIRED, "b": REQUIRED, "theta0": 0.0},
                            {"angles": REQUIRED}, ("none", "gaussian")),
}
# the keys of each entry of a spectrum truth's 'psb' list, of its 'hr', and
# of each noise kind besides 'kind'
PSB_KEYS = {"i0": REQUIRED, "sigma": REQUIRED, "delta0": REQUIRED, "e_ref_nm": REQUIRED,
            "j_max": PSB_J_MAX, "doublet": None}
HR_KEYS = {"modes": REQUIRED, "zpl_energy_ev": REQUIRED, "area_nm": 1.0}
NOISE_KEYS = {"none": {}, "poisson": {}, "gaussian": {"sigma_frac": REQUIRED}}


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
# the form of every recipe value; 'label' and the noise 'kind' take any
FORMS = {
    **dict.fromkeys(("pulse_time", "background", "temperature", "band_center", "band_width",
                     "t_start", "t_end", "wl_start", "wl_end", "tau", "tau_p", "e_p",
                     "c", "k", "a", "b", "theta0",
                     "i0", "sigma", "delta0", "e_ref_nm", "zpl_energy_ev", "area_nm"), REAL),
    **dict.fromkeys(("bin_ns", "step_nm"), (lambda v: _real(v) and v > 0, "a real > 0")),
    **dict.fromkeys(("temperatures", "powers", "angles"), REALS),
    "components": (_pairs, "a list of (A, tau) pairs"),
    "modes": (_pairs, "a list of (S, homega) pairs"),
    "doublet": (lambda v: _reals(v, 2), "a (splitting, ratio) pair"),
    "j_max": (lambda v: isinstance(v, numbers.Integral), "an integer"),
    "zpl": (_zpl_rows, "a list of [label, center, fwhm, area] rows"),
    "psb": (lambda v: isinstance(v, (list, tuple)) and all(isinstance(e, dict) for e in v),
            "a list of objects"),
    "hr": (lambda v: isinstance(v, dict), "an object"),
    "sigma_frac": (lambda v: _real(v) and v >= 0, "a real >= 0"),
}


def _resolve(where, given, keys):
    """The object `given` with the default of every key of `keys` it leaves
    out; each key it gives must be one of `keys` and of its form."""
    for key, value in given.items():
        if key not in keys:
            raise ValidationError(f"{where}: unknown key {key!r}")
        test, form = FORMS.get(key, (None, None))
        if test is not None and not test(value):
            raise ValidationError(f"{key!r} must be {form}, got {value!r}")
    for key, default in keys.items():
        if default is REQUIRED and key not in given:
            raise ValidationError(f"{where} needs {key!r}")
    return {**keys, **given}


@dataclass
class GeneratorSpec:
    """Recipe for one synthetic dataset, resolved against RECIPES on
    construction: truth, sampling and noise hold every key their generator
    reads, defaults filled in, and no other.

    noise: {'kind': 'none'} | {'kind': 'poisson'} |
           {'kind': 'gaussian', 'sigma_frac': f}, as RECIPES allows per kind;
    truth parameter names match the corresponding fit-report names
    one-to-one.
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
        self.truth = _resolve(f"{self.kind} truth", self.truth, truth_keys)
        self.sampling = _resolve(f"{self.kind} sampling", self.sampling, sampling_keys)
        if self.kind == "spectrum":
            self.truth["psb"] = [_resolve("psb entry", e, PSB_KEYS) for e in self.truth["psb"]]
            if self.truth["hr"] is not None:
                self.truth["hr"] = _resolve("hr", self.truth["hr"], HR_KEYS)
        noise = self.noise.get("kind")
        if noise not in noises:
            raise ValidationError(f"{self.kind} noise must be one of {', '.join(noises)}, "
                                  f"got {noise!r}")
        self.noise = _resolve(f"{noise} noise", self.noise, {"kind": noise, **NOISE_KEYS[noise]})


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


def _noise(spec, mean):
    """`mean` with the recipe's noise: one Poisson draw per point, or one
    Gaussian draw with sd sigma_frac * |mean|; no noise returns `mean`."""
    kind = spec.noise["kind"]
    if kind == "none":
        return mean
    if kind == "poisson":
        rngs = _point_rngs(spec.seed, mean.size)
        return np.array([_sample_poisson(r, mu) for r, mu in zip(rngs, mean)], dtype=float)
    frac = spec.noise["sigma_frac"]
    draws = _gaussian_draws(spec.seed, mean, frac * np.maximum(np.abs(mean), 1e-300))
    # the kinds that take Poisson noise give counts: whole and non-negative
    return np.round(np.clip(draws, 0.0, None)) if "poisson" in RECIPES[spec.kind][2] else draws


def expected_decay(spec: GeneratorSpec):
    """Noise-free expected counts of a decay recipe; returns (t, counts)."""
    truth, samp = spec.truth, spec.sampling
    bg = float(truth["background"])
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


def _decay(spec):
    t, y = expected_decay(spec)
    truth = spec.truth
    return DecayTrace(times=t, counts=np.round(_noise(spec, y)),
                      pulse_time=float(truth["pulse_time"]), band_center=truth["band_center"],
                      band_width=truth["band_width"], temperature=truth["temperature"])


def expected_spectrum(spec: GeneratorSpec):
    """Noise-free expected counts/nm of a spectrum recipe; returns (wl, y)."""
    truth, samp = spec.truth, spec.sampling
    wl = np.arange(samp["wl_start"], samp["wl_end"] + samp["step_nm"] / 2.0,
                   samp["step_nm"], dtype=float)
    y = np.zeros(wl.shape)
    labels = [z[0] for z in truth["zpl"]]
    if len(set(labels)) != len(labels):
        raise ValidationError("duplicate ZPL labels in truth")
    for _, center, fwhm, area in truth["zpl"]:
        s = fwhm / (2.0 * math.sqrt(2.0 * math.log(2.0)))
        y += area / (s * math.sqrt(2.0 * math.pi)) * np.exp(
            -((wl - center) ** 2) / (2.0 * s**2)
        )
    # sideband series are defined on the phonon-energy axis; the Jacobian
    # hc/lambda^2 converts counts/meV to counts/nm
    for psb in truth["psb"]:
        model = PsbModel(i0=psb["i0"], sigma=psb["sigma"], delta0=psb["delta0"],
                         j_max=psb["j_max"], doublet=psb["doublet"])
        e_ref = EV_NM_MEV / psb["e_ref_nm"]
        delta = e_ref - EV_NM_MEV / wl
        y += psb_eval(model, delta) * EV_NM_MEV / wl**2
    hr = truth["hr"]
    if hr is not None:
        model = HRModel(modes=tuple(hr["modes"]), zpl_energy=hr["zpl_energy_ev"])
        e_nodes = EV_NM / wl
        step_ev = 0.25e-3
        grid = np.arange(e_nodes.min() - step_ev, e_nodes.max() + step_ev, step_ev)
        mass = hr_lineshape(model, grid)
        dens_ev = mass / step_ev
        dens_at = np.interp(e_nodes, grid, dens_ev)
        y += hr["area_nm"] * dens_at * EV_NM / wl**2
    return wl, y


def _spectrum(spec):
    wl, y = expected_spectrum(spec)
    return Spectrum(wavelengths=wl, intensities=_noise(spec, y),
                    temperature=float(spec.truth["temperature"]), label=spec.truth["label"])


def _thermal_series(spec):
    """(T, tau_tot, sigma) triples from the thermally activated decay model."""
    truth = spec.truth
    temps = np.asarray(spec.sampling["temperatures"], dtype=float)
    if np.any(temps <= 0):
        raise ValidationError("temperatures must be positive")
    tau_tot = thermal_lifetime(temps, truth["tau"], truth["tau_p"], truth["e_p"])
    frac = spec.noise["sigma_frac"] if spec.noise["kind"] == "gaussian" else 1e-9
    return [(float(T), float(v), float(s))
            for T, v, s in zip(temps, _noise(spec, tau_tot), frac * tau_tot)]


def _power_series(spec):
    """(power_mW, intensity) pairs from I = c * P^k."""
    powers = np.asarray(spec.sampling["powers"], dtype=float)
    ideal = spec.truth["c"] * powers ** spec.truth["k"]
    return list(zip(powers.tolist(), _noise(spec, ideal).tolist()))


def _polarization_series(spec):
    """(angle_deg, intensity) pairs from I = a + b cos^2(theta - theta0)."""
    angles = np.asarray(spec.sampling["angles"], dtype=float)
    a, b, t0 = spec.truth["a"], spec.truth["b"], spec.truth["theta0"]
    ideal = a + b * np.cos(np.radians(angles - t0)) ** 2
    return list(zip(angles.tolist(), _noise(spec, ideal).tolist()))


def generate(spec: GeneratorSpec):
    """The dataset a recipe describes: a DecayTrace, a Spectrum, or for the
    series kinds a list of rows."""
    return {
        "decay": _decay,
        "spectrum": _spectrum,
        "thermal_series": _thermal_series,
        "power_series": _power_series,
        "polarization_series": _polarization_series,
    }[spec.kind](spec)
