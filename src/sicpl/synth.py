"""Deterministic, seedable generators of synthetic traces, spectra and
fit-input series from known truth parameters.

These are the independent oracles for every round-trip fit test: a fixed
GeneratorSpec produces byte-identical output, and noiseless output fed to
the corresponding fitter must return the truth parameters.

Noise comes from one `numpy.random.default_rng(seed)` stream drawn in
point order: exact Poisson draws (`Generator.poisson`) for the counts of
a trace or spectrum, normal draws (`standard_normal`) for a thermal
series. For a fixed recipe and numpy version the output is byte-identical,
and a longer sampling reproduces the shared prefix.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .constants import EV_NM, MAX_GRID_POINTS
from .datatypes import DecayTrace, Spectrum
from .decay import decay_counts, thermal_lifetime
from .errors import ValidationError
from .spectrum import (EV_NM_MEV, FWHM_PER_SIGMA, PSB_J_MAX, HRModel, PsbModel, hr_lineshape,
                       psb_eval)

# a key with no default: a recipe must give it
REQUIRED = object()
# per generator kind: every truth key and every sampling key it reads, each
# with its default, and the noise kinds it takes. A spectrum's 'temperature'
# is range-checked and read by nothing; it stays because the benchmark's
# spectrum recipes give it
RECIPES = {
    "decay": ({"components": REQUIRED, "pulse_time": REQUIRED, "background": 0.0,
               "temperature": 4.0},
              {"t_start": REQUIRED, "t_end": REQUIRED, "bin_ns": REQUIRED},
              ("none", "poisson")),
    "spectrum": ({"zpl": (), "psb": (), "hr": None, "temperature": 4.0},
                 {"wl_start": REQUIRED, "wl_end": REQUIRED, "step_nm": REQUIRED},
                 ("none", "poisson")),
    "thermal_series": ({"tau": REQUIRED, "tau_p": REQUIRED, "e_p": REQUIRED},
                       {"temperatures": REQUIRED}, ("none", "gaussian")),
}
# the keys of each entry of a spectrum truth's 'psb' list, of its 'hr', and
# of each noise kind besides 'kind'
PSB_KEYS = {"i0": REQUIRED, "sigma": REQUIRED, "delta0": REQUIRED, "e_ref_nm": REQUIRED,
            "j_max": PSB_J_MAX, "doublet": None}
HR_KEYS = {"modes": REQUIRED, "zpl_energy_ev": REQUIRED, "area_nm": 1.0}
NOISE_KEYS = {"none": {}, "poisson": {}, "gaussian": {"sigma_frac": REQUIRED}}


# a JSON true or false is a Python bool, which numbers.Integral (and so
# numbers.Real) accepts; neither form takes it
def _real(value):
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _integer(value):
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _reals(value, n=None):
    return (isinstance(value, (list, tuple, np.ndarray)) and all(map(_real, value))
            and n in (None, len(value)))


def _pairs(value):
    return isinstance(value, (list, tuple)) and all(_reals(v, 2) for v in value)


def _zpl_rows(value):
    return isinstance(value, (list, tuple)) and all(
        isinstance(row, (list, tuple)) and len(row) == 4 and _reals(row[1:])
        and row[2] > 0 and row[3] >= 0 for row in value)


# the form of every recipe value; the noise 'kind' takes any
FORMS = {
    **dict.fromkeys(("pulse_time", "background", "t_start", "t_end",
                     "wl_start", "wl_end", "tau", "tau_p", "e_p", "i0", "sigma", "delta0"),
                    (_real, "a real number")),
    **dict.fromkeys(("bin_ns", "step_nm", "e_ref_nm", "zpl_energy_ev"),
                    (lambda v: _real(v) and v > 0, "a real > 0")),
    "temperature": (lambda v: _real(v) and 0 < v < math.inf, "a finite real > 0"),
    "temperatures": (lambda v: _reals(v) and all(0 < t < math.inf for t in v),
                     "a list of finite reals > 0"),
    "components": (_pairs, "a list of (A, tau) pairs"),
    "modes": (_pairs, "a list of (S, homega) pairs"),
    "doublet": (lambda v: _reals(v, 2), "a (splitting, ratio) pair"),
    "j_max": (_integer, "an integer"),
    "zpl": (_zpl_rows, "a list of [label, center, fwhm > 0, area >= 0] rows"),
    "psb": (lambda v: isinstance(v, (list, tuple)) and all(isinstance(e, dict) for e in v),
            "a list of objects"),
    "hr": (lambda v: isinstance(v, dict), "an object"),
    **dict.fromkeys(("sigma_frac", "area_nm"), (lambda v: _real(v) and v >= 0, "a real >= 0")),
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

    noise: {'kind': 'none'}, {'kind': 'poisson'} (decay, spectrum) or
           {'kind': 'gaussian', 'sigma_frac': f} (thermal_series);
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
        if not _integer(self.seed) or not 0 <= self.seed < 2**64:
            raise ValidationError(f"'seed' must be an integer in [0, 2**64), got {self.seed!r}")
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


def _noise(spec, mean):
    """`mean` with the recipe's noise: one exact Poisson draw per point, or
    one Gaussian draw with sd sigma_frac * |mean|; no noise returns `mean`.

    The draws come from one `default_rng(seed)` stream, taken in point
    order, so a point's draw depends only on the seed and the points before
    it: a longer sampling reproduces the shared prefix."""
    kind = spec.noise["kind"]
    if kind == "none":
        return mean
    if not np.all(np.isfinite(mean)):
        raise ValidationError("the noise-free values are not all finite")
    rng = np.random.default_rng(spec.seed)
    if kind == "poisson":
        try:
            return rng.poisson(np.maximum(mean, 0.0)).astype(float)
        except ValueError:  # numpy refuses rates above about 9.22e18
            raise ValidationError(f"a Poisson rate of {mean.max():.3g} is too large "
                                  "to draw") from None
    return mean + spec.noise["sigma_frac"] * np.abs(mean) * rng.standard_normal(mean.shape)


def _grid(start, stop, step):
    """np.arange(start, stop, step), refused before it is allocated if it
    would hold more than MAX_GRID_POINTS points."""
    n = (stop - start) / step
    if not n <= MAX_GRID_POINTS:
        raise ValidationError(f"sampling gives a grid of {n:.3g} points, "
                              f"more than {MAX_GRID_POINTS:.0e}")
    return np.arange(start, stop, step, dtype=float)


def expected_decay(spec: GeneratorSpec):
    """Noise-free expected counts of a decay recipe; returns (t, counts)."""
    truth, samp = spec.truth, spec.sampling
    bg = float(truth["background"])
    comps = truth["components"]
    pulse = float(truth["pulse_time"])
    if bg < 0 or any(a < 0 or tau <= 0 for a, tau in comps):
        raise ValidationError("invalid decay truth: need background >= 0, A >= 0, tau > 0")
    t = _grid(samp["t_start"], samp["t_end"] + samp["bin_ns"] / 2.0, samp["bin_ns"])
    return t, decay_counts(t, pulse, bg, comps)


def _decay(spec):
    t, y = expected_decay(spec)
    truth = spec.truth
    return DecayTrace(times=t, counts=np.round(_noise(spec, y)),
                      pulse_time=float(truth["pulse_time"]), temperature=truth["temperature"])


def expected_spectrum(spec: GeneratorSpec):
    """Noise-free expected counts/nm of a spectrum recipe; returns (wl, y)."""
    truth, samp = spec.truth, spec.sampling
    wl = _grid(samp["wl_start"], samp["wl_end"] + samp["step_nm"] / 2.0, samp["step_nm"])
    y = np.zeros(wl.shape)
    labels = [z[0] for z in truth["zpl"]]
    if len(set(labels)) != len(labels):
        raise ValidationError("duplicate ZPL labels in truth")
    for _, center, fwhm, area in truth["zpl"]:
        s = fwhm / FWHM_PER_SIGMA
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
        grid = _grid(e_nodes.min() - step_ev, e_nodes.max() + step_ev, step_ev)
        mass = hr_lineshape(model, grid)
        dens_ev = mass / step_ev
        dens_at = np.interp(e_nodes, grid, dens_ev)
        y += hr["area_nm"] * dens_at * EV_NM / wl**2
    return wl, y


def _spectrum(spec):
    wl, y = expected_spectrum(spec)
    return Spectrum(wavelengths=wl, intensities=_noise(spec, y))


def _thermal_series(spec):
    """(T, tau_tot, sigma) triples from the thermally activated decay model."""
    truth = spec.truth
    if not (truth["tau"] > 0 and truth["tau_p"] > 0 and truth["e_p"] >= 0):
        raise ValidationError("invalid thermal truth: need tau > 0, tau_p > 0, e_p >= 0")
    temps = np.asarray(spec.sampling["temperatures"], dtype=float)
    tau_tot = thermal_lifetime(temps, truth["tau"], truth["tau_p"], truth["e_p"])
    frac = spec.noise["sigma_frac"] if spec.noise["kind"] == "gaussian" else 1e-9
    return [(float(T), float(v), float(s))
            for T, v, s in zip(temps, _noise(spec, tau_tot), frac * tau_tot)]


def generate(spec: GeneratorSpec):
    """The dataset a recipe describes: a DecayTrace, a Spectrum, or for a
    thermal series a list of rows."""
    return {
        "decay": _decay,
        "spectrum": _spectrum,
        "thermal_series": _thermal_series,
    }[spec.kind](spec)
