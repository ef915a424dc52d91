"""Core immutable data types shared by all analysis modules.

Conventions: vacuum wavelengths in nm, times in ns, temperatures in K,
intensities in (unitless) detector counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class Spectrum:
    """A wavelength-indexed intensity record and its temperature in K.

    wavelengths are strictly increasing, positive vacuum values in nm;
    intensities are finite, non-negative counts.
    """

    wavelengths: np.ndarray
    intensities: np.ndarray
    temperature: float

    def __post_init__(self):
        wl = np.asarray(self.wavelengths, dtype=float)
        it = np.asarray(self.intensities, dtype=float)
        if wl.ndim != 1 or it.shape != wl.shape:
            raise ValidationError("wavelengths and intensities must be 1-D and equal length")
        if wl.size < 2:
            raise ValidationError("spectrum needs at least 2 points")
        if not np.all(np.isfinite(wl)):
            raise ValidationError("non-finite wavelength")
        if np.any(np.diff(wl) <= 0):
            raise ValidationError("wavelengths must be strictly increasing")
        if wl[0] <= 0:
            raise ValidationError(f"wavelengths must be > 0 nm, got {wl[0]}")
        if not np.all(np.isfinite(it)):
            raise ValidationError("non-finite intensity")
        if np.any(it < 0):
            raise ValidationError("negative intensity")
        if not (self.temperature > 0):
            raise ValidationError(f"temperature must be > 0 K, got {self.temperature}")
        wl.setflags(write=False)
        it.setflags(write=False)
        object.__setattr__(self, "wavelengths", wl)
        object.__setattr__(self, "intensities", it)


@dataclass(frozen=True)
class DecayTrace:
    """Time-binned photon counts around an excitation pulse.

    times are strictly increasing with uniform bin width (1e-6 relative
    tolerance); counts are non-negative integers. pulse_time is finite,
    and at least 10 bins must precede it to serve as the background
    window. temperature is None or finite and > 0 K.
    """

    times: np.ndarray
    counts: np.ndarray
    pulse_time: float
    temperature: float | None = None

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        c = np.asarray(self.counts, dtype=float)
        if t.ndim != 1 or c.shape != t.shape:
            raise ValidationError("times and counts must be 1-D and equal length")
        if t.size < 2:
            raise ValidationError("trace needs at least 2 bins")
        if not np.all(np.isfinite(t)):
            raise ValidationError("non-finite time")
        dt = np.diff(t)
        if np.any(dt <= 0):
            raise ValidationError("times must be strictly increasing")
        width = dt[0]
        if np.any(np.abs(dt - width) > 1e-6 * width):
            raise ValidationError("non-uniform bin width")
        if not np.all(np.isfinite(c)):
            raise ValidationError("non-finite counts")
        if np.any(c < 0):
            raise ValidationError("negative counts")
        if np.any(np.abs(c - np.round(c)) > 1e-9 * np.maximum(c, 1)):
            raise ValidationError("counts must be integer-valued")
        if not np.isfinite(self.pulse_time):
            raise ValidationError(f"pulse_time must be finite, got {self.pulse_time}")
        if self.temperature is not None and not (0 < self.temperature < np.inf):
            raise ValidationError(f"temperature must be > 0 K, got {self.temperature}")
        if np.count_nonzero(t < self.pulse_time) < 10:
            raise ValidationError("need at least 10 bins before pulse_time")
        t.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "counts", c)

    @property
    def bin_width(self) -> float:
        return float(self.times[1] - self.times[0])
