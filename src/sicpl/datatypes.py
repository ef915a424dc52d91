"""Core immutable data types shared by all analysis modules.

Conventions: vacuum wavelengths in nm, times in ns, temperatures in K,
intensities in (unitless) detector counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


def _record(x, y, x_name, y_name):
    """x and y as read-only float arrays, checked against the rules every
    record states: 1-D and of equal length with at least 2 points, x
    finite and strictly increasing, y finite and non-negative."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or y.shape != x.shape:
        raise ValidationError(f"{x_name} and {y_name} arrays must be 1-D and equal length")
    if x.size < 2:
        raise ValidationError("need at least 2 points")
    if not np.all(np.isfinite(x)):
        raise ValidationError(f"non-finite {x_name}")
    if np.any(np.diff(x) <= 0):
        raise ValidationError(f"{x_name}s must be strictly increasing")
    if not np.all(np.isfinite(y)):
        raise ValidationError(f"non-finite {y_name}")
    if np.any(y < 0):
        raise ValidationError(f"negative {y_name}")
    x.setflags(write=False)
    y.setflags(write=False)
    return x, y


def _check_temperature(temperature):
    if not (0 < temperature < np.inf):
        raise ValidationError(f"temperature must be > 0 K, got {temperature}")


@dataclass(frozen=True)
class Spectrum:
    """A wavelength-indexed intensity record and its temperature in K.

    wavelengths are strictly increasing, positive vacuum values in nm;
    intensities are finite, non-negative counts; the temperature is None
    (a spectrum read from a file carries none) or finite and > 0 K.
    """

    wavelengths: np.ndarray
    intensities: np.ndarray
    temperature: float | None = None

    def __post_init__(self):
        wl, it = _record(self.wavelengths, self.intensities, "wavelength", "intensity")
        if wl[0] <= 0:
            raise ValidationError(f"wavelengths must be > 0 nm, got {wl[0]}")
        if self.temperature is not None:
            _check_temperature(self.temperature)
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
        t, c = _record(self.times, self.counts, "time", "counts")
        dt = np.diff(t)
        if np.any(np.abs(dt - dt[0]) > 1e-6 * dt[0]):
            raise ValidationError("non-uniform bin width")
        if np.any(np.abs(c - np.round(c)) > 1e-9 * np.maximum(c, 1)):
            raise ValidationError("counts must be integer-valued")
        if not np.isfinite(self.pulse_time):
            raise ValidationError(f"pulse_time must be finite, got {self.pulse_time}")
        if self.temperature is not None:
            _check_temperature(self.temperature)
        if np.count_nonzero(t < self.pulse_time) < 10:
            raise ValidationError("need at least 10 bins before pulse_time")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "counts", c)

    @property
    def bin_width(self) -> float:
        return float(self.times[1] - self.times[0])
