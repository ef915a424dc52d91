"""File ingestion: delimited text tables with '#' comments, a sidecar
key-value metadata format and JSON documents.

Table fields are split on commas or whitespace, in any mix; lab CSVs are
rarely consistent.
"""

from __future__ import annotations

import json
import os
from itertools import chain

import numpy as np

from .datatypes import DecayTrace, Spectrum
from .errors import ParseError, ValidationError

SIDECAR_KEYS = {
    "temperature_K",
    "power_mW",
    "band_center_nm",
    "band_width_nm",
    "pulse_time_ns",
    "polarization_deg",
    "label",
}


def _read_text(path) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not a text file ({exc.reason} at byte {exc.start})") from None


def _lines(path):
    """The lines of a text file with their '#' comments removed; item i is
    line i + 1."""
    return [line.partition("#")[0] for line in _read_text(path).split("\n")]


def read_table(path, columns: str, labelled: bool = False):
    """Read a text table whose columns are named by `columns`, e.g.
    "T_K tau_ns sigma_ns", into an (n, k) float array. Blank lines are
    skipped.

    With `labelled`, the first column is a text label and the result is
    (labels, values) with the remaining columns as values. A missing
    file, a wrong column count, a non-numeric field or an empty table
    raises ParseError naming the file and, for a bad row, its line.
    """
    names = columns.split()
    rows = [line.replace(",", " ").split() for line in _lines(path)]
    data = [fields for fields in rows if fields]
    if not data:
        raise ParseError(f"{path}: no data rows")
    numeric = [fields[1:] for fields in data] if labelled else data
    try:
        if set(map(len, data)) != {len(names)}:
            raise ValueError("ragged table")
        values = np.fromiter(map(float, chain.from_iterable(numeric)), dtype=float)
    except ValueError:
        # converting all rows at once is the fast path; only when it
        # fails is each row checked, to name the first bad line
        for lineno, fields in enumerate(rows, start=1):
            if fields and len(fields) != len(names):
                raise ParseError(f"{path}:{lineno}: expected {len(names)} columns "
                                 f"({columns}), got {len(fields)}") from None
            try:
                [float(v) for v in fields[1 if labelled else 0:]]
            except ValueError:
                raise ParseError(f"{path}:{lineno}: non-numeric value in "
                                 f"{' '.join(fields)!r}") from None
        raise
    values = values.reshape(len(data), -1)
    return ([fields[0] for fields in data], values) if labelled else values


def read_json(path) -> dict:
    """Read a JSON object; ParseError names the file if it is missing or
    is not a JSON object."""
    try:
        data = json.loads(_read_text(path))
    except ValueError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(data, dict):
        raise ParseError(f"{path}: expected a JSON object")
    return data


def load_sidecar(path) -> dict:
    """Read a `key = value` metadata file (documented schema keys only)."""
    meta = {}
    for lineno, line in enumerate(_lines(path), start=1):
        if not line.strip():
            continue
        key, sep, val = (s.strip() for s in line.partition("="))
        if not sep:
            raise ParseError(f"{path}:{lineno}: expected key = value")
        if key not in SIDECAR_KEYS:
            raise ParseError(f"{path}:{lineno}: unknown metadata key {key!r}")
        try:
            meta[key] = val if key == "label" else float(val)
        except ValueError:
            raise ParseError(f"{path}:{lineno}: non-numeric value {val!r} for {key}") from None
    return meta


def load_spectrum(path, metadata: dict | None = None) -> Spectrum:
    """Load a (wavelength_nm, counts) file into a validated Spectrum.

    Rows are sorted by wavelength if needed; exact duplicate wavelengths
    are rejected.
    """
    meta = dict(metadata or {})
    data = read_table(path, "wavelength_nm counts")
    wl, it = data[np.argsort(data[:, 0], kind="stable")].T.copy()
    if np.any(np.diff(wl) == 0):
        raise ValidationError(f"{path}: duplicate wavelength values")
    return Spectrum(
        wavelengths=wl,
        intensities=it,
        temperature=float(meta.get("temperature_K", 4.0)),
        excitation_power=_opt(meta, "power_mW"),
        polarization_angle=_opt(meta, "polarization_deg"),
        label=str(meta.get("label", os.path.basename(str(path)))),
    )


def load_trace(path, metadata: dict | None = None) -> DecayTrace:
    """Load a (time_ns, counts) file into a validated DecayTrace.

    pulse_time_ns is required metadata (CLI flag or sidecar file).
    """
    meta = dict(metadata or {})
    if "pulse_time_ns" not in meta:
        raise ValidationError(f"{path}: pulse_time_ns metadata is required for traces")
    t, c = read_table(path, "time_ns counts").T.copy()
    return DecayTrace(
        times=t,
        counts=c,
        pulse_time=float(meta["pulse_time_ns"]),
        band_center=_opt(meta, "band_center_nm"),
        band_width=_opt(meta, "band_width_nm"),
        temperature=_opt(meta, "temperature_K"),
    )


def save_two_column(path, x, y, header: str = "") -> None:
    """Write two-column text, 9 significant digits (round-trip safe)."""
    with open(path, "w") as fh:
        if header:
            for line in header.splitlines():
                fh.write(f"# {line}\n")
        for xi, yi in zip(np.asarray(x), np.asarray(y)):
            fh.write(f"{xi:.9g} {yi:.9g}\n")


def _opt(meta, key):
    return float(meta[key]) if key in meta else None
