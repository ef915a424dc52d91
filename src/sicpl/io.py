"""File ingestion: delimited text tables with '#' comments, a sidecar
key-value metadata format and JSON documents; and `format_table`, the
writer of every numeric text table.

Table fields are split on commas or whitespace, in any mix; lab CSVs are
rarely consistent.
"""

from __future__ import annotations

import json
import warnings
from io import StringIO
from itertools import chain

import numpy as np

from .datatypes import DecayTrace, Spectrum
from .errors import ValidationError

# the keys a sidecar may hold. Only fit-decay reads a sidecar:
# pulse_time_ns sets the pulse and temperature_K is stored on the trace,
# which no report reads yet; the others (lab sidecars carry them) are
# information only
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
        raise ValidationError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not a text file "
                              f"({exc.reason} at byte {exc.start})") from None


def _lines(text):
    """The lines of a text with their '#' comments removed; item i is
    line i + 1."""
    return [line.partition("#")[0] for line in text.split("\n")]


def read_table(path, columns: str, labelled: bool = False):
    """Read a text table whose columns are named by `columns`, e.g.
    "T_K tau_ns sigma_ns", into an (n, k) float array. Blank lines are
    skipped.

    With `labelled`, the first column is a text label and the result is
    (labels, values) with the remaining columns as values. A missing
    file, a wrong column count, a non-numeric field or an empty table
    raises ValidationError naming the file and, for a bad row, its line.
    """
    names = columns.split()
    text = _read_text(path)
    if not labelled:
        # numpy's C reader is the fast path. It warns, not raises, on an
        # empty table, and it refuses some fields float() reads (1_000);
        # what it refuses or reads with another column count goes through
        # the per-line code below, which gives the same values or names
        # the first bad line.
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                values = np.loadtxt(StringIO(text.replace(",", " ")), ndmin=2)
        except (ValueError, Warning):
            pass
        else:
            if values.shape[1] == len(names):
                return values
    rows = [line.replace(",", " ").split() for line in _lines(text)]
    data = [fields for fields in rows if fields]
    if not data:
        raise ValidationError(f"{path}: no data rows")
    numeric = [fields[1:] for fields in data] if labelled else data
    try:
        if set(map(len, data)) != {len(names)}:
            raise ValueError("ragged table")
        values = np.fromiter(map(float, chain.from_iterable(numeric)), dtype=float)
    except ValueError:
        # all rows are converted at once; only when that fails is each
        # row checked, to name the first bad line
        for lineno, fields in enumerate(rows, start=1):
            if fields and len(fields) != len(names):
                raise ValidationError(f"{path}:{lineno}: expected {len(names)} columns "
                                      f"({columns}), got {len(fields)}") from None
            try:
                [float(v) for v in fields[1 if labelled else 0:]]
            except ValueError:
                raise ValidationError(f"{path}:{lineno}: non-numeric value in "
                                      f"{' '.join(fields)!r}") from None
        raise
    values = values.reshape(len(data), -1)
    return ([fields[0] for fields in data], values) if labelled else values


def _json_int(text):
    """int(text); OverflowError when no float can hold it, a size no input takes."""
    value = int(text)
    float(value)
    return value


def read_json(path) -> dict:
    """Read a JSON object; ValidationError names the file if it is missing,
    is not a JSON object or holds an integer too large for a float."""
    try:
        data = json.loads(_read_text(path), parse_int=_json_int)
    except (ValueError, OverflowError) as exc:
        raise ValidationError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: expected a JSON object")
    return data


def load_sidecar(path) -> dict:
    """Read a `key = value` metadata file (documented schema keys only)."""
    meta = {}
    for lineno, line in enumerate(_lines(_read_text(path)), start=1):
        if not line.strip():
            continue
        key, sep, val = (s.strip() for s in line.partition("="))
        if not sep:
            raise ValidationError(f"{path}:{lineno}: expected key = value")
        if key not in SIDECAR_KEYS:
            raise ValidationError(f"{path}:{lineno}: unknown metadata key {key!r}")
        try:
            meta[key] = val if key == "label" else float(val)
        except ValueError:
            raise ValidationError(f"{path}:{lineno}: non-numeric value {val!r} "
                                  f"for {key}") from None
    return meta


def load_spectrum(path) -> Spectrum:
    """Load a (wavelength_nm, counts) file into a validated Spectrum with
    no temperature.

    Rows are sorted by wavelength if needed; exact duplicate wavelengths
    are rejected.
    """
    data = read_table(path, "wavelength_nm counts")
    wl, it = data[np.argsort(data[:, 0], kind="stable")].T.copy()
    if np.any(np.diff(wl) == 0):
        raise ValidationError(f"{path}: duplicate wavelength values")
    try:
        return Spectrum(wavelengths=wl, intensities=it)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def load_trace(path, metadata: dict | None = None) -> DecayTrace:
    """Load a (time_ns, counts) file into a validated DecayTrace.

    pulse_time_ns is required metadata (CLI flag or sidecar file).
    """
    meta = dict(metadata or {})
    if "pulse_time_ns" not in meta:
        raise ValidationError(f"{path}: pulse_time_ns metadata is required for traces")
    t, c = read_table(path, "time_ns counts").T.copy()
    try:
        return DecayTrace(
            times=t,
            counts=c,
            pulse_time=float(meta["pulse_time_ns"]),
            temperature=float(meta["temperature_K"]) if "temperature_K" in meta else None,
        )
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def _column(values):
    """A column's printf field and its values as Python numbers: %d from
    int64 for a whole-number column (the rule is in `save_two_column`),
    %.9g for any other."""
    a = np.asarray(values)
    f = a.astype(float)
    if np.all((np.abs(f) < 1e9) & (f == np.trunc(f)) & ~((f == 0) & np.signbit(f))):
        return "%d", a.astype(np.int64).tolist()
    return "%.9g", a.tolist()


def format_table(columns, header: str = "") -> str:
    """Text of a numeric table: one '# ' line per header line, then one
    row per index of the equal-length `columns`, fields separated by a
    space, 9 significant digits (round-trip safe).

    All rows are formatted by one `%` operation over the interleaved
    columns; a whole-number column is printed as integers, byte for byte
    what %.9g prints for it (see `save_two_column`).
    """
    lengths = [len(c) for c in columns]
    if len(set(lengths)) > 1:
        raise ValidationError("table columns differ in length: "
                              + ", ".join(map(str, lengths)))
    fields, values = zip(*map(_column, columns))
    # interleave by slice assignment into a list of the final size: faster
    # than a tuple grown from zip(*values)
    flat = [None] * (len(values) * lengths[0])
    for i, column in enumerate(values):
        flat[i::len(values)] = column
    # bytes, not str: `%` grows a str result by reallocation, which left
    # peak RSS ~1 MB higher over repeated simulate runs (glibc malloc)
    row = (" ".join(fields) + "\n").encode()
    return ("".join(f"# {line}\n" for line in header.splitlines())
            + ((row * lengths[0]) % tuple(flat)).decode())


def save_two_column(path, x, y, header: str = "") -> None:
    """Write x and y as a two-column table (`format_table`), 9 significant
    digits (round-trip safe).

    A column whose values are all whole numbers with |v| < 1e9, none of
    them -0.0, is printed with %d: those are the digits %.9g prints, and
    1e9 is where %.9g turns to exponent form. Poisson counts and times on
    a whole-ns grid are such columns. x and y of different lengths raise
    ValidationError naming both, before the file is opened.
    """
    text = format_table((x, y), header)
    with open(path, "w") as fh:
        fh.write(text)
