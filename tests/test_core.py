"""Data types and file ingestion."""

import os
import re
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sicpl.datatypes import DecayTrace, Spectrum
from sicpl.errors import ValidationError
from sicpl.io import (_column, load_sidecar, load_spectrum, load_trace, read_table,
                      save_two_column)


def test_spectrum_validation():
    wl = np.linspace(1250.0, 1350.0, 50)
    it = np.ones(50)
    sp = Spectrum(wavelengths=wl, intensities=it)
    assert not sp.wavelengths.flags.writeable
    with pytest.raises(ValidationError):
        Spectrum(wavelengths=wl[::-1], intensities=it)
    with pytest.raises(ValidationError, match="> 0 nm"):
        Spectrum(wavelengths=wl - 1300.0, intensities=it)
    with pytest.raises(ValidationError):
        Spectrum(wavelengths=wl, intensities=-it)
    bad = it.copy()
    bad[3] = np.nan
    with pytest.raises(ValidationError):
        Spectrum(wavelengths=wl, intensities=bad)


def test_trace_temperature_must_be_finite_and_positive():
    t = np.arange(0.0, 20.0)
    for bad in (0.0, -5.0, np.inf, np.nan):
        with pytest.raises(ValidationError) as err:
            DecayTrace(times=t, counts=np.ones(20), pulse_time=15.0, temperature=bad)
        assert str(err.value) == f"temperature must be > 0 K, got {bad}"


def test_trace_validation():
    t = np.arange(0.0, 200.0, 1.0)
    c = np.full(t.shape, 7.0)
    tr = DecayTrace(times=t, counts=c, pulse_time=50.0)
    assert tr.bin_width == 1.0
    with pytest.raises(ValidationError):
        DecayTrace(times=t, counts=c + 0.5, pulse_time=50.0)  # non-integer
    with pytest.raises(ValidationError):
        DecayTrace(times=t, counts=c, pulse_time=5.0)  # < 10 baseline bins
    tt = t.copy()
    tt[10] += 0.4
    with pytest.raises(ValidationError):
        DecayTrace(times=tt, counts=c, pulse_time=50.0)  # non-uniform


# ---------------------------------------------------------------------------
# file ingestion


def test_load_spectrum_delimiters(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("# header comment\n1300, 5\n1301\t6\n1302 7  # trailing\n")
    sp = load_spectrum(p)
    assert list(sp.intensities) == [5.0, 6.0, 7.0]


def test_load_spectrum_sorts_and_rejects_duplicates(tmp_path):
    p = tmp_path / "s.txt"
    p.write_text("1302 7\n1300 5\n1301 6\n")
    sp = load_spectrum(p)
    assert list(sp.wavelengths) == [1300.0, 1301.0, 1302.0]
    p.write_text("1300 5\n1300 6\n")
    with pytest.raises(ValidationError):
        load_spectrum(p)


def test_parse_error_carries_location(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("1300 5\n1301 oops\n")
    with pytest.raises(ValidationError, match="bad.txt:2: non-numeric value"):
        load_spectrum(p)
    p.write_text("1300 5 9\n")
    with pytest.raises(ValidationError, match="bad.txt:1: expected 2 columns"):
        load_spectrum(p)


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=9),
       st.sampled_from(["abc", "1.2.3", "--", "1e", "nan nan nan"]))
def test_corrupted_line_always_raises_parse_error(tmp_path_factory, row, junk):
    # corruption anywhere in the file must be reported, never silently
    # skipped or coerced
    p = tmp_path_factory.mktemp("corr") / "t.txt"
    lines = [f"{1300 + i} {10 + i}" for i in range(10)]
    lines[row] = junk
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError, match=rf"t\.txt:{row + 1}: "):
        load_spectrum(p)


def _reference_table(path, text, columns):
    # line by line, as documented: universal newlines, '#' comments,
    # fields split on commas or whitespace, float() per field
    names = columns.split()
    rows = []
    for lineno, line in enumerate(re.split(r"\r\n|\r|\n", text), start=1):
        fields = line.partition("#")[0].replace(",", " ").split()
        if not fields:
            continue
        if len(fields) != len(names):
            raise ValidationError(f"{path}:{lineno}: expected {len(names)} columns "
                                  f"({columns}), got {len(fields)}")
        try:
            rows.append([float(v) for v in fields])
        except ValueError:
            raise ValidationError(f"{path}:{lineno}: non-numeric value in "
                                  f"{' '.join(fields)!r}") from None
    if not rows:
        raise ValidationError(f"{path}: no data rows")
    return np.array(rows)


def _check_table(path, text, columns="x_nm counts"):
    """read_table gives the reference's values bit for bit, or its error,
    whether warnings are errors or ignored."""
    with open(path, "w", newline="") as fh:
        fh.write(text)
    try:
        want, error = _reference_table(path, text, columns), None
    except ValidationError as exc:
        want, error = None, str(exc)
    for action in ("error", "ignore"):
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            if error is not None:
                with pytest.raises(ValidationError) as err:
                    read_table(path, columns)
                assert str(err.value) == error
                continue
            got = read_table(path, columns)
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("text", [
    "1 2\r\n3 4\r\n",
    "1 2\r3 4\r",
    "1 2\r3 4 5\n",
    "# only a comment\n",
    "",
    "\n \n,\n",
    "1 2\n3\n",
    "1 2 3\n",
    "1_000 2\n",
    "0x1p3 2\n",
    "1e400 -1e400\n1e-400 2\n",
    "nan -inf\nInfinity -nan\n",
    "1\u00a02\n",
    "1 2\u20283 4\n",
    "1 2\u2028\n",
    "\"1\" 2\n",
    "'1' '2'\n",
    "1,2,\n,3,,4\n",
    "1 2 # 3 4\n#\n5\t6",
    "\ufeff1 2\n",
    "1 2\x0c\n3\x0b4\n",
    "\u0661 2\n",
    "1d5 2\n",
])
@pytest.mark.parametrize("columns", ["counts", "x_nm counts"])
def test_read_table_edge_cases(tmp_path, text, columns):
    _check_table(tmp_path / "t.txt", text, columns)


_NUMBER = st.one_of(st.floats(allow_nan=False, width=64).map(repr),
                    st.integers(-10**20, 10**20).map(str),
                    st.sampled_from(["nan", "-inf", "1e400", "-0", ".5", "5."]))
_ODD = st.sampled_from(["1_000", "0x1p3", "abc", "1.2.3", "--", "1e", "\u00a0", '"5"'])


@st.composite
def _tables(draw):
    columns = draw(st.sampled_from(["counts", "x_nm counts", "T_K tau_ns sigma_ns"]))
    k = len(columns.split())
    lines = []
    for _ in range(draw(st.integers(1, 8))):
        # mostly well-formed rows, so that numpy's reader takes many tables
        n = draw(st.sampled_from([k] * 12 + [0, k - 1, k + 1]))
        tokens = [draw(_ODD if draw(st.integers(0, 29)) == 0 else _NUMBER)
                  for _ in range(n)]
        seps = [draw(st.sampled_from([" ", "\t", ",", ", ", " \t", ",,"])) for _ in tokens]
        lead = draw(st.sampled_from(["", " ", "\t", ","]))
        comment = draw(st.sampled_from(["", "", " # note, 1 2", "#"]))
        end = draw(st.sampled_from(["\n", "\r\n"]))
        lines.append(lead + "".join(sep + tok for sep, tok in zip(["", *seps[1:]], tokens))
                     + comment + end)
    return "".join(lines), columns


@settings(max_examples=300, deadline=None)
@given(_tables())
def test_read_table_matches_line_by_line_reference(tmp_path_factory, table):
    text, columns = table
    _check_table(tmp_path_factory.mktemp("tab") / "t.txt", text, columns)


def test_load_trace_requires_pulse_metadata(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text("\n".join(f"{i} 5" for i in range(30)) + "\n")
    with pytest.raises(ValidationError):
        load_trace(p)
    tr = load_trace(p, {"pulse_time_ns": 15.0})
    assert tr.pulse_time == 15.0


def test_sidecar_schema(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("temperature_K = 4\npulse_time_ns = 100 # ok\nlabel = run7\n")
    meta = load_sidecar(p)
    assert meta == {"temperature_K": 4.0, "pulse_time_ns": 100.0, "label": "run7"}
    p.write_text("voltage = 3\n")
    with pytest.raises(ValidationError, match="m.txt:1: unknown metadata key 'voltage'"):
        load_sidecar(p)


def test_save_round_trip(tmp_path):
    p = tmp_path / "out.txt"
    x = np.linspace(1250.0, 1350.0, 40)
    y = np.exp(np.sin(x / 17.0)) * 1234.5678
    save_two_column(p, x, y, header="wavelength counts")
    sp = load_spectrum(p)
    assert np.allclose(sp.wavelengths, x, rtol=1e-8)
    assert np.allclose(sp.intensities, y, rtol=1e-8)


def test_missing_file():
    with pytest.raises(ValidationError, match="cannot read /no/such/file.txt"):
        load_spectrum("/no/such/file.txt")


def test_non_text_file(tmp_path):
    p = tmp_path / "bin.txt"
    p.write_bytes(b"1300 5\n\xff\xfe 6\n")
    with pytest.raises(ValidationError, match="bin.txt: not a text file"):
        load_spectrum(p)


def _old_save_two_column(path, x, y, header=""):
    # the row-by-row writer the one-string writer replaced
    with open(path, "w") as fh:
        if header:
            for line in header.splitlines():
                fh.write(f"# {line}\n")
        for xi, yi in zip(np.asarray(x), np.asarray(y)):
            fh.write(f"{xi:.9g} {yi:.9g}\n")


@pytest.mark.parametrize("x, y", [
    (np.linspace(1250.0, 1350.0, 41), np.exp(np.sin(np.arange(41) / 7.0)) * 1234.5678),
    (np.arange(-5, 5), np.arange(10) ** 9),
    (np.array([1e300, -1.7976931348623157e308, 123456789012.0, np.inf]),
     np.array([5e-324, -2.2250738585072014e-308, 1e-12, np.nan])),
    (np.array([0.0, -0.0, 0.1, 1 / 3], dtype=np.float32), [7, 2**40, -(2**62), 0]),
    ([], []),
    # the edge of the whole-number rule: 999999999 is printed as an integer,
    # 1e9 is not, in either sign
    ([999999999.0, -999999999.0, 0.0], [1e9, 2.0, -1e9]),
    ([3.0, -0.0, 5.0], [0.0, -7.0, -123456789.0]),
    (np.array([1, -2, 16777216], dtype=np.float32), np.array([2**53 + 1, -(2**62) - 3, 2**63 - 1])),
    ([1.0, np.nan, 3.0], [4.0, np.inf, -np.inf]),
    ([1.0, 2.5, 3.0], [2**31, 2**32 + 0.5, -1.0]),
])
def test_save_two_column_bytes_match_row_writer(tmp_path, x, y):
    for header in ("", "time_ns counts (pulse_time_ns=100.0)", "a\nb"):
        save_two_column(tmp_path / "new.txt", x, y, header=header)
        _old_save_two_column(tmp_path / "old.txt", x, y, header=header)
        assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "old.txt").read_bytes()


def test_whole_number_columns_print_as_integers():
    assert _column(np.arange(-3.0, 3.0))[0] == "%d"
    assert _column(np.array([999999999.0, -999999999.0], dtype=np.float32))[0] == "%.9g"
    assert _column([999999999.0, -999999999.0])[0] == "%d"
    for other in ([1e9], [-1e9], [1.0, -0.0], [1.0, np.nan], [np.inf], [0.5], [2**53 + 1]):
        assert _column(other)[0] == "%.9g"


def _columns(n):
    whole = st.integers(-10**9 - 2, 10**9 + 2)
    cells = st.one_of(st.floats(), whole.map(float),
                      st.sampled_from([-0.0, 1e9, -1e9, 999999999.0, -999999999.0]))
    return st.one_of(
        st.lists(cells, min_size=n, max_size=n).map(lambda v: np.array(v, dtype=float)),
        st.lists(whole, min_size=n, max_size=n).map(lambda v: np.array(v, dtype=np.float32)),
        st.lists(st.integers(-(2**63), 2**63 - 1), min_size=n, max_size=n)
        .map(lambda v: np.array(v, dtype=np.int64)),
    )


@st.composite
def _two_columns(draw):
    n = draw(st.integers(0, 12))
    return draw(_columns(n)), draw(_columns(n))


@settings(max_examples=300, deadline=None)
@given(_two_columns())
def test_save_two_column_property_matches_row_writer(columns):
    x, y = columns
    with tempfile.TemporaryDirectory() as tmp:
        new, old = os.path.join(tmp, "new.txt"), os.path.join(tmp, "old.txt")
        save_two_column(new, x, y, header="x y")
        _old_save_two_column(old, x, y, header="x y")
        with open(new, "rb") as a, open(old, "rb") as b:
            assert a.read() == b.read()


def test_save_two_column_refuses_unequal_lengths(tmp_path):
    path = tmp_path / "out.txt"
    with pytest.raises(ValidationError, match="differ in length: 3, 2"):
        save_two_column(path, [1.0, 2.0, 3.0], [4.0, 5.0])
    assert not path.exists()
