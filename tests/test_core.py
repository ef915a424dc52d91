"""Data types, unit conversions and file ingestion."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sicpl.constants import EV_NM
from sicpl.datatypes import (
    DecayTrace,
    EnergyValue,
    Site,
    SiteAssignment,
    Spectrum,
    energy_to_wavelength,
    wavelength_to_energy,
)
from sicpl.errors import DomainError, ParseError, ValidationError
from sicpl.io import load_sidecar, load_spectrum, load_trace, save_two_column


def test_energy_value_units():
    e = EnergyValue(0.968, "eV")
    assert e.as_mev() == pytest.approx(968.0)
    assert EnergyValue(968.0, "meV").as_ev() == pytest.approx(0.968)
    with pytest.raises(ValidationError):
        EnergyValue(1.0, "J")
    with pytest.raises(ValidationError):
        EnergyValue(float("nan"))


def test_known_conversion():
    # 1280 nm <-> 0.9686 eV with hc = 1239.84198 eV nm
    assert wavelength_to_energy(1280.0).as_ev() == pytest.approx(EV_NM / 1280.0)
    with pytest.raises(DomainError):
        wavelength_to_energy(0.0)
    with pytest.raises(DomainError):
        energy_to_wavelength(EnergyValue(-1.0))


@given(st.floats(min_value=900.0, max_value=2000.0))
def test_wavelength_energy_round_trip(wl):
    back = energy_to_wavelength(wavelength_to_energy(wl))
    assert abs(back - wl) / wl < 1e-9


@given(st.floats(min_value=1e-3, max_value=10.0))
def test_energy_unit_round_trip(ev):
    e = EnergyValue(ev, "eV")
    assert abs(EnergyValue(e.as_mev(), "meV").as_ev() - ev) / ev < 1e-9


def test_spectrum_validation():
    wl = np.linspace(1250.0, 1350.0, 50)
    it = np.ones(50)
    sp = Spectrum(wavelengths=wl, intensities=it, temperature=4.0)
    assert not sp.wavelengths.flags.writeable
    with pytest.raises(ValidationError):
        Spectrum(wavelengths=wl[::-1], intensities=it, temperature=4.0)
    with pytest.raises(ValidationError):
        Spectrum(wavelengths=wl, intensities=-it, temperature=4.0)
    with pytest.raises(ValidationError):
        Spectrum(wavelengths=wl, intensities=it, temperature=0.0)
    bad = it.copy()
    bad[3] = np.nan
    with pytest.raises(ValidationError):
        Spectrum(wavelengths=wl, intensities=bad, temperature=4.0)


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


def test_site_assignment():
    sa = SiteAssignment(site=Site.K_CUBIC,
                        zpl_lines=(("alpha2", 1278.8), ("alpha3", 1280.7)))
    assert sa.site is Site.K_CUBIC
    with pytest.raises(ValidationError):
        SiteAssignment(site=Site.H_HEXAGONAL, zpl_lines=(("beta", 1500.0),))
    with pytest.raises(ValidationError):
        SiteAssignment(site=Site.K_CUBIC,
                       zpl_lines=(("a", 1280.0), ("a", 1281.0)))


# ---------------------------------------------------------------------------
# file ingestion


def test_load_spectrum_delimiters(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("# header comment\n1300, 5\n1301\t6\n1302 7  # trailing\n")
    sp = load_spectrum(p, {"temperature_K": 10.0})
    assert sp.temperature == 10.0
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
    with pytest.raises(ParseError) as err:
        load_spectrum(p)
    assert "bad.txt:2" in str(err.value)
    p.write_text("1300 5 9\n")
    with pytest.raises(ParseError) as err:
        load_spectrum(p)
    assert ":1" in str(err.value)


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
    with pytest.raises(ParseError):
        load_spectrum(p)


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
    with pytest.raises(ParseError):
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
    with pytest.raises(ParseError):
        load_spectrum("/no/such/file.txt")


def test_non_text_file(tmp_path):
    p = tmp_path / "bin.txt"
    p.write_bytes(b"1300 5\n\xff\xfe 6\n")
    with pytest.raises(ParseError, match="bin.txt"):
        load_spectrum(p)
