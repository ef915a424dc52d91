"""Efficiency budgeting and cavity-enhancement arithmetic."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sicpl.errors import ValidationError
from sicpl.photophysics import (
    CavityParams,
    budget,
    cooperativity,
    fill_factor,
    finesse_sweep,
    mode_cross_sections,
    mode_field_radius,
)


def test_budget_fast_emitter_row():
    b = budget(704.0, 163.0, 0.39, 0.66, site_label="k")
    assert b.tau_nr == pytest.approx(212.11, abs=0.01)
    assert b.eta_rad == pytest.approx(0.2315, abs=5e-4)
    assert b.eta_tot == pytest.approx(0.0903, abs=5e-4)
    assert b.dw_th == pytest.approx(math.exp(-0.66))
    assert b.notes == []


def test_budget_slow_emitter_row_flags_reference():
    b = budget(277.0, 43.0, 0.22, 0.79, site_label="h", tau_nr_reference=47.0)
    assert b.tau_nr == pytest.approx(50.90, abs=0.01)
    assert b.eta_rad == pytest.approx(0.1552, abs=5e-4)
    assert b.eta_tot == pytest.approx(0.0342, abs=5e-4)
    assert len(b.notes) == 1 and "47.0" in b.notes[0]
    # agreement within 2 % produces no note
    b2 = budget(277.0, 43.0, 0.22, 0.79, tau_nr_reference=51.0)
    assert b2.notes == []


def test_budget_purely_radiative_limit():
    b = budget(200.0, 200.0, 0.5, 0.7)
    assert b.tau_nr is None
    assert b.eta_rad == 1.0


def test_budget_domain_guards():
    with pytest.raises(ValidationError, match="measured lifetime 150.0 ns"):
        budget(100.0, 150.0, 0.5, 0.7)  # measured slower than radiative
    with pytest.raises(ValidationError, match="dw_exp"):
        budget(100.0, 50.0, 1.5, 0.7)
    with pytest.raises(ValidationError, match="s_th"):
        budget(100.0, 50.0, 0.5, -0.1)
    # NaN fails every comparison, so each check must be written to refuse it
    for args, kwargs, named in (
            ((math.inf, 50.0, 0.5, 0.7), {}, "tau_rad=inf"),
            ((math.nan, 50.0, 0.5, 0.7), {}, "tau_rad=nan"),
            ((100.0, 50.0, 0.5, math.nan), {}, "s_th"),
            ((100.0, 50.0, 0.5, math.inf), {}, "s_th"),
            ((100.0, 50.0, 0.5, 0.7), {"tau_nr_reference": 0.0}, "tau_nr_reference"),
            ((100.0, 50.0, 0.5, 0.7), {"tau_nr_reference": -5.0}, "tau_nr_reference"),
            ((100.0, 50.0, 0.5, 0.7), {"tau_nr_reference": math.nan}, "tau_nr_reference")):
        with pytest.raises(ValidationError, match=named):
            budget(*args, **kwargs)


@settings(max_examples=50)
@given(st.floats(min_value=10.0, max_value=1000.0),
       st.floats(min_value=0.01, max_value=0.99),
       st.floats(min_value=0.01, max_value=1.0),
       st.floats(min_value=0.0, max_value=3.0))
def test_budget_rate_identity(tau_rad, frac, dw, s):
    # reciprocal rates must recombine into the measured lifetime
    tau_tot = frac * tau_rad
    b = budget(tau_rad, tau_tot, dw, s)
    recombined = 1.0 / (1.0 / b.tau_rad + 1.0 / b.tau_nr)
    assert recombined == pytest.approx(tau_tot, rel=1e-9)
    assert 0.0 < b.eta_tot <= b.eta_rad <= 1.0


# ---------------------------------------------------------------------------
# cavity


def default_params(**over):
    kw = dict(wavelength_nm=1280.0, finesse=3.4e4, roc_mm=1.3,
              l_vac_um=5.0, l_sic_um=5.0, eta_tot=0.089)
    kw.update(over)
    return CavityParams(**kw)


def test_mode_field_radius_plano_concave():
    # w0^2 = (lambda/pi) sqrt(L (Rc - L)), L = 10 um, Rc = 1300 um
    w = mode_field_radius(default_params())
    expect = math.sqrt(1.28 / math.pi * math.sqrt(10.0 * 1290.0))
    assert w == pytest.approx(expect, rel=1e-12)
    assert mode_field_radius(default_params(w_c_um=4.2)) == 4.2


def test_unstable_geometry_rejected():
    with pytest.raises(ValidationError, match="not smaller than mirror radius"):
        mode_field_radius(default_params(roc_mm=0.005, l_vac_um=4.0,
                                         l_sic_um=2.0))


def test_cross_sections():
    se, sc = mode_cross_sections(default_params())
    lam = 1280e-9
    assert se == pytest.approx(3.0 * lam**2 / (2.0 * math.pi))
    w = mode_field_radius(default_params()) * 1e-6
    assert sc == pytest.approx(math.pi * w**2)


def test_fill_factor_reference_value():
    p = default_params(n_sic=2.6)
    assert fill_factor(p) == pytest.approx(0.46392, abs=1e-5)
    # all-vacuum cavity: unity fill factor
    assert fill_factor(default_params(l_sic_um=0.0)) == 1.0


def test_cooperativity_headline_estimate():
    est = cooperativity(default_params())
    assert est.eta_cav == pytest.approx(0.792, abs=0.01)
    assert est.eta_out is None
    with_out = cooperativity(default_params(), extraction_fraction=0.61)
    assert with_out.eta_out == pytest.approx(0.61 * with_out.eta_cav)
    with pytest.raises(ValidationError):
        cooperativity(default_params(), extraction_fraction=1.5)


def test_eta_cav_saturates():
    zero = cooperativity(default_params(finesse=0.0))
    assert zero.cooperativity == 0.0 and zero.eta_cav == 0.0
    big = cooperativity(default_params(finesse=1e9))
    assert 0.999 < big.eta_cav < 1.0


def test_finesse_sweep_monotone():
    rows = finesse_sweep(default_params(), 1e2, 1e5, 13)
    assert len(rows) == 13
    assert rows[0][0] == pytest.approx(100.0)
    assert rows[-1][0] == pytest.approx(1e5)
    etas = [r[2] for r in rows]
    assert all(b > a for a, b in zip(etas, etas[1:]))
    for start, stop in ((100.0, 50.0), (math.nan, 10.0), (1.0, math.nan), (1.0, math.inf)):
        with pytest.raises(ValidationError):
            finesse_sweep(default_params(), start, stop, 5)


def test_finesse_sweep_refuses_too_many_points_before_allocating(monkeypatch):
    def logspace(*args, **kwargs):
        raise AssertionError("the grid was allocated")

    monkeypatch.setattr(np, "logspace", logspace)
    with pytest.raises(ValidationError, match="n <= 1e\\+07"):
        finesse_sweep(default_params(), 1e2, 1e5, 10**12)


def test_finesse_sweep_carries_every_other_field():
    # each row equals cooperativity at that finesse, bit for bit
    base = default_params(n_sic=2.4, w_c_um=3.0)
    for n in (2, 9, 1000):
        grid = np.logspace(2.0, 5.0, n).tolist()
        ests = [cooperativity(dataclasses.replace(base, finesse=f)) for f in grid]
        assert np.array_equal(finesse_sweep(base, 1e2, 1e5, n),
                              [(f, est.cooperativity, est.eta_cav) for f, est in zip(grid, ests)])


def test_cavity_param_validation():
    with pytest.raises(ValidationError):
        default_params(eta_tot=0.0)
    with pytest.raises(ValidationError):
        default_params(n_sic=0.5)
    with pytest.raises(ValidationError):
        default_params(finesse=-1.0)
    for field in ("wavelength_nm", "finesse", "roc_mm", "l_vac_um", "l_sic_um", "n_sic",
                  "eta_tot", "w_c_um"):
        for value in (math.nan, math.inf):
            with pytest.raises(ValidationError):
                default_params(**{field: value})
