"""Command-line pipeline: exit codes, reports, manifests, determinism."""

import hashlib
import json
import math
import os
import pickle

import numpy as np
import pytest

from sicpl import nls
from sicpl.cli import main
from sicpl.decay import thermal_lifetime
from sicpl.io import SIDECAR_KEYS, load_spectrum
from sicpl.photophysics import CavityParams, finesse_sweep
from sicpl.synth import RECIPES, GeneratorSpec, generate


def run(*argv):
    return main(list(argv))


@pytest.fixture
def decay_files(tmp_path):
    recipe = {
        "seed": 42,
        "kind": "decay",
        "truth": {"components": [[10000, 164.2]], "background": 20.0,
                  "pulse_time": 100.0},
        "sampling": {"t_start": 0.0, "t_end": 1800.0, "bin_ns": 1.0},
        "noise": {"kind": "poisson"},
    }
    spec = tmp_path / "recipe.json"
    spec.write_text(json.dumps(recipe))
    trace = tmp_path / "trace.txt"
    assert run("simulate", "--spec", str(spec), "--outfile", str(trace)) == 0
    return tmp_path, trace


def test_fit_decay_pipeline(decay_files, capsys):
    tmp_path, trace = decay_files
    out = tmp_path / "fit"
    code = run("fit-decay", "--trace", str(trace), "--pulse-ns", "100",
               "--plot", "--out", str(out))
    assert code == 0
    report = (out / "fit-decay_report.txt").read_text()
    assert "tau1 [ns]" in report and "3 sigma" in report
    # the truth lifetime lies inside the printed 3-sigma margin
    line = next(line for line in report.splitlines() if line.startswith("tau1 [ns]"))
    tau, plus_minus, margin = line.split()[2:5]
    assert plus_minus == "+/-" and abs(float(tau) - 164.2) <= float(margin)
    assert (out / "fit-decay_model.txt").exists()
    manifest = json.loads((out / "fit-decay_manifest.json").read_text())
    assert manifest["command"] == "fit-decay"
    assert str(trace) in manifest["inputs"]
    assert len(manifest["config_hash"]) == 64
    assert manifest["numpy_version"] == np.__version__


def test_reports_are_deterministic(decay_files):
    tmp_path, trace = decay_files
    texts = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run("fit-decay", "--trace", str(trace), "--pulse-ns", "100",
                   "--out", str(out)) == 0
        texts.append((out / "fit-decay_report.txt").read_bytes())
    assert texts[0] == texts[1]


def test_simulate_deterministic(decay_files, tmp_path):
    _, trace = decay_files
    recipe = json.loads((decay_files[0] / "recipe.json").read_text())
    spec2 = tmp_path / "r2.json"
    spec2.write_text(json.dumps(recipe))
    t2 = tmp_path / "t2.txt"
    assert run("simulate", "--spec", str(spec2), "--outfile", str(t2)) == 0
    assert t2.read_bytes() == trace.read_bytes()


def test_simulate_takes_no_out(decay_files, capsys):
    # simulate writes next to --outfile, and --out is no abbreviation of it
    tmp_path, _ = decay_files
    assert run("simulate", "--spec", str(tmp_path / "recipe.json"),
               "--outfile", str(tmp_path / "t.txt"), "--out", str(tmp_path / "d")) == 1
    assert "error: unrecognized arguments: --out" in capsys.readouterr().err
    assert not (tmp_path / "t.txt").exists() and not (tmp_path / "d").exists()


# kind: (truth, sampling, noise, the x column, the comment lines)
SIMULATED = {
    "spectrum": ({"zpl": [["a", 1280.0, 2.0, 5e4]]},
                 {"wl_start": 1270.0, "wl_end": 1290.0, "step_nm": 0.5}, {"kind": "poisson"},
                 np.arange(41) * 0.5 + 1270.0, ["# wavelength_nm counts"]),
    "thermal_series": ({"tau": 163.0, "tau_p": 83.0, "e_p": 28.0},
                       {"temperatures": [4.0, 50.0, 100.0, 150.0]},
                       {"kind": "gaussian", "sigma_frac": 0.02}, [4.0, 50.0, 100.0, 150.0], []),
}


@pytest.mark.parametrize("kind", SIMULATED)
def test_simulate_writes_spectrum_and_series(tmp_path, kind):
    truth, sampling, noise, x, comments = SIMULATED[kind]
    spec = tmp_path / "r.json"
    spec.write_text(json.dumps({"seed": 3, "kind": kind, "truth": truth, "sampling": sampling,
                                "noise": noise}))
    out = tmp_path / "data.txt"
    assert run("simulate", "--spec", str(spec), "--outfile", str(out)) == 0
    lines = out.read_text().splitlines()
    assert [l for l in lines if l.startswith("#")] == comments
    rows = np.array([[float(v) for v in l.split()] for l in lines if not l.startswith("#")])
    assert rows.shape == (len(x), 3 if kind == "thermal_series" else 2)
    assert np.allclose(rows[:, 0], x, rtol=1e-9)
    y = rows[:, 1]
    if kind == "spectrum":
        assert np.all(y >= 0) and np.all(y == np.round(y))
        assert y.sum() * 0.5 == pytest.approx(5e4, rel=0.02)
    else:
        tau = thermal_lifetime(rows[:, 0], 163.0, 83.0, 28.0)
        assert np.allclose(rows[:, 2], 0.02 * tau, rtol=1e-8)
        assert np.all(np.abs(y - tau) < 5 * 0.02 * tau)
    assert (tmp_path / "simulate_manifest.json").exists()


def test_every_recipe_kind_is_simulated():
    # the decay_files fixture simulates the decay kind; a kind added to or
    # removed from synth.RECIPES must be added to or removed from SIMULATED
    assert {*SIMULATED, "decay"} == set(RECIPES)


def test_missing_input_exit_2(tmp_path, capsys):
    code = run("fit-decay", "--trace", str(tmp_path / "nope.txt"),
               "--pulse-ns", "5", "--out", str(tmp_path))
    assert code == 2
    assert "nope.txt" in capsys.readouterr().err


def test_unknown_command_exit_1(capsys):
    assert run("transmogrify") == 1
    assert run() == 1


def test_refused_argument_exit_1_names_it(capsys):
    assert run("fit-decay", "--trace", "t.txt", "--pulse-ns", "abc") == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: sicpl fit-decay")
    assert err.endswith("\nerror: argument --pulse-ns: invalid float value: 'abc'\n")


def test_fit_failure_exit_3(tmp_path):
    # flat spectrum has no line: fit failure, not a validation error
    sp = tmp_path / "flat.txt"
    sp.write_text("".join(f"{1270 + 0.1 * i} 5\n" for i in range(200)))
    cfg = tmp_path / "zpl.txt"
    cfg.write_text("alpha3 1280.0 2.0\n")
    code = run("zpl", "--spectrum", str(sp), "--zpl-config", str(cfg),
               "--out", str(tmp_path))
    assert code == 3


def test_budget_report_and_bundle(tmp_path, capsys):
    out = tmp_path / "b"
    assert run("budget", "--tau-rad", "704", "--tau-tot", "163",
               "--dw", "0.39", "--s", "0.66", "--site", "k",
               "--out", str(out)) == 0
    text = capsys.readouterr().out
    assert "0.0902983" in text  # eta_tot = 9.0 %
    assert run("budget", "--tau-rad", "277", "--tau-tot", "43",
               "--dw", "0.22", "--s", "0.79", "--site", "h",
               "--tau-nr-ref", "47", "--out", str(out)) == 0
    assert "disagrees" in capsys.readouterr().out
    assert run("report", "--inputs", str(out / "budget_k.json"),
               str(out / "budget_h.json"), "--out", str(out)) == 0
    table = (out / "summary_report.txt").read_text()
    lines = [l for l in table.splitlines() if l.strip().startswith(("h", "k"))]
    assert len(lines) == 2


def test_report_conflicting_sites(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps({"site": "k", "tau_tot_exp": 163.0}))
    b.write_text(json.dumps({"site": "k", "tau_tot_exp": 99.0}))
    assert run("report", "--inputs", str(a), str(b), "--out", str(tmp_path)) == 2


def test_cavity_with_sweep(tmp_path):
    out = tmp_path / "c"
    code = run("cavity", "--lambda-nm", "1280", "--finesse", "34000",
               "--roc-mm", "1.3", "--lvac-um", "5", "--lsic-um", "5",
               "--eta-tot", "0.089", "--sweep", "finesse=100:100000:9",
               "--out", str(out))
    assert code == 0
    sweep = (out / "cavity_sweep.txt").read_text().splitlines()
    assert len(sweep) == 10  # header + 9 rows
    etas = [float(l.split()[2]) for l in sweep[1:]]
    assert etas == sorted(etas)


def _old_rows_text(rows):
    # the f-string rows `simulate` and `cavity --sweep` wrote before both
    # went through io.format_table
    return "".join(" ".join(f"{v:.9g}" for v in row) + "\n" for row in rows)


@pytest.mark.parametrize("temperatures, noise", [
    ([4.0, 50.0, 100.0, 150.0, 300.0], {"kind": "gaussian", "sigma_frac": 0.02}),
    ([4.0, 20.5, 77.0], {"kind": "none"}),
    ([10.0, 200.0], {"kind": "gaussian", "sigma_frac": 0.0}),
    ([], {"kind": "none"}),
])
def test_simulate_thermal_series_bytes_match_row_writer(tmp_path, temperatures, noise):
    recipe = {"seed": 5, "kind": "thermal_series",
              "truth": {"tau": 163.0, "tau_p": 83.0, "e_p": 28.0},
              "sampling": {"temperatures": temperatures}, "noise": noise}
    spec = tmp_path / "r.json"
    spec.write_text(json.dumps(recipe))
    out = tmp_path / "series.txt"
    assert run("simulate", "--spec", str(spec), "--outfile", str(out)) == 0
    assert out.read_text() == _old_rows_text(generate(GeneratorSpec(**recipe)))


@pytest.mark.parametrize("sweep", ["100:100000:4", "100:100000:9", "1.5:2.5:7"])
def test_cavity_sweep_bytes_match_row_writer(tmp_path, sweep):
    assert run(*CAVITY, "--sweep", f"finesse={sweep}", "--out", str(tmp_path)) == 0
    params = CavityParams(wavelength_nm=1280.0, finesse=34000.0, roc_mm=1.3, l_vac_um=5.0,
                          l_sic_um=5.0, eta_tot=0.089)
    start, stop, n = sweep.split(":")
    rows = finesse_sweep(params, float(start), float(stop), int(n))
    assert ((tmp_path / "cavity_sweep.txt").read_text()
            == "# finesse cooperativity eta_cav\n" + _old_rows_text(rows))


def test_config_file_drives_run(decay_files, tmp_path):
    src, trace = decay_files
    out = tmp_path / "viacfg"
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "command": "fit-decay",
        "parameters": {"trace": str(trace), "pulse_ns": 100.0, "kind": "auto",
                       "out": str(out), "plot": True},
        "inputs": {str(trace): _sha256(trace)},
    }))
    assert run("--config", str(cfg)) == 0
    assert (out / "fit-decay_report.txt").exists()
    assert (out / "fit-decay_model.txt").exists()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"command": "explode"}))
    assert run("--config", str(bad)) == 2


def test_config_with_a_command_is_a_usage_error(tmp_path, capsys):
    # the command and its options would otherwise be dropped unread
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(*BUDGET, "--out", str(a)) == 0
    (a / "budget_report.txt").unlink()
    capsys.readouterr()
    assert run("--config", str(a / "budget_manifest.json"), *BUDGET, "--out", str(b)) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: sicpl")
    assert err.endswith("error: --config replays a manifest's command, got 'budget' too\n")
    assert not (a / "budget_report.txt").exists() and not b.exists()


def test_fit_thermal_cli(tmp_path):
    from sicpl.decay import thermal_lifetime
    pts = tmp_path / "pts.txt"
    rows = []
    for T in (4, 25, 50, 75, 100, 125, 150, 175):
        tau = thermal_lifetime(float(T), 163.0, 83.0, 28.0)
        rows.append(f"{T} {tau:.6f} {0.02 * tau:.6f}")
    pts.write_text("\n".join(rows) + "\n")
    out = tmp_path / "th"
    assert run("fit-thermal", "--points", str(pts), "--out", str(out)) == 0
    report = (out / "fit-thermal_report.txt").read_text()
    assert "E_p [meV]" in report


def test_unconverged_fits_say_so(decay_files, monkeypatch):
    tmp_path, trace = decay_files
    # only the hottest row shows an excess rate, so the cost keeps falling
    # as E_p grows and the fit ends at the iteration cap
    pts = tmp_path / "pts.txt"
    pts.write_text("4 160 1\n25 160 1\n50 160 1\n175 120 1\n")
    assert run("fit-thermal", "--points", str(pts), "--out", str(tmp_path / "th")) == 0
    note = f"note: fit did not converge in {nls.MAX_ITER} iterations\n"
    assert (tmp_path / "th" / "fit-thermal_report.txt").read_text().endswith(note)
    decay = ["fit-decay", "--trace", str(trace), "--pulse-ns", "100"]
    spectrum, lines = _spectrum_files(tmp_path)
    psb = ["fit-psb", "--spectrum", str(spectrum), "--zpl-config", str(lines),
           "--partition-mev", "60"]
    for argv, report in ((decay, "fit-decay_report.txt"), (psb, "fit-psb_report.txt")):
        assert run(*argv, "--out", str(tmp_path / "a")) == 0
        assert "note:" not in (tmp_path / "a" / report).read_text()
        monkeypatch.setattr(nls, "MAX_ITER", 2)
        assert run(*argv, "--out", str(tmp_path / "b")) == 0
        text = (tmp_path / "b" / report).read_text()
        assert text.endswith("note: fit did not converge in 2 iterations\n")
        monkeypatch.undo()


def test_zpl_and_psb_cli(tmp_path):
    from sicpl.spectrum import EV_NM_MEV
    from sicpl.synth import GeneratorSpec, generate
    from sicpl.io import save_two_column

    e3 = EV_NM_MEV / 1280.0
    c2 = EV_NM_MEV / (e3 + 1.47)
    cb = EV_NM_MEV / (e3 - 40.0)
    truth = {
        "zpl": [("alpha3", 1280.0, 0.30, 700.0), ("alpha2", c2, 0.30, 300.0),
                ("beta", cb, 0.30, 400.0)],
        "psb": [{"i0": 90.0, "sigma": 6.0, "delta0": 35.0, "j_max": 10,
                 "doublet": [1.47, 300.0 / 700.0], "e_ref_nm": 1280.0},
                {"i0": 230.0, "sigma": 6.0, "delta0": 50.0, "j_max": 3,
                 "e_ref_nm": cb}],
    }
    sp = generate(GeneratorSpec(
        seed=5, kind="spectrum", truth=truth,
        sampling={"wl_start": 1255.0, "wl_end": 1470.0, "step_nm": 0.2}))
    data = tmp_path / "spec.txt"
    save_two_column(data, sp.wavelengths, sp.intensities)
    cfg = tmp_path / "zpl.txt"
    cfg.write_text(f"alpha3 1280.0 3.0\nalpha2 {c2:.6f} 3.0\nbeta {cb:.6f} 4.0\n")
    out = tmp_path / "z"
    assert run("zpl", "--spectrum", str(data), "--zpl-config", str(cfg),
               "--out", str(out)) == 0
    report = (out / "zpl_report.txt").read_text()
    assert "doublet splitting" in report
    out2 = tmp_path / "p"
    assert run("fit-psb", "--spectrum", str(data), "--zpl-config", str(cfg),
               "--partition-mev", "60", "--plot", "--out", str(out2)) == 0
    report = (out2 / "fit-psb_report.txt").read_text()
    assert "DW mean" in report
    assert (out2 / "fit-psb_model.txt").exists()


DECAY_TRUTH = {"components": [[100, 10.0]], "pulse_time": 20.0}


def _recipe_case(change, message):
    """A decay recipe with `change` applied, whose error names the file."""
    recipe = {"seed": 1, "kind": "decay", "noise": {"kind": "poisson"}, "truth": DECAY_TRUTH,
              "sampling": {"t_start": 0.0, "t_end": 60.0, "bin_ns": 1.0}, **change}
    return ({"r.json": json.dumps(recipe)},
            ["simulate", "--spec", "r.json", "--outfile", "out"], f"r.json: {message}")


TRACE = "".join(f"{i} {5 + 100 * (i >= 20)}\n" for i in range(60))
SPECTRUM = "".join(f"{1270 + 0.5 * i} {-3 if i == 7 else 10}\n" for i in range(40))
CAVITY = ["cavity", "--lambda-nm", "1280", "--finesse", "34000", "--roc-mm", "1.3",
          "--lvac-um", "5", "--lsic-um", "5", "--eta-tot", "0.089"]
BUDGET = ["budget", "--tau-rad", "704", "--tau-tot", "163", "--dw", "0.39", "--s", "0.66"]
# name: (files to write, None for one left missing; argv with file names
#        standing for their paths; text the error message must contain, or,
#        starting "error: ", the whole of stderr with {tmp} for the directory)
MALFORMED = {
    "config-bad-json": ({"run.json": '{"command": '}, ["--config", "run.json"], "run.json"),
    "config-not-object": ({"run.json": "[1, 2]"}, ["--config", "run.json"], "run.json"),
    "report-bad-json": ({"b.json": "{'site': 'k'}"},
                        ["report", "--inputs", "b.json", "--out", "out"], "b.json"),
    "report-s-th-bool": ({"b.json": '{"site": "k", "s_th": true}'},
                         ["report", "--inputs", "b.json", "--out", "out"],
                         "b.json: 's_th' must be a number or null, got True"),
    "report-nan": ({"b.json": '{"site": "k", "s_th": NaN}'},
                   ["report", "--inputs", "b.json", "--out", "out"],
                   "error: {tmp}/b.json: 's_th' must be a number or null, got nan\n"),
    "report-infinite": ({"b.json": '{"site": "k", "dw_exp": 1e999}'},
                        ["report", "--inputs", "b.json", "--out", "out"],
                        "error: {tmp}/b.json: 'dw_exp' must be a number or null, got inf\n"),
    "report-huge-int": ({"b.json": '{"site": "k", "s_th": 1%s}' % ("0" * 400)},
                        ["report", "--inputs", "b.json", "--out", "out"],
                        "error: {tmp}/b.json: invalid JSON (int too large to convert to float)\n"),
    "simulate-spec-bad-json": (
        {"r.json": '{"seed": '}, ["simulate", "--spec", "r.json", "--outfile", "out"],
        "error: {tmp}/r.json: invalid JSON (Expecting value: line 1 column 10 (char 9))\n"),
    "simulate-spec-not-object": (
        {"r.json": "[1, 2]"}, ["simulate", "--spec", "r.json", "--outfile", "out"],
        "error: {tmp}/r.json: expected a JSON object\n"),
    "simulate-spec-missing": (
        {"r.json": None}, ["simulate", "--spec", "r.json", "--outfile", "out"],
        "error: cannot read {tmp}/r.json: No such file or directory\n"),
    "simulate-seed-bool": _recipe_case({"seed": True}, "'seed' must be an integer"),
    "simulate-background-bool": _recipe_case(
        {"truth": {**DECAY_TRUTH, "background": True}},
        "'background' must be a real number, got True"),
    "simulate-bin-bool": _recipe_case(
        {"sampling": {"t_start": 0.0, "t_end": 60.0, "bin_ns": True}},
        "'bin_ns' must be a real > 0, got True"),
    "simulate-psb-j-max-bool": _recipe_case(
        {"kind": "spectrum", "truth": {"psb": [{"i0": 90.0, "sigma": 6.0, "delta0": 35.0,
                                                "e_ref_nm": 1280.0, "j_max": True}]},
         "sampling": {"wl_start": 1255.0, "wl_end": 1300.0, "step_nm": 0.2}},
        "'j_max' must be an integer, got True"),
    "thermal-non-numeric": ({"pts.txt": "# T tau sigma\n4 163 3\n25, fast, 3\n"},
                            ["fit-thermal", "--points", "pts.txt", "--out", "out"], "pts.txt:3"),
    "thermal-tau-nan": ({"pts.txt": "4 163 3\n25 160 3\n50 nan 3\n75 150 3\n"},
                        ["fit-thermal", "--points", "pts.txt", "--out", "out"],
                        "x and y must be finite"),
    "thermal-temperature-nan": ({"pts.txt": "4 163 3\n25 160 3\nnan 160 3\n75 150 3\n"},
                                ["fit-thermal", "--points", "pts.txt", "--out", "out"],
                                "x and y must be finite"),
    "sidecar-non-numeric": ({"t.txt": TRACE, "m.meta": "pulse_time_ns = 20\ntemperature_K = warm\n"},
                            ["fit-decay", "--trace", "t.txt", "--meta", "m.meta", "--out", "out"],
                            "m.meta:2"),
    "sidecar-negative-temperature": (
        {"t.txt": TRACE, "m.meta": "pulse_time_ns = 20\ntemperature_K = -5\n"},
        ["fit-decay", "--trace", "t.txt", "--meta", "m.meta", "--out", "out"],
        "t.txt: temperature must be > 0 K, got -5.0"),
    "pulse-inf": ({"t.txt": TRACE}, ["fit-decay", "--trace", "t.txt", "--pulse-ns", "inf",
                                     "--out", "out"], "t.txt: pulse_time must be finite"),
    "pulse-nan": ({"t.txt": TRACE}, ["fit-decay", "--trace", "t.txt", "--pulse-ns", "nan",
                                     "--out", "out"], "t.txt: pulse_time must be finite"),
    "zpl-repeated-label": ({"s.txt": SPECTRUM.replace("-3", "10"),
                            "l.txt": "alpha3 1280.0 3.0\nalpha3 1278.0604 3.0\nbeta 1335.1352 4.0\n"},
                           ["zpl", "--spectrum", "s.txt", "--zpl-config", "l.txt",
                            "--out", "out"], "l.txt: ZPL label 'alpha3' appears more than once"),
    "zpl-window-outside": ({"s.txt": SPECTRUM.replace("-3", "10"),
                            "l.txt": "beta 1335.1352 4.0\nalpha3 1280.0 3.0\n"},
                           ["zpl", "--spectrum", "s.txt", "--zpl-config", "l.txt",
                            "--out", "out"], "l.txt: window for 'beta' outside spectrum range"),
    # fit-psb finds no zpl result in its --out and fits the lines itself
    "zpl-window-narrow": ({"s.txt": SPECTRUM.replace("-3", "10"), "l.txt": "alpha3 1280.0 0.1\n"},
                          ["fit-psb", "--spectrum", "s.txt", "--zpl-config", "l.txt",
                           "--partition-mev", "60", "--out", "out"],
                          "l.txt: window for 'alpha3' has fewer than 6 samples"),
    "spectrum-negative-count": ({"s.txt": SPECTRUM, "l.txt": "a 1280 3\n"},
                                ["zpl", "--spectrum", "s.txt", "--zpl-config", "l.txt",
                                 "--out", "out"], "s.txt: negative intensity"),
    "trace-shifted-bin": ({"t.txt": TRACE.replace("\n30 ", "\n30.5 ")},
                          ["fit-decay", "--trace", "t.txt", "--pulse-ns", "20", "--out", "out"],
                          "t.txt: non-uniform bin width"),
    "window-one-value": ({"t.txt": TRACE}, ["fit-decay", "--trace", "t.txt", "--pulse-ns", "20",
                                            "--window", "5", "--out", "out"], "--window"),
    "window-non-numeric": ({"t.txt": TRACE}, ["fit-decay", "--trace", "t.txt", "--pulse-ns", "20",
                                              "--window", "a,b", "--out", "out"], "--window"),
    "sweep-two-values": ({}, CAVITY + ["--sweep", "finesse=1:2", "--out", "out"], "--sweep"),
    "sweep-nan": ({}, CAVITY + ["--sweep", "finesse=nan:10:3", "--out", "out"], "start < stop"),
    "sweep-too-many": ({}, CAVITY + ["--sweep", "finesse=1:10:1000000000000", "--out", "out"],
                       "n <= 1e+07"),
    "cavity-lambda-nan": ({}, [*CAVITY[:2], "nan", *CAVITY[3:], "--out", "out"], "wavelength"),
    "cavity-finesse-nan": ({}, [*CAVITY[:4], "nan", *CAVITY[5:], "--out", "out"], "finesse"),
    "budget-tau-nr-ref-zero": ({}, BUDGET + ["--tau-nr-ref", "0", "--out", "out"],
                               "tau_nr_reference"),
    "budget-tau-nr-ref-negative": ({}, BUDGET + ["--tau-nr-ref", "-5", "--out", "out"],
                                   "tau_nr_reference"),
    "budget-s-nan": ({}, BUDGET[:-2] + ["--s", "nan", "--out", "out"], "s_th"),
    "budget-tau-rad-inf": ({}, ["budget", "--tau-rad", "inf", *BUDGET[3:], "--out", "out"],
                           "tau_rad"),
    # the site names the budget JSON, which would land outside --out
    "budget-site-path": ({}, BUDGET + ["--site", "a/b", "--out", "out"],
                         "error: --site 'a/b' must not contain a path separator\n"),
    "budget-site-path-deep-out": ({}, BUDGET + ["--site", "a/b", "--out", "deep/new/out"],
                                  "error: --site 'a/b' must not contain a path separator\n"),
    "sweep-other-name": ({}, CAVITY + ["--sweep", "roc=1:2:3", "--out", "out"],
                         "--sweep must look like finesse=start:stop:n, got 'roc=1:2:3'"),
    "report-site-number": ({"b.json": '{"site": 5}'},
                           ["report", "--inputs", "b.json", "--out", "out"],
                           "b.json: 'site' must be a string, got 5"),
    "window-too-few-bins": ({"t.txt": TRACE}, ["fit-decay", "--trace", "t.txt", "--pulse-ns",
                                               "20", "--window", "22,24", "--out", "out"],
                            "fit window contains fewer than 5 bins"),
    "sidecar-no-equals": ({"t.txt": TRACE, "m.meta": "pulse_time_ns 20\n"},
                          ["fit-decay", "--trace", "t.txt", "--meta", "m.meta", "--out", "out"],
                          "m.meta:1: expected key = value"),
    "config-inputs-list": ({"run.json": '{"command": "budget", "inputs": ["a"]}'},
                           ["--config", "run.json"], "run.json"),
    "config-input-is-a-directory": (
        {"run.json": '{"command": "budget", "inputs": {".": "0"}}'},
        ["--config", "run.json"], "Is a directory: '.'"),
    "out-is-a-file": ({"taken.txt": "x\n"}, BUDGET + ["--out", "taken.txt"],
                      "File exists"),
    "report-text-value": ({"b.json": '{"site": "k", "tau_rad": "x"}'},
                          ["report", "--inputs", "b.json", "--out", "out"], "b.json"),
    "simulate-truth-list": ({"r.json": '{"seed": 1, "kind": "decay", "truth": [], '
                                       '"sampling": {}}'},
                            ["simulate", "--spec", "r.json", "--outfile", "out"], "r.json"),
    "simulate-truth-empty": _recipe_case({"truth": {}}, "decay truth needs 'components'"),
    "simulate-components-number": _recipe_case(
        {"truth": {**DECAY_TRUTH, "components": 5}}, "'components' must"),
    "simulate-components-triple": _recipe_case(
        {"truth": {**DECAY_TRUTH, "components": [[1, 2, 3]]}}, "'components' must"),
    "simulate-poisson-rate-too-large": _recipe_case(
        {"truth": {**DECAY_TRUTH, "components": [[1e30, 10.0]]}},
        "a Poisson rate of 1e+30 is too large"),
    "simulate-sampling-no-end": _recipe_case(
        {"sampling": {"t_start": 0.0, "bin_ns": 1.0}}, "decay sampling needs 't_end'"),
    "simulate-seed-text": _recipe_case({"seed": "x"}, "'seed' must"),
    "simulate-seed-too-large": _recipe_case({"seed": 2**64}, "'seed' must"),
    "simulate-thermal-negative-tau": _recipe_case(
        {"kind": "thermal_series", "truth": {"tau": -163.0, "tau_p": 83.0, "e_p": 28.0},
         "sampling": {"temperatures": [4.0, 50.0]}, "noise": {"kind": "none"}},
        "invalid thermal truth"),
    "simulate-decay-grid-too-large": _recipe_case(
        {"sampling": {"t_start": 0.0, "t_end": 1e12, "bin_ns": 1e-3}}, "sampling gives a grid"),
    "simulate-spectrum-grid-too-large": _recipe_case(
        {"kind": "spectrum", "truth": {"zpl": [["a", 1280.0, 0.3, 10.0]]},
         "sampling": {"wl_start": 1270.0, "wl_end": 1290.0, "step_nm": 1e-9}},
        "sampling gives a grid"),
    "simulate-pulse-time-text": _recipe_case(
        {"truth": {**DECAY_TRUTH, "pulse_time": "x"}}, "'pulse_time' must"),
    "simulate-bin-text": _recipe_case(
        {"sampling": {"t_start": 0.0, "t_end": 60.0, "bin_ns": "x"}}, "'bin_ns' must"),
    "simulate-sigma-frac-negative": _recipe_case(
        {"kind": "thermal_series", "truth": {"tau": 163.0, "tau_p": 83.0, "e_p": 28.0},
         "sampling": {"temperatures": [4.0, 50.0]},
         "noise": {"kind": "gaussian", "sigma_frac": -1}}, "'sigma_frac' must"),
    "simulate-sigma-frac-text": _recipe_case(
        {"kind": "thermal_series", "truth": {"tau": 163.0, "tau_p": 83.0, "e_p": 28.0},
         "sampling": {"temperatures": [4.0, 50.0]},
         "noise": {"kind": "gaussian", "sigma_frac": "a"}}, "'sigma_frac' must"),
    "simulate-huge-int": (
        {"r.json": json.dumps({"seed": 1, "kind": "thermal_series",
                               "truth": {"tau": 10**400, "tau_p": 83.0, "e_p": 28.0},
                               "sampling": {"temperatures": [4.0, 50.0]}})},
        ["simulate", "--spec", "r.json", "--outfile", "out"],
        "error: {tmp}/r.json: invalid JSON (int too large to convert to float)\n"),
    "simulate-temperatures-text": _recipe_case(
        {"kind": "thermal_series", "truth": {"tau": 163.0, "tau_p": 83.0, "e_p": 28.0},
         "sampling": {"temperatures": "abc"}, "noise": {"kind": "none"}}, "'temperatures' must"),
    "simulate-temperatures-nan": _recipe_case(
        {"kind": "thermal_series", "truth": {"tau": 163.0, "tau_p": 83.0, "e_p": 28.0},
         "sampling": {"temperatures": [4.0, math.nan, 50.0]}, "noise": {"kind": "none"}},
        "'temperatures' must be a list of finite reals > 0"),
    "simulate-temperatures-zero": _recipe_case(
        {"kind": "thermal_series", "truth": {"tau": 163.0, "tau_p": 83.0, "e_p": 28.0},
         "sampling": {"temperatures": [0.0, 50.0]}, "noise": {"kind": "none"}},
        "'temperatures' must be a list of finite reals > 0"),
    **{f"simulate-{kind}-temperature-{bad}": _recipe_case(
        {"kind": kind, "truth": {**truth, "temperature": bad}, **sampling},
        f"'temperature' must be a finite real > 0, got {bad}")
       for kind, truth, sampling in (
           ("decay", DECAY_TRUTH, {}),
           ("spectrum", {"zpl": [["a", 1280.0, 0.3, 10.0]]},
            {"sampling": {"wl_start": 1270.0, "wl_end": 1290.0, "step_nm": 0.5}}))
       for bad in (0.0, -5.0, math.nan, math.inf)},
    "simulate-psb-no-sigma": _recipe_case(
        {"kind": "spectrum", "truth": {"psb": [{"i0": 90.0, "delta0": 35.0, "e_ref_nm": 1280.0}]},
         "sampling": {"wl_start": 1255.0, "wl_end": 1300.0, "step_nm": 0.2}},
        "psb entry needs 'sigma'"),
    "simulate-thermal-poisson": _recipe_case(
        {"kind": "thermal_series", "truth": {"tau": 163.0, "tau_p": 83.0, "e_p": 28.0},
         "sampling": {"temperatures": [4.0, 50.0]}},
        "thermal_series noise must be one of none, gaussian, got 'poisson'"),
    "simulate-psb-e-ref-zero": _recipe_case(
        {"kind": "spectrum", "truth": {"psb": [{"i0": 90.0, "sigma": 6.0, "delta0": 35.0,
                                                "e_ref_nm": 0}]},
         "sampling": {"wl_start": 1255.0, "wl_end": 1300.0, "step_nm": 0.2}},
        "'e_ref_nm' must be a real > 0"),
    "simulate-zpl-fwhm-zero": _recipe_case(
        {"kind": "spectrum", "truth": {"zpl": [["a", 1280.0, 0, 10.0]]},
         "sampling": {"wl_start": 1270.0, "wl_end": 1290.0, "step_nm": 0.5}},
        "'zpl' must be a list of [label, center, fwhm > 0, area >= 0] rows"),
    "simulate-zpl-area-negative": _recipe_case(
        {"kind": "spectrum", "truth": {"zpl": [["a", 1280.0, 2.0, -10.0]]},
         "sampling": {"wl_start": 1270.0, "wl_end": 1290.0, "step_nm": 0.5}},
        "'zpl' must be a list of [label, center, fwhm > 0, area >= 0] rows"),
    "simulate-hr-zpl-energy-zero": _recipe_case(
        {"kind": "spectrum", "truth": {"hr": {"modes": [[0.3, 20.0]], "zpl_energy_ev": 0.0}},
         "sampling": {"wl_start": 1255.0, "wl_end": 1300.0, "step_nm": 0.2}},
        "'zpl_energy_ev' must be a real > 0"),
    "simulate-hr-area-negative": _recipe_case(
        {"kind": "spectrum", "truth": {"hr": {"modes": [[0.3, 20.0]], "zpl_energy_ev": 0.9686,
                                              "area_nm": -500.0}},
         "sampling": {"wl_start": 1255.0, "wl_end": 1300.0, "step_nm": 0.2}},
        "'area_nm' must be a real >= 0"),
    "simulate-hr-zpl-below-grid": _recipe_case(
        {"kind": "spectrum", "truth": {"hr": {"modes": [[0.3, 20.0]], "zpl_energy_ev": 0.9686}},
         "sampling": {"wl_start": 1200.0, "wl_end": 1250.0, "step_nm": 0.2}},
        "the ZPL lies below the grid"),
    "simulate-bin-zero": _recipe_case(
        {"sampling": {"t_start": 0.0, "t_end": 60.0, "bin_ns": 0}}, "'bin_ns' must be a real > 0"),
    "simulate-step-zero": _recipe_case(
        {"kind": "spectrum", "truth": {"zpl": [["a", 1280.0, 0.3, 10.0]]},
         "sampling": {"wl_start": 1270.0, "wl_end": 1290.0, "step_nm": 0}},
        "'step_nm' must be a real > 0"),
    "simulate-unknown-key": _recipe_case({"nosie": {"kind": "none"}}, "unknown key 'nosie'"),
    "simulate-unknown-truth-key": _recipe_case(
        {"truth": {**DECAY_TRUTH, "backgound": 5.0}}, "decay truth: unknown key 'backgound'"),
    "simulate-unknown-sampling-key": _recipe_case(
        {"sampling": {"t_start": 0.0, "t_end": 60.0, "bin_ns": 1.0, "bins": 60}},
        "decay sampling: unknown key 'bins'"),
    "simulate-poisson-sigma-frac": _recipe_case(
        {"noise": {"kind": "poisson", "sigma_frac": 0.1}},
        "poisson noise: unknown key 'sigma_frac'"),
    "simulate-unknown-psb-key": _recipe_case(
        {"kind": "spectrum", "truth": {"psb": [{"i0": 90.0, "sigma": 6.0, "delta0": 35.0,
                                                "e_ref_nm": 1280.0, "jmax": 3}]},
         "sampling": {"wl_start": 1255.0, "wl_end": 1300.0, "step_nm": 0.2}},
        "psb entry: unknown key 'jmax'"),
    "simulate-unknown-hr-key": _recipe_case(
        {"kind": "spectrum", "truth": {"hr": {"modes": [[0.3, 20.0]], "zpl_energy_ev": 0.9686,
                                              "area": 500.0}},
         "sampling": {"wl_start": 1255.0, "wl_end": 1300.0, "step_nm": 0.2}},
        "hr: unknown key 'area'"),
    "config-output-dir": ({"run.json": '{"command": "budget", "output_dir": "x"}'},
                          ["--config", "run.json"], "run.json: unknown key 'output_dir'"),
    "config-emit-plot-data": ({"run.json": '{"command": "fit-decay", "emit_plot_data": true}'},
                              ["--config", "run.json"], "run.json: unknown key 'emit_plot_data'"),
    "config-unknown-key": ({"run.json": '{"command": "budget", "colour": "red"}'},
                           ["--config", "run.json"], "run.json: unknown key 'colour'"),
    "config-unknown-parameter": (
        {"run.json": json.dumps({"command": "budget", "parameters": {
            "tau_rad": 704, "tau_tot": 163, "dw": 0.39, "s": 0.66, "colour": 1}})},
        ["--config", "run.json"], "run.json: unknown budget parameters --colour=1"),
    "config-inputs-hash-number": ({"run.json": '{"command": "budget", "inputs": {"a": 1}}'},
                                  ["--config", "run.json"], "run.json"),
    # a simulate manifest written while simulate took --out
    "config-simulate-out": (
        {"run.json": json.dumps({"command": "simulate", "parameters": {
            "spec": "r.json", "outfile": "t.txt", "out": "."}})},
        ["--config", "run.json"], "run.json: unknown simulate parameters --out=."),
    "config-parameter-refused": (
        {"run.json": json.dumps({"command": "budget", "parameters": {
            "tau_rad": "abc", "tau_tot": 163, "dw": 0.39, "s": 0.66}})},
        ["--config", "run.json"], "run.json: argument --tau-rad: invalid float value: 'abc'"),
}


@pytest.mark.parametrize("files, argv, named", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_input_exit_2(tmp_path, capsys, files, argv, named):
    for name, text in files.items():
        if text is not None:
            (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in files or a in ("out", "deep/new/out") else a
            for a in argv]
    assert run(*argv) == 2
    err = capsys.readouterr().err
    if named.startswith("error: "):
        assert err == named.replace("{tmp}", str(tmp_path))
    else:
        assert err.startswith("error: ") and named in err
    # a message names each file once: no handler adds a path the error has
    for name in files:
        assert err.count(str(tmp_path / name)) <= 1, name
    # and a refused run makes no --out directory, nor any parent of one
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "deep").exists()


def test_parser_keeps_no_state_between_runs(decay_files):
    tmp_path, trace = decay_files
    for name, plot in (("a", ["--plot"]), ("b", [])):
        assert run("fit-decay", "--trace", str(trace), "--pulse-ns", "100",
                   "--out", str(tmp_path / name), *plot) == 0
    manifest = json.loads((tmp_path / "b" / "fit-decay_manifest.json").read_text())
    assert manifest["parameters"]["plot"] is False
    assert (tmp_path / "a" / "fit-decay_model.txt").exists()
    assert not (tmp_path / "b" / "fit-decay_model.txt").exists()


EXIT_CODES = {
    "SicplError": 2, "ValidationError": 2, "FitError": 3, "EvaluationError": 3,
    "DegenerateFitError": 3,
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_error_classes_map_to_exit_codes(monkeypatch, capsys, tmp_path):
    from sicpl import cli
    from sicpl.errors import SicplError

    classes = {cls.__name__: cls for cls in (SicplError, *_subclasses(SicplError))}
    assert set(classes) == set(EXIT_CODES)
    for name, code in EXIT_CODES.items():
        def fail(args, inputs, cls=classes[name]):
            raise cls("boom")
        monkeypatch.setitem(cli.HANDLERS, "zpl", fail)
        assert run("zpl", "--spectrum", "s", "--zpl-config", "c",
                   "--out", str(tmp_path)) == code, name
        prefix = "fit error: " if code == 3 else "error: "
        assert capsys.readouterr().err == prefix + "boom\n"


def _spectrum_files(tmp_path, splitting=1.47, step_nm=0.2):
    """A spectrum with the three ZPLs and both sideband series, and a
    comma-delimited ZPL config for it. At 0.2 nm a pixel every ZPL is
    resolution-limited; a splitting off 1.47 meV draws zpl's warning."""
    from sicpl.io import save_two_column
    from sicpl.spectrum import EV_NM_MEV
    from sicpl.synth import GeneratorSpec, generate

    e3 = EV_NM_MEV / 1280.0
    c2 = EV_NM_MEV / (e3 + splitting)
    cb = EV_NM_MEV / (e3 - 40.0)
    truth = {
        "zpl": [("alpha3", 1280.0, 0.30, 700.0), ("alpha2", c2, 0.30, 300.0),
                ("beta", cb, 0.30, 400.0)],
        "psb": [{"i0": 90.0, "sigma": 6.0, "delta0": 35.0, "j_max": 10,
                 "doublet": [splitting, 300.0 / 700.0], "e_ref_nm": 1280.0},
                {"i0": 230.0, "sigma": 6.0, "delta0": 50.0, "j_max": 3,
                 "e_ref_nm": cb}],
    }
    sp = generate(GeneratorSpec(
        seed=5, kind="spectrum", truth=truth,
        sampling={"wl_start": 1255.0, "wl_end": 1470.0, "step_nm": step_nm}))
    data = tmp_path / "spec.txt"
    save_two_column(data, sp.wavelengths, sp.intensities)
    lines = tmp_path / "lines.txt"
    lines.write_text(f"# label, center, window\nalpha3, 1280.0, 3.0\n"
                     f"alpha2,{c2:.6f},3.0\nbeta {cb:.6f}, 4.0  # beta line\n")
    return data, lines


def test_information_only_sidecar_keys(decay_files):
    # a sidecar may carry every SIDECAR_KEYS key; fit-decay reads
    # pulse_time_ns and stores temperature_K on the trace, and the other
    # keys change no report
    tmp_path, trace = decay_files
    read = "pulse_time_ns = 100\ntemperature_K = 4\n"
    full = read + ("power_mW = 2.5\nband_center_nm = 1280\nband_width_nm = 20\n"
                   "polarization_deg = 30\nlabel = run7\n")
    assert {line.split(" = ")[0] for line in full.splitlines()} == SIDECAR_KEYS
    reports = []
    for name, text in (("read", read), ("full", full)):
        meta = tmp_path / f"{name}.meta"
        meta.write_text(text)
        out = tmp_path / name
        assert run("fit-decay", "--trace", str(trace), "--meta", str(meta),
                   "--out", str(out)) == 0
        reports.append((out / "fit-decay_report.txt").read_bytes())
    assert reports[0] == reports[1]


def _sha256(path):
    import hashlib
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_manifest_records_resolved_options_and_inputs(decay_files, tmp_path):
    from sicpl.cli import build_parser

    _, trace = decay_files
    meta = tmp_path / "trace.meta"
    meta.write_text("pulse_time_ns = 100\ntemperature_K = 4\n")
    spectrum, lines = _spectrum_files(tmp_path)
    zpl = ["--spectrum", str(spectrum), "--zpl-config", str(lines)]
    psb = ["fit-psb", *zpl, "--partition-mev", "60"]
    runs = [
        (["fit-decay", "--trace", str(trace), "--meta", str(meta), "--pulse-ns", "100",
          "--window", "110,1500", "--out", str(tmp_path / "fit-decay")], [trace, meta]),
        ([*psb, "--out", str(tmp_path / "fit-psb")], [spectrum, lines]),
        # fit-psb reads the result zpl wrote to the same --out
        (["zpl", *zpl, "--out", str(tmp_path / "zpl")], [spectrum, lines]),
        ([*psb, "--out", str(tmp_path / "zpl")],
         [spectrum, lines, tmp_path / "zpl" / "zpl_result.json",
          tmp_path / "zpl" / "zpl_spectrum.npy"]),
    ]
    for argv, inputs in runs:
        assert run(*argv) == 0
        command, out = argv[0], argv[-1]
        with open(os.path.join(out, f"{command}_manifest.json")) as fh:
            manifest = json.load(fh)
        assert manifest["parameters"] == vars(build_parser().parse_args(argv))
        assert manifest["inputs"] == {str(p): _sha256(p) for p in inputs}


def test_replay_refuses_a_changed_input(decay_files, capsys):
    tmp_path, trace = decay_files
    out = tmp_path / "fit"
    assert run("fit-decay", "--trace", str(trace), "--pulse-ns", "100", "--out", str(out)) == 0
    trace.write_text(trace.read_text() + "# edited\n")
    capsys.readouterr()
    assert run("--config", str(out / "fit-decay_manifest.json")) == 2
    assert f"input {trace} changed" in capsys.readouterr().err


def _counting(monkeypatch, name):
    """The list of calls to the function `name` that cli runs, from now on."""
    from sicpl import cli

    calls = []
    original = getattr(cli, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, name, counted)
    return calls


PSB_OUTPUTS = ("fit-psb_report.txt", "fit-psb_model.txt", "fit-psb_beta_residual.txt")


@pytest.mark.parametrize("splitting, step_nm, limited, warned",
                         [(1.47, 0.2, True, False), (2.2, 0.1, False, True)],
                         ids=["resolution-limited", "splitting-warning"])
def test_fit_psb_reuses_the_zpl_result(tmp_path, monkeypatch, capsys, splitting, step_nm,
                                       limited, warned):
    spectrum, lines = _spectrum_files(tmp_path, splitting, step_nm)
    common = ["--spectrum", str(spectrum), "--zpl-config", str(lines)]
    psb = ["fit-psb", *common, "--partition-mev", "60", "--plot"]
    fresh, shared = tmp_path / "fresh", tmp_path / "shared"
    assert run(*psb, "--out", str(fresh)) == 0
    assert run("zpl", *common, "--out", str(shared)) == 0
    stored = json.loads((shared / "zpl_result.json").read_text())
    assert [line["label"] for line in stored["lines"]] == ["alpha3", "alpha2", "beta"]
    assert {line["fwhm_is_upper_bound"] for line in stored["lines"]} == {limited}
    assert bool(stored["warnings"]) is warned
    # the spectrum zpl parsed, as load_spectrum returned it
    npy = shared / "zpl_spectrum.npy"
    data = np.load(npy, allow_pickle=False)
    parsed = load_spectrum(spectrum)
    assert data.dtype == np.float64 and data.shape == (2, parsed.wavelengths.size)
    assert np.array_equal(data, [parsed.wavelengths, parsed.intensities])
    assert stored["spectrum_npy_sha256"] == _sha256(npy)
    calls = _counting(monkeypatch, "find_zpls")
    loads = _counting(monkeypatch, "load_spectrum")
    tables = _counting(monkeypatch, "read_table")
    assert run(*psb, "--out", str(shared)) == 0
    assert calls == [] and loads == [] and tables == []
    for name in PSB_OUTPUTS:
        assert (shared / name).read_bytes() == (fresh / name).read_bytes()
    # the manifest lists the result and the spectrum, so a replay checks both
    report = shared / "fit-psb_report.txt"
    report.unlink()
    manifest = str(shared / "fit-psb_manifest.json")
    assert run("--config", manifest) == 0
    assert report.read_bytes() == (fresh / report.name).read_bytes()
    assert loads == []
    saved = npy.read_bytes()
    npy.write_bytes(saved[:-1] + bytes([saved[-1] ^ 1]))
    capsys.readouterr()
    assert run("--config", manifest) == 2
    assert f"input {npy} changed" in capsys.readouterr().err
    npy.write_bytes(saved)
    result = shared / "zpl_result.json"
    result.write_text(result.read_text().replace('"tool_version"', '"tool_version" '))
    capsys.readouterr()
    assert run("--config", manifest) == 2
    assert f"input {result} changed" in capsys.readouterr().err


def _edit_result(edit):
    def change(result, npy, lines, other):
        data = json.loads(result.read_text())
        edit(data)
        result.write_text(json.dumps(data))
    return change


def _stamped(write):
    """A change that writes another zpl_spectrum.npy by `write(path,
    arrays)` and records its SHA-256 in the result, which stays valid."""
    def change(result, npy, lines, other):
        write(npy, np.load(npy))
        data = json.loads(result.read_text())
        data["spectrum_npy_sha256"] = _sha256(npy)
        result.write_text(json.dumps(data))
    return change


# name: change(zpl result, stored spectrum, ZPL config, another spectrum)
# made after zpl ran; each leaves fit-psb to parse the spectrum text and
# fit its own lines, since it takes both stored files or neither
STALE_RESULTS = {
    "other-spectrum": lambda result, npy, lines, other: run(
        "zpl", "--spectrum", str(other), "--zpl-config", str(lines),
        "--out", str(result.parent)),
    "edited-config": lambda result, npy, lines, other: lines.write_text(
        lines.read_text().replace("alpha3, 1280.0, 3.0", "alpha3, 1280.0, 2.5")),
    "truncated": lambda result, npy, lines, other: result.write_bytes(
        result.read_bytes()[:-40]),
    "nan-center": _edit_result(lambda data: data["lines"][0].update(center=math.nan)),
    "renamed-line": _edit_result(lambda data: data["lines"][0].update(label="alpha1")),
    "infinite-area": _edit_result(lambda data: data["lines"][2].update(area=math.inf)),
    "zero-center": _edit_result(lambda data: data["lines"][0].update(center=0.0)),
    "text-center": _edit_result(lambda data: data["lines"][0].update(center="1280.0")),
    "number-bound-flag": _edit_result(
        lambda data: data["lines"][1].update(fwhm_is_upper_bound=1)),
    "negative-area": _edit_result(lambda data: data["lines"][0].update(area=-5.0)),
    "zero-fwhm": _edit_result(lambda data: data["lines"][0].update(fwhm=0.0)),
    "negative-center-margin": _edit_result(
        lambda data: data["lines"][0].update(center_sigma3=-1.0)),
    # a JSON int is no float, though its value is inside the window
    "integer-center": _edit_result(lambda data: data["lines"][0].update(center=1280)),
    # edits that keep each line inside its config row's window
    "area-edited-in-window": _edit_result(lambda data: data["lines"][0].update(
        area=data["lines"][0]["area"] * 1.5)),
    "center-moved-in-window": _edit_result(lambda data: data["lines"][0].update(
        center=data["lines"][0]["center"] + 0.2)),
    "lines-digest-edited": _edit_result(lambda data: data.update(
        lines_sha256=data["lines_sha256"][::-1])),
    # a result from before zpl stored the digest of its lines
    "no-lines-digest-key": _edit_result(lambda data: data.pop("lines_sha256")),
    # a result from before zpl stored its spectrum
    "no-npy-digest-key": _edit_result(lambda data: data.pop("spectrum_npy_sha256")),
    "not-an-object": lambda result, npy, lines, other: result.write_text("[1, 2]"),
    "npy-missing": lambda result, npy, lines, other: npy.unlink(),
    "npy-edited-byte": lambda result, npy, lines, other: npy.write_bytes(
        npy.read_bytes()[:-1] + bytes([npy.read_bytes()[-1] ^ 1])),
    "npy-truncated": _stamped(lambda npy, a: npy.write_bytes(npy.read_bytes()[:-40])),
    "npy-pickled": _stamped(
        lambda npy, a: np.save(npy, a.astype(object), allow_pickle=True)),
    "npy-three-rows": _stamped(lambda npy, a: np.save(npy, np.vstack([a, a[:1]]))),
    "npy-float32": _stamped(lambda npy, a: np.save(npy, a.astype(np.float32))),
}


@pytest.mark.parametrize("change", STALE_RESULTS.values(), ids=STALE_RESULTS.keys())
def test_fit_psb_refits_beside_a_stale_zpl_result(tmp_path, monkeypatch, change):
    spectrum, lines = _spectrum_files(tmp_path)
    (tmp_path / "other").mkdir()
    other, _ = _spectrum_files(tmp_path / "other", 2.2, 0.1)
    common = ["--spectrum", str(spectrum), "--zpl-config", str(lines)]
    fresh, shared = tmp_path / "fresh", tmp_path / "shared"
    assert run("zpl", *common, "--out", str(shared)) == 0
    change(shared / "zpl_result.json", shared / "zpl_spectrum.npy", lines, other)
    psb = ["fit-psb", *common, "--partition-mev", "60", "--plot"]
    assert run(*psb, "--out", str(fresh)) == 0
    calls = _counting(monkeypatch, "find_zpls")
    loads = _counting(monkeypatch, "load_spectrum")

    def unpickle(*args, **kwargs):
        raise AssertionError("the stored spectrum was unpickled")

    monkeypatch.setattr(pickle, "load", unpickle)
    assert run(*psb, "--out", str(shared)) == 0
    assert len(calls) == 1 and loads == [(str(spectrum),)]
    for name in PSB_OUTPUTS:
        assert (shared / name).read_bytes() == (fresh / name).read_bytes()
    manifest = json.loads((shared / "fit-psb_manifest.json").read_text())
    for name in ("zpl_result.json", "zpl_spectrum.npy"):
        assert str(shared / name) not in manifest["inputs"]


def _swap_alpha_labels(lines, out):
    text = lines.read_text().replace("alpha3,", "@,").replace("alpha2,", "alpha3,")
    lines.write_text(text.replace("@,", "alpha2,"))


def _alpha3_area_zero(lines, out):
    """zpl's stored result for `lines`, with an alpha3 area of 0 that
    fit-psb takes as stored: a line may hold no counts."""
    assert run("zpl", "--spectrum", str(lines.parent / "spec.txt"), "--zpl-config",
               str(lines), "--out", str(out)) == 0
    data = json.loads((out / "zpl_result.json").read_text())
    data["lines"][0].update(area=0.0)
    data["lines_sha256"] = hashlib.sha256(
        json.dumps(data["lines"], sort_keys=True).encode()).hexdigest()
    (out / "zpl_result.json").write_text(json.dumps(data))


# name: (change(ZPL config, --out) made before fit-psb runs, its error);
# the sideband doublet comes from the fitted alpha2 and alpha3 lines alone
DOUBLET_REFUSED = {
    "alpha3-only": (lambda lines, out: lines.write_text("alpha3, 1280.0, 3.0\n"),
                    "zpls must contain the 'alpha2' line of the alpha doublet"),
    "alpha2-below-alpha3": (_swap_alpha_labels,
                            "'alpha2' must lie above 'alpha3', splitting -1.470 meV"),
    "alpha3-area-zero": (_alpha3_area_zero,
                         "the 'alpha2'/'alpha3' doublet ratio needs an 'alpha3' area > 0"),
}


@pytest.mark.parametrize("change, message", DOUBLET_REFUSED.values(),
                         ids=DOUBLET_REFUSED.keys())
def test_fit_psb_refuses_a_set_without_the_alpha_doublet(tmp_path, capsys, change, message):
    spectrum, lines = _spectrum_files(tmp_path)
    out = tmp_path / "out"
    change(lines, out)
    capsys.readouterr()
    assert run("fit-psb", "--spectrum", str(spectrum), "--zpl-config", str(lines),
               "--partition-mev", "60", "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (out / "fit-psb_report.txt").exists()


# name: an edit of the stored doublet splitting or warnings, which are for
# readers: fit-psb reads the lines only, and ZplSet derives both from them
READER_FIELDS = {
    "splitting-edited": _edit_result(lambda data: data.update(doublet_splitting_mev=1.0)),
    "splitting-text": _edit_result(lambda data: data.update(doublet_splitting_mev="1.47")),
    "warnings-edited": _edit_result(lambda data: data.update(warnings=["edited", 1])),
}


@pytest.mark.parametrize("edit", READER_FIELDS.values(), ids=READER_FIELDS.keys())
def test_fit_psb_reads_only_the_lines_of_the_zpl_result(tmp_path, monkeypatch, edit):
    spectrum, lines = _spectrum_files(tmp_path)
    common = ["--spectrum", str(spectrum), "--zpl-config", str(lines)]
    psb = ["fit-psb", *common, "--partition-mev", "60", "--plot"]
    fresh, shared = tmp_path / "fresh", tmp_path / "shared"
    assert run(*psb, "--out", str(fresh)) == 0
    assert run("zpl", *common, "--out", str(shared)) == 0
    result = shared / "zpl_result.json"
    edit(result, shared / "zpl_spectrum.npy", lines, None)
    calls = _counting(monkeypatch, "find_zpls")
    assert run(*psb, "--out", str(shared)) == 0
    assert calls == []
    manifest = json.loads((shared / "fit-psb_manifest.json").read_text())
    assert manifest["inputs"][str(result)] == _sha256(result)
    for name in PSB_OUTPUTS:
        assert (shared / name).read_bytes() == (fresh / name).read_bytes()


# name: (change to the spectrum after zpl stored its result, error text)
BAD_SPECTRA = {
    "missing": (lambda spectrum: spectrum.unlink(),
                "cannot read {spectrum}: No such file or directory"),
    "non-numeric": (lambda spectrum: spectrum.write_text("1270 5\n1271 many\n"),
                    "{spectrum}:2: non-numeric value in '1271 many'"),
}


@pytest.mark.parametrize("change, message", BAD_SPECTRA.values(), ids=BAD_SPECTRA.keys())
def test_fit_psb_bad_spectrum_beside_a_stored_result_exit_2(tmp_path, capsys, change,
                                                            message):
    # the stored result and spectrum are for the spectrum as zpl read it
    spectrum, lines = _spectrum_files(tmp_path)
    common = ["--spectrum", str(spectrum), "--zpl-config", str(lines)]
    assert run("zpl", *common, "--out", str(tmp_path)) == 0
    change(spectrum)
    capsys.readouterr()
    assert run("fit-psb", *common, "--partition-mev", "60", "--out", str(tmp_path)) == 2
    assert capsys.readouterr().err == f"error: {message.format(spectrum=spectrum)}\n"


def test_every_option_flag_spells_its_dest():
    # a replay turns each manifest parameter `d` into the flag --d-with-dashes
    import argparse

    from sicpl.cli import HANDLERS, build_parser

    sub, = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(HANDLERS)
    for command, parser in sub.choices.items():
        for action in parser._actions:
            if action.dest != "help":
                flag = "--" + action.dest.replace("_", "-")
                assert flag in action.option_strings, (command, action.dest)


@pytest.fixture
def replay_files(decay_files):
    """Every input file the replayed runs read, and an empty output directory."""
    from sicpl.decay import thermal_lifetime

    tmp_path, trace = decay_files
    inputs = tmp_path / "in"
    inputs.mkdir()
    spectrum, lines = _spectrum_files(inputs)
    files = {"trace": trace, "spec": tmp_path / "recipe.json", "spectrum": spectrum,
             "lines": lines, "meta": inputs / "trace.meta", "points": inputs / "pts.txt",
             "budget_k": inputs / "budget_k.json", "budget_h": inputs / "budget_h.json",
             "out": tmp_path / "out"}
    files["meta"].write_text("pulse_time_ns = 100\ntemperature_K = 4\n")
    files["points"].write_text("".join(
        f"{T} {thermal_lifetime(float(T), 163.0, 83.0, 28.0):.6f} 3\n"
        for T in (4, 25, 50, 75, 100, 125, 150, 175)))
    files["budget_k"].write_text(json.dumps({"site": "k", "tau_tot_exp": 163.0}))
    files["budget_h"].write_text(json.dumps({"site": "h", "tau_tot_exp": 43.0}))
    return {name: str(path) for name, path in files.items()}


REPLAY = {
    "fit-decay": ["fit-decay", "--trace", "{trace}", "--meta", "{meta}", "--window", "110,1500",
                  "--kind", "single", "--plot"],
    "fit-thermal": ["fit-thermal", "--points", "{points}"],
    "zpl": ["zpl", "--spectrum", "{spectrum}", "--zpl-config", "{lines}"],
    "fit-psb": ["fit-psb", "--spectrum", "{spectrum}", "--zpl-config", "{lines}",
                "--partition-mev", "60", "--area-correction", "1.05", "--plot"],
    "budget": ["budget", "--tau-rad", "704", "--tau-tot", "163", "--dw", "0.39", "--s", "0.66"],
    "budget-site": ["budget", "--tau-rad", "277", "--tau-tot", "43", "--dw", "0.22",
                    "--s", "0.79", "--site=-h", "--tau-nr-ref", "47"],
    "cavity": CAVITY + ["--sweep", "finesse=100:100000:9", "--extraction", "0.5"],
    "simulate": ["simulate", "--spec", "{spec}", "--outfile", "{out}/trace.txt"],
    "report": ["report", "--inputs", "{budget_k}", "{budget_h}"],
}


def _outputs(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("argv", REPLAY.values(), ids=REPLAY.keys())
def test_manifest_replays_its_run(replay_files, argv):
    from pathlib import Path

    out = Path(replay_files["out"])
    # simulate writes into {out} by its --outfile, and takes no --out
    out_flag = [] if argv[0] == "simulate" else ["--out", str(out)]
    assert run(*[a.format(**replay_files) for a in argv], *out_flag) == 0
    first = _outputs(out)
    manifest = out / f"{argv[0]}_manifest.json"
    assert manifest.name in first and len(first) > 1
    for _ in range(2):
        for name in first:  # the replay must write every output anew
            if name != manifest.name:
                (out / name).unlink()
        assert run("--config", str(manifest)) == 0
        assert _outputs(out) == first


def _optional_flags():
    """(command, flag, takes a value) of every optional flag of every
    command but --out, the output directory."""
    import argparse

    from sicpl.cli import build_parser

    sub, = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [(command, action.option_strings[-1], action.nargs != 0)
            for command, parser in sub.choices.items() for action in parser._actions
            if action.option_strings and not action.required
            and action.dest not in ("help", "out")]


# (command, flag): the tokens that replace the flag in the command's REPLAY
# run, or are added to it where the run leaves the flag out; each must
# change one of the run's outputs
ALTERNATES = {
    ("fit-decay", "--kind"): ["--kind", "double"],  # a fallback note on the single trace
    ("fit-decay", "--window"): ["--window", "120,1000"],
    ("fit-decay", "--pulse-ns"): ["--pulse-ns", "101"],
    ("fit-decay", "--meta"): ["--meta", "{meta_99}"],
    ("fit-decay", "--plot"): [],
    ("fit-psb", "--area-correction"): ["--area-correction", "1.2"],
    ("fit-psb", "--plot"): [],
    ("budget", "--site"): ["--site", "k"],
    ("budget", "--tau-nr-ref"): ["--tau-nr-ref", "300"],  # tau_NR is 212 ns
    ("cavity", "--n-sic"): ["--n-sic", "2.4"],
    ("cavity", "--wc-um"): ["--wc-um", "3"],
    ("cavity", "--extraction"): ["--extraction", "0.3"],
    ("cavity", "--sweep"): ["--sweep", "finesse=100:1000:3"],
}


OPTIONAL_FLAGS = _optional_flags()


@pytest.mark.parametrize("command, flag, takes_value", OPTIONAL_FLAGS,
                         ids=[f"{c}{f}" for c, f, _ in OPTIONAL_FLAGS])
def test_every_option_changes_an_output(replay_files, command, flag, takes_value):
    # an option no output depends on is one to delete
    from pathlib import Path

    meta_99 = Path(replay_files["meta"]).with_name("pulse99.meta")
    meta_99.write_text("pulse_time_ns = 99\ntemperature_K = 4\n")
    files = {**replay_files, "meta_99": str(meta_99)}
    argv = [a.format(**files) for a in REPLAY[command]]
    changed = list(argv)
    if flag in changed:
        i = changed.index(flag)
        del changed[i:i + 1 + takes_value]
    changed += [a.format(**files) for a in ALTERNATES[command, flag]]
    outputs = []
    for name, args in (("a", argv), ("b", changed)):
        out = Path(replay_files["out"]) / name
        assert run(*args, "--out", str(out)) == 0
        outputs.append({k: v for k, v in _outputs(out).items()
                        if k != f"{command}_manifest.json"})
    assert outputs[0] != outputs[1]
