"""Command-line pipeline: exit codes, reports, manifests, determinism."""

import json
import os

import numpy as np
import pytest

from sicpl.cli import main
from sicpl.decay import thermal_lifetime


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
    assert run("simulate", "--spec", str(spec), "--outfile", str(trace),
               "--out", str(tmp_path)) == 0
    return tmp_path, trace


def test_fit_decay_pipeline(decay_files, capsys):
    tmp_path, trace = decay_files
    out = tmp_path / "fit"
    code = run("fit-decay", "--trace", str(trace), "--pulse-ns", "100",
               "--plot", "--out", str(out))
    assert code == 0
    report = (out / "fit-decay_report.txt").read_text()
    assert "tau1 [ns]" in report and "3 sigma" in report
    # truth lifetime inside the reported window (spot value, frozen from
    # an independent fit of the same seed)
    assert "164.38" in report
    assert (out / "fit-decay_model.txt").exists()
    manifest = json.loads((out / "fit-decay_manifest.json").read_text())
    assert manifest["command"] == "fit-decay"
    assert str(trace) in manifest["inputs"]
    assert len(manifest["config_hash"]) == 64


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
    assert run("simulate", "--spec", str(spec2), "--outfile", str(t2),
               "--out", str(tmp_path)) == 0
    assert t2.read_bytes() == trace.read_bytes()


# kind: (truth, sampling, noise, the x column, the comment lines)
SIMULATED = {
    "spectrum": ({"zpl": [["a", 1280.0, 2.0, 5e4]]},
                 {"wl_start": 1270.0, "wl_end": 1290.0, "step_nm": 0.5}, {"kind": "poisson"},
                 np.arange(41) * 0.5 + 1270.0, ["# wavelength_nm counts"]),
    "thermal_series": ({"tau": 163.0, "tau_p": 83.0, "e_p": 28.0},
                       {"temperatures": [4.0, 50.0, 100.0, 150.0]},
                       {"kind": "gaussian", "sigma_frac": 0.02}, [4.0, 50.0, 100.0, 150.0], []),
    "power_series": ({"c": 3.0, "k": 1.5}, {"powers": [0.5, 1.0, 2.0]}, {"kind": "none"},
                     [0.5, 1.0, 2.0], []),
    "polarization_series": ({"a": 10.0, "b": 40.0, "theta0": 30.0},
                            {"angles": [0.0, 30.0, 90.0, 120.0]},
                            {"kind": "gaussian", "sigma_frac": 0.01}, [0.0, 30.0, 90.0, 120.0], []),
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
    elif kind == "thermal_series":
        tau = thermal_lifetime(rows[:, 0], 163.0, 83.0, 28.0)
        assert np.allclose(rows[:, 2], 0.02 * tau, rtol=1e-8)
        assert np.all(np.abs(y - tau) < 5 * 0.02 * tau)
    elif kind == "power_series":
        assert np.allclose(y, 3.0 * rows[:, 0] ** 1.5, rtol=1e-8)
    else:
        ideal = 10.0 + 40.0 * np.cos(np.radians(rows[:, 0] - 30.0)) ** 2
        assert np.all(np.abs(y - ideal) < 5 * 0.01 * ideal)
    assert (tmp_path / "simulate_manifest.json").exists()


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
CAVITY = ["cavity", "--lambda-nm", "1280", "--finesse", "34000", "--roc-mm", "1.3",
          "--lvac-um", "5", "--lsic-um", "5", "--eta-tot", "0.089"]
# name: (files to write, argv with file names standing for their paths,
#        text the error message must contain)
MALFORMED = {
    "config-bad-json": ({"run.json": '{"command": '}, ["--config", "run.json"], "run.json"),
    "config-not-object": ({"run.json": "[1, 2]"}, ["--config", "run.json"], "run.json"),
    "report-bad-json": ({"b.json": "{'site': 'k'}"},
                        ["report", "--inputs", "b.json", "--out", "out"], "b.json"),
    "thermal-non-numeric": ({"pts.txt": "# T tau sigma\n4 163 3\n25, fast, 3\n"},
                            ["fit-thermal", "--points", "pts.txt", "--out", "out"], "pts.txt:3"),
    "sidecar-non-numeric": ({"t.txt": TRACE, "m.meta": "pulse_time_ns = 20\ntemperature_K = warm\n"},
                            ["fit-decay", "--trace", "t.txt", "--meta", "m.meta", "--out", "out"],
                            "m.meta:2"),
    "window-one-value": ({"t.txt": TRACE}, ["fit-decay", "--trace", "t.txt", "--pulse-ns", "20",
                                            "--window", "5", "--out", "out"], "--window"),
    "window-non-numeric": ({"t.txt": TRACE}, ["fit-decay", "--trace", "t.txt", "--pulse-ns", "20",
                                              "--window", "a,b", "--out", "out"], "--window"),
    "sweep-two-values": ({}, CAVITY + ["--sweep", "finesse=1:2", "--out", "out"], "--sweep"),
    "config-inputs-list": ({"run.json": '{"command": "budget", "inputs": ["a"]}'},
                           ["--config", "run.json"], "run.json"),
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
    "simulate-sampling-no-end": _recipe_case(
        {"sampling": {"t_start": 0.0, "bin_ns": 1.0}}, "decay sampling needs 't_end'"),
    "simulate-seed-text": _recipe_case({"seed": "x"}, "'seed' must"),
    "simulate-pulse-time-text": _recipe_case(
        {"truth": {**DECAY_TRUTH, "pulse_time": "x"}}, "'pulse_time' must"),
    "simulate-bin-text": _recipe_case(
        {"sampling": {"t_start": 0.0, "t_end": 60.0, "bin_ns": "x"}}, "'bin_ns' must"),
    "simulate-sigma-frac-negative": _recipe_case(
        {"noise": {"kind": "gaussian", "sigma_frac": -1}}, "'sigma_frac' must"),
    "simulate-sigma-frac-text": _recipe_case(
        {"noise": {"kind": "gaussian", "sigma_frac": "a"}}, "'sigma_frac' must"),
    "simulate-temperatures-text": _recipe_case(
        {"kind": "thermal_series", "truth": {"tau": 163.0, "tau_p": 83.0, "e_p": 28.0},
         "sampling": {"temperatures": "abc"}, "noise": {"kind": "none"}}, "'temperatures' must"),
    "simulate-psb-no-sigma": _recipe_case(
        {"kind": "spectrum", "truth": {"psb": [{"i0": 90.0, "delta0": 35.0, "e_ref_nm": 1280.0}]},
         "sampling": {"wl_start": 1255.0, "wl_end": 1300.0, "step_nm": 0.2}},
        "psb entry needs 'sigma'"),
    "simulate-power-poisson": _recipe_case(
        {"kind": "power_series", "truth": {"c": 3.0, "k": 1.0}, "sampling": {"powers": [1.0, 2.0]}},
        "power_series noise must be"),
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
    "config-parameter-refused": (
        {"run.json": json.dumps({"command": "budget", "parameters": {
            "tau_rad": "abc", "tau_tot": 163, "dw": 0.39, "s": 0.66}})},
        ["--config", "run.json"], "run.json: argument --tau-rad: invalid float value: 'abc'"),
}


@pytest.mark.parametrize("files, argv, named", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_input_exit_2(tmp_path, capsys, files, argv, named):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in files or a == "out" else a for a in argv]
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err


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
    "ValidationError": 2, "ParseError": 2, "DomainError": 2, "EvaluationError": 3,
    "DegenerateFitError": 3, "InsufficientBaselineError": 2, "InsufficientDataError": 3,
    "LineNotFoundError": 3, "ModelInconsistencyError": 3, "ConfigurationError": 2,
    "AggregationError": 2, "NoDataError": 3,
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_error_classes_map_to_exit_codes(monkeypatch, capsys, tmp_path):
    from sicpl import cli
    from sicpl.errors import SicplError

    classes = {cls.__name__: cls for cls in _subclasses(SicplError)}
    assert set(classes) == set(EXIT_CODES)
    for name, code in EXIT_CODES.items():
        def fail(args, cls=classes[name]):
            raise cls("boom")
        monkeypatch.setitem(cli.HANDLERS, "zpl", fail)
        assert run("zpl", "--spectrum", "s", "--zpl-config", "c",
                   "--out", str(tmp_path)) == code, name
        prefix = "fit error: " if code == 3 else "error: "
        assert capsys.readouterr().err == prefix + "boom\n"


def _spectrum_files(tmp_path):
    """A spectrum with the three ZPLs and both sideband series, and a
    comma-delimited ZPL config for it."""
    from sicpl.io import save_two_column
    from sicpl.spectrum import EV_NM_MEV
    from sicpl.synth import GeneratorSpec, generate

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
    lines = tmp_path / "lines.txt"
    lines.write_text(f"# label, center, window\nalpha3, 1280.0, 3.0\n"
                     f"alpha2,{c2:.6f},3.0\nbeta {cb:.6f}, 4.0  # beta line\n")
    return data, lines


def _sha256(path):
    import hashlib
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_manifest_records_resolved_options_and_inputs(decay_files, tmp_path):
    from sicpl.cli import build_parser

    _, trace = decay_files
    meta = tmp_path / "trace.meta"
    meta.write_text("pulse_time_ns = 100\ntemperature_K = 4\n")
    spectrum, lines = _spectrum_files(tmp_path)
    smeta = tmp_path / "spec.meta"
    smeta.write_text("power_mW = 2\n")
    runs = [
        (["fit-decay", "--trace", str(trace), "--meta", str(meta), "--pulse-ns", "100",
          "--window", "110,1500", "--out", str(tmp_path / "fit-decay")], [trace, meta]),
        (["fit-psb", "--spectrum", str(spectrum), "--zpl-config", str(lines),
          "--partition-mev", "60", "--meta", str(smeta), "--temperature", "5",
          "--out", str(tmp_path / "fit-psb")], [spectrum, lines, smeta]),
    ]
    for argv, inputs in runs:
        assert run(*argv) == 0
        command = argv[0]
        manifest = json.loads((tmp_path / command / f"{command}_manifest.json").read_text())
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
    assert run(*[a.format(**replay_files) for a in argv], "--out", str(out)) == 0
    first = _outputs(out)
    manifest = out / f"{argv[0]}_manifest.json"
    assert manifest.name in first and len(first) > 1
    for _ in range(2):
        for name in first:  # the replay must write every output anew
            if name != manifest.name:
                (out / name).unlink()
        assert run("--config", str(manifest)) == 0
        assert _outputs(out) == first
