"""Command-line front end binding ingestion, fitting, budgeting, cavity
estimation and simulation into reproducible pipelines.

Each command handler computes its report and any extra files; `main`
writes them, then a manifest (command, every resolved option, config
hash, hashes of every input file, tool and numpy versions);
`--config <manifest>` replays that run identically. `zpl` also writes
its lines to `zpl_result.json` and the spectrum it parsed to
`zpl_spectrum.npy`. `fit-psb` takes both or neither: both when the
result records the spectrum and ZPL config it was given, and its lines
and the `.npy` have the SHA-256s it records, so a spectrum is parsed and
its ZPLs fitted once (it reads the result's lines; the splitting and
warnings are for readers); otherwise it parses the spectrum and fits the
ZPLs itself.
Exit codes: 0 success, 1 usage error, otherwise the `exit_code` of the
error raised: 2 validation error (an unreadable or unwritable file too),
3 fit failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
from dataclasses import asdict
from io import BytesIO

import numpy as np

from . import __version__
from .constants import EV_NM, N_SIC_DEFAULT
from .datatypes import Spectrum
from .decay import decay_counts, fit_decay, fit_thermal
from .errors import SicplError, ValidationError
from .io import (format_table, load_sidecar, load_spectrum, load_trace, read_json, read_table,
                 save_two_column)
from .photophysics import CavityParams, budget, cooperativity, finesse_sweep
from .spectrum import ZplLine, ZplSet, find_zpls, fit_psb, partition_dw
from .synth import GeneratorSpec, generate

EXIT_OK = 0
EXIT_USAGE = 1

# options naming a file a command reads; the manifest hashes each one given
INPUT_OPTIONS = ("trace", "meta", "points", "spectrum", "zpl_config", "spec", "inputs")
# the keys of a manifest; a replay reads the last three only as information
MANIFEST_KEYS = ("command", "parameters", "inputs", "config_hash", "tool_version",
                 "numpy_version")
# the lines `zpl` found, in its --out, for `fit-psb` on the same inputs
ZPL_RESULT = "zpl_result.json"
# and the spectrum it parsed: the sorted (wavelengths, intensities) as one
# (2, n) float64 array, whose SHA-256 the result records under this key
ZPL_SPECTRUM = "zpl_spectrum.npy"
ZPL_SPECTRUM_KEY = "spectrum_npy_sha256"
# and of its lines: the `lines` list dumped as JSON with sorted keys
ZPL_LINES_KEY = "lines_sha256"


class _Refused(Exception):
    """argparse refused the arguments; args: the usage text and why."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _Refused(self.format_usage(), message)


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class _Inputs(dict):
    """The SHA-256 of each file one run read, by path; each is hashed once."""

    def digest(self, path):
        if path not in self:
            self[path] = _sha256(path)
        return self[path]


def _json_text(data):
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _write_manifest(out_dir, args, inputs):
    params = vars(args)
    for key in INPUT_OPTIONS:
        value = params.get(key)
        if value is not None:
            for path in value if isinstance(value, list) else [value]:
                inputs.digest(path)
    manifest = {
        "command": args.command,
        "tool_version": __version__,
        # simulate's draws come from numpy's Generator, whose streams may
        # change between numpy releases
        "numpy_version": np.__version__,
        "parameters": params,
        "config_hash": hashlib.sha256(
            json.dumps(params, sort_keys=True).encode()
        ).hexdigest(),
        "inputs": dict(inputs),
    }
    with open(os.path.join(out_dir, f"{args.command}_manifest.json"), "w") as fh:
        fh.write(_json_text(manifest))


def _report_lines(title, rows, notes=(), fit=None):
    """Report text: title, rows and notes, with a note if `fit` hit the iteration cap."""
    lines = [title, "=" * len(title)]
    width = max((len(r[0]) for r in rows), default=0)
    for name, value, *margin in rows:
        if margin and margin[0] is not None:
            lines.append(f"{name:<{width}}  {value:.6g} +/- {margin[0]:.3g} (3 sigma)")
        elif isinstance(value, float):
            lines.append(f"{name:<{width}}  {value:.6g}")
        else:
            lines.append(f"{name:<{width}}  {value}")
    if fit is not None and not fit.converged:
        notes = [*notes, f"fit did not converge in {fit.n_iterations} iterations"]
    for note in notes:
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"


def _numbers(option, text, sep, types, form):
    """The fields of `text` split on `sep` and converted by `types`."""
    fields = text.split(sep)
    try:
        if len(fields) == len(types):
            return tuple(convert(f) for convert, f in zip(types, fields))
    except ValueError:
        pass
    raise ValidationError(f"{option} must look like {form}, got {text!r}")


def _json_object(path, key, value):
    """`value`, the JSON field `key` of file `path`, which must be an object."""
    if not isinstance(value, dict):
        raise ValidationError(f"{path}: {key!r} must be a JSON object, got {value!r}")
    return value


def _find_zpls(args):
    """(spectrum, ZPLs) of --spectrum and --zpl-config; a row find_zpls refuses names the file."""
    spectrum = load_spectrum(args.spectrum)
    labels, values = read_table(args.zpl_config, "label center_nm window_nm", labelled=True)
    rows = list(zip(labels, *values.T.tolist()))
    try:
        return spectrum, find_zpls(spectrum, rows)
    except ValidationError as exc:
        raise ValidationError(f"{args.zpl_config}: {exc}") from None


def _zpl_stamp(args, inputs):
    """The fields by which a zpl result names the run that wrote it."""
    return {"spectrum_sha256": inputs.digest(args.spectrum),
            "zpl_config_sha256": inputs.digest(args.zpl_config),
            "tool_version": __version__}


def _lines_sha256(lines):
    """The SHA-256 a zpl result records for its `lines` list."""
    return hashlib.sha256(json.dumps(lines, sort_keys=True).encode()).hexdigest()


def _spectrum_npy(spectrum):
    """The bytes of ZPL_SPECTRUM for `spectrum`."""
    buf = BytesIO()
    np.save(buf, np.stack((spectrum.wavelengths, spectrum.intensities)), allow_pickle=False)
    return buf.getvalue()


def _stored(args, inputs):
    """The (spectrum, ZPLs) that `zpl` stored in --out as ZPL_RESULT and
    ZPL_SPECTRUM for this run's spectrum, ZPL config and tool version, or
    None unless both files are there and pass every check. Only the
    result's lines are read; both files join `inputs` only when used."""
    result_path = os.path.join(args.out, ZPL_RESULT)
    npy_path = os.path.join(args.out, ZPL_SPECTRUM)
    try:
        with open(result_path, "rb") as fh:
            raw = fh.read()
        stored = json.loads(raw)
        if not isinstance(stored, dict):
            return None
        # hashing fails on a missing --spectrum or --zpl-config; the reads
        # that follow report it as a run without a result does. Dumping
        # deeply nested lines may recurse too deep, as loading them may
        stamp = {**_zpl_stamp(args, inputs), ZPL_LINES_KEY: _lines_sha256(stored.get("lines"))}
    except (OSError, ValueError, RecursionError):
        return None
    if (stored.keys() != {*stamp, "lines", "doublet_splitting_mev", "warnings",
                          ZPL_SPECTRUM_KEY}
            or any(stored[k] != v for k, v in stamp.items())):
        return None
    try:
        lines = [ZplLine(**entry) for entry in stored["lines"]]
    except (TypeError, ValidationError):
        return None
    digest = stored[ZPL_SPECTRUM_KEY]
    try:
        with open(npy_path, "rb") as fh:
            npy = fh.read()
        if hashlib.sha256(npy).hexdigest() != digest:
            return None
        data = np.load(BytesIO(npy), allow_pickle=False)
        if not (isinstance(data, np.ndarray) and data.dtype == np.float64
                and data.ndim == 2 and len(data) == 2):
            return None
        # as load_spectrum builds it, so every record check runs
        spectrum = Spectrum(wavelengths=data[0], intensities=data[1])
    except (OSError, ValueError, EOFError, ValidationError):
        return None
    inputs[result_path] = hashlib.sha256(raw).hexdigest()
    inputs[npy_path] = digest
    return spectrum, ZplSet({line.label: line for line in lines})


# ---------------------------------------------------------------------------
# subcommand handlers: each takes the parsed arguments and the run's
# _Inputs, and returns (report file name or None, report text,
# {file name: text, bytes, or (x, y, header) of a two-column file})


def _cmd_fit_decay(args, inputs):
    meta = load_sidecar(args.meta) if args.meta else {}
    if args.pulse_ns is not None:
        meta["pulse_time_ns"] = args.pulse_ns
    trace = load_trace(args.trace, meta)
    window = (_numbers("--window", args.window, ",", (float, float), "t0,t1")
              if args.window else None)
    res = fit_decay(trace, kind=args.kind, fit_window=window)
    rows = [("model", res.model_kind),
            ("background [counts/bin]", res.background, 3 * res.background_error)]
    for i, (amp, tau) in enumerate(res.components, start=1):
        rows.append((f"A{i} [counts]", amp, res.fit.sigma3[2 * (i - 1)]))
        rows.append((f"tau{i} [ns]", tau, res.fit.sigma3[2 * (i - 1) + 1]))
    rows.append(("reduced chi2", res.fit.reduced_chi2))
    files = {}
    if args.plot:
        model = decay_counts(trace.times, trace.pulse_time, res.background, res.components)
        files["fit-decay_model.txt"] = (trace.times, model, "time_ns model_counts")
    return "fit-decay_report.txt", _report_lines("Decay fit", rows, res.warnings, res.fit), files


def _cmd_fit_thermal(args, inputs):
    model = fit_thermal(read_table(args.points, "T_K tau_ns sigma_ns"))
    text = _report_lines("Thermally activated decay fit", [
        ("tau [ns]", model.tau, model.fit.sigma3[0]),
        ("tau_p [ns]", model.tau_p, model.fit.sigma3[1]),
        ("E_p [meV]", model.e_p, model.fit.sigma3[2]),
        ("reduced chi2", model.fit.reduced_chi2),
    ], fit=model.fit)
    return "fit-thermal_report.txt", text, {}


def _cmd_zpl(args, inputs):
    spectrum, zpls = _find_zpls(args)
    rows = []
    for label, line in sorted(zpls.lines.items()):
        bound = "<= " if line.fwhm_is_upper_bound else ""
        rows.append((f"{label} center [nm]", line.center, line.center_sigma3))
        rows.append((f"{label} energy [eV]", EV_NM / line.center))
        rows.append((f"{label} FWHM [nm]", f"{bound}{line.fwhm:.4g}"))
        rows.append((f"{label} area [counts*nm]", line.area))
    if zpls.doublet_splitting_mev is not None:
        rows.append(("doublet splitting [meV]", zpls.doublet_splitting_mev))
    npy = _spectrum_npy(spectrum)
    # the lines in config order: partition_dw subtracts their areas in it
    lines = [asdict(line) for line in zpls.lines.values()]
    result = {**_zpl_stamp(args, inputs), "lines": lines, ZPL_LINES_KEY: _lines_sha256(lines),
              "doublet_splitting_mev": zpls.doublet_splitting_mev,
              "warnings": zpls.warnings,
              ZPL_SPECTRUM_KEY: hashlib.sha256(npy).hexdigest()}
    text = _report_lines("ZPL identification", rows, notes=zpls.warnings)
    return "zpl_report.txt", text, {ZPL_RESULT: _json_text(result), ZPL_SPECTRUM: npy}


def _cmd_fit_psb(args, inputs):
    spectrum, zpls = _stored(args, inputs) or _find_zpls(args)
    fit = fit_psb(spectrum, zpls)
    part = partition_dw(spectrum, zpls, args.partition_mev, fit.model.area,
                        area_correction=args.area_correction)
    rows = [
        ("I0 [counts]", fit.model.i0, fit.fit.sigma3[0]),
        ("sigma [meV]", fit.model.sigma, fit.fit.sigma3[1]),
        ("Delta0 [meV]", fit.model.delta0, fit.fit.sigma3[2]),
        ("DW mean", part.dw_mean),
        ("DW alpha low", part.dw_alpha_bounds[0]),
        ("DW alpha high", part.dw_alpha_bounds[1]),
        ("DW alpha refined", part.dw_alpha_refined),
        ("DW beta low", part.dw_beta_low),
        ("DW beta refined", part.dw_beta_refined),
    ]
    files = {}
    if args.plot:
        files["fit-psb_model.txt"] = (fit.delta, fit.alpha_model,
                                      "delta_meV alpha_sideband_counts_per_meV")
        files["fit-psb_beta_residual.txt"] = (fit.delta, fit.beta_residual,
                                              "delta_meV beta_residual_counts_per_meV")
    text = _report_lines("Phonon sideband fit and DW partition", rows, fit=fit.fit)
    return "fit-psb_report.txt", text, files


def _cmd_budget(args, inputs):
    if any(sep and sep in args.site for sep in ("/", os.sep, os.altsep)):
        raise ValidationError(f"--site {args.site!r} must not contain a path separator")
    b = budget(args.tau_rad, args.tau_tot, args.dw, args.s,
               site_label=args.site, tau_nr_reference=args.tau_nr_ref)
    rows = [
        ("site", b.site_label or "(unspecified)"),
        ("S (th.)", b.s_th),
        ("DW (th.)", b.dw_th),
        ("DW (exp.)", b.dw_exp),
        ("tau_rad [ns]", b.tau_rad),
        ("tau_tot (exp.) [ns]", b.tau_tot_exp),
        ("tau_NR [ns]", "absent (purely radiative)" if b.tau_nr is None else b.tau_nr),
        ("eta_rad", b.eta_rad),
        ("eta_tot", b.eta_tot),
    ]
    payload = asdict(b)
    payload["site"] = payload.pop("site_label")
    name = f"budget_{b.site_label}.json" if b.site_label else "budget.json"
    text = _report_lines("Radiative-efficiency budget", rows, notes=b.notes)
    return "budget_report.txt", text, {name: _json_text(payload)}


def _cmd_cavity(args, inputs):
    params = CavityParams(
        wavelength_nm=args.lambda_nm, finesse=args.finesse, roc_mm=args.roc_mm,
        l_vac_um=args.lvac_um, l_sic_um=args.lsic_um, eta_tot=args.eta_tot,
        n_sic=args.n_sic, w_c_um=args.wc_um,
    )
    est = cooperativity(params, extraction_fraction=args.extraction)
    rows = [
        ("w_C [um]", est.w_c_um),
        ("sigma_E [m^2]", est.sigma_e),
        ("sigma_C [m^2]", est.sigma_c),
        ("fill factor f_L", est.fill),
        ("cooperativity C", est.cooperativity),
        ("eta_cav", est.eta_cav),
    ]
    if est.eta_out is not None:
        rows.append(("eta_out", est.eta_out))
    files = {}
    if args.sweep:
        form = "finesse=start:stop:n"
        name, _, values = args.sweep.partition("=")
        if name != "finesse":
            raise ValidationError(f"--sweep must look like {form}, got {args.sweep!r}")
        start, stop, n = _numbers("--sweep", values, ":", (float, float, int), form)
        files["cavity_sweep.txt"] = format_table(
            finesse_sweep(params, start, stop, n).T, "finesse cooperativity eta_cav")
    return "cavity_report.txt", _report_lines("Cavity-enhancement estimate", rows), files


def _cmd_simulate(args, inputs):
    # the GeneratorSpec fields: a missing one is None, which it refuses; noise has a default
    recipe = dict.fromkeys(("seed", "kind", "truth", "sampling"))
    # outside the try: read_json's errors name the file already
    given = read_json(args.spec)
    try:
        for key, value in given.items():
            if key not in (*recipe, "noise"):
                raise ValidationError(f"unknown key {key!r}")
            recipe[key] = value
        spec = GeneratorSpec(**recipe)
        result = generate(spec)
    except ValidationError as exc:
        raise ValidationError(f"{args.spec}: {exc}") from None
    if spec.kind == "decay":
        data = (result.times, result.counts,
                f"time_ns counts (pulse_time_ns={result.pulse_time})")
    elif spec.kind == "spectrum":
        data = (result.wavelengths, result.intensities, "wavelength_nm counts")
    else:
        # (T, tau, sigma) rows; reshape keeps an empty series three columns wide
        data = format_table(np.array(result, dtype=float).reshape(-1, 3).T)
    return None, None, {os.path.basename(args.outfile): data}


REPORT_COLUMNS = ("s_th", "dw_th", "dw_exp", "tau_rad", "tau_tot_exp",
                  "tau_nr", "eta_rad", "eta_tot")
REPORT_HEADER = ("site", "S(th.)", "DW(th.)", "DW(exp.)", "tau_rad",
                 "tau_tot(exp.)", "tau_NR", "eta_rad", "eta_tot")


def _cmd_report(args, inputs):
    rows = {}
    for path in args.inputs:
        data = read_json(path)
        site = data.get("site", "")
        if not isinstance(site, str):
            raise ValidationError(f"{path}: 'site' must be a string, got {site!r}")
        for key in REPORT_COLUMNS:
            value = data.get(key)
            if not (value is None or type(value) in (int, float) and math.isfinite(value)):
                raise ValidationError(f"{path}: {key!r} must be a number or null, "
                                      f"got {value!r}")
        if site in rows and rows[site] != data:
            raise ValidationError(f"conflicting entries for site {site!r}")
        rows[site] = data
    lines = ["Radiative-properties summary", "=" * 28]
    lines.append("  ".join(f"{h:>13}" for h in REPORT_HEADER))
    for site in sorted(rows):
        data = rows[site]
        cells = [f"{site:>13}"]
        for key in REPORT_COLUMNS:
            v = data.get(key)
            cells.append(f"{'absent':>13}" if v is None else f"{v:>13.4g}")
        lines.append("  ".join(cells))
    return "summary_report.txt", "\n".join(lines) + "\n", {}


# ---------------------------------------------------------------------------
# argument parsing


# built once per process: nothing may change the parser after it is built
@functools.cache
def build_parser():
    parser = _Parser(prog="sicpl",
                     description="Color-center photophysics analysis toolkit")
    parser.add_argument("--config", help="a run manifest to replay")
    sub = parser.add_subparsers(dest="command")

    def add(name, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--out", default=".", help="output directory for reports")
        return p

    p = add("fit-decay", help="fit exponential decay(s) to a trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--kind", choices=["auto", "single", "double"], default="auto")
    p.add_argument("--window", help="t0,t1 in ns")
    p.add_argument("--pulse-ns", type=float, dest="pulse_ns")
    p.add_argument("--meta", help="sidecar key=value metadata file")
    p.add_argument("--plot", action="store_true")

    p = add("fit-thermal", help="fit the thermally activated decay model")
    p.add_argument("--points", required=True, help="3-column file: T_K tau_ns sigma_ns")

    p = add("zpl", help="locate and fit zero-phonon lines")
    p.add_argument("--spectrum", required=True)
    p.add_argument("--zpl-config", required=True, dest="zpl_config")

    p = add("fit-psb", help="fit the Gaussian sideband series and partition DW")
    p.add_argument("--spectrum", required=True)
    p.add_argument("--zpl-config", required=True, dest="zpl_config")
    p.add_argument("--partition-mev", type=float, required=True, dest="partition_mev")
    p.add_argument("--area-correction", type=float, default=1.0, dest="area_correction")
    p.add_argument("--plot", action="store_true")

    p = add("budget", help="radiative-efficiency budget")
    p.add_argument("--tau-rad", type=float, required=True, dest="tau_rad")
    p.add_argument("--tau-tot", type=float, required=True, dest="tau_tot")
    p.add_argument("--dw", type=float, required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--site", default="")
    p.add_argument("--tau-nr-ref", type=float, dest="tau_nr_ref")

    p = add("cavity", help="cooperativity and cavity emission probability")
    p.add_argument("--lambda-nm", type=float, required=True, dest="lambda_nm")
    p.add_argument("--finesse", type=float, required=True)
    p.add_argument("--roc-mm", type=float, required=True, dest="roc_mm")
    p.add_argument("--lvac-um", type=float, required=True, dest="lvac_um")
    p.add_argument("--lsic-um", type=float, required=True, dest="lsic_um")
    p.add_argument("--eta-tot", type=float, required=True, dest="eta_tot")
    p.add_argument("--n-sic", type=float, default=N_SIC_DEFAULT, dest="n_sic")
    p.add_argument("--wc-um", type=float, dest="wc_um")
    p.add_argument("--extraction", type=float)
    p.add_argument("--sweep", help="finesse=start:stop:n")

    # no --out: simulate writes next to --outfile. No abbreviations either,
    # or argparse would read --out as --outfile
    p = sub.add_parser("simulate", help="generate synthetic data from a JSON recipe",
                       allow_abbrev=False)
    p.add_argument("--spec", required=True)
    p.add_argument("--outfile", required=True)

    p = add("report", help="bundle budget JSONs into one summary table")
    p.add_argument("--inputs", nargs="+", required=True)

    return parser


HANDLERS = {
    "fit-decay": _cmd_fit_decay,
    "fit-thermal": _cmd_fit_thermal,
    "zpl": _cmd_zpl,
    "fit-psb": _cmd_fit_psb,
    "budget": _cmd_budget,
    "cavity": _cmd_cavity,
    "simulate": _cmd_simulate,
    "report": _cmd_report,
}


def _args_from_config(parser, path):
    """The arguments of the run the manifest at `path` records. Every input
    file it lists must still have the SHA-256 it records."""
    cfg = read_json(path)
    for key in cfg:
        if key not in MANIFEST_KEYS:
            raise ValidationError(f"{path}: unknown key {key!r}")
    command = cfg.get("command")
    if command not in HANDLERS:
        raise ValidationError(f"{path}: unknown command {command!r}")
    for name, digest in _json_object(path, "inputs", cfg.get("inputs", {})).items():
        if not isinstance(digest, str):
            raise ValidationError(f"{path}: 'inputs' must map each file to its sha256, "
                                  f"got {digest!r} for {name}")
        if _sha256(name) != digest:
            raise ValidationError(f"{path}: input {name} changed since the run")
    argv = [command]
    for key, value in _json_object(path, "parameters", cfg.get("parameters", {})).items():
        if key in ("command", "config") or value is None or value is False:
            continue
        flag = "--" + key.replace("_", "-")
        if value is True:
            argv.append(flag)
        elif isinstance(value, list):
            argv += [flag, *map(str, value)]
        else:
            argv.append(f"{flag}={value}")
    try:
        args, unknown = parser.parse_known_args(argv)
    except _Refused as exc:
        raise ValidationError(f"{path}: {exc.args[1]}") from None
    if unknown:
        raise ValidationError(f"{path}: unknown {command} parameters {' '.join(unknown)}")
    return args


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            if args.command:
                parser.error(f"--config replays a manifest's command, got {args.command!r} too")
            args = _args_from_config(parser, args.config)
        if not getattr(args, "command", None):
            parser.print_usage(sys.stderr)
            return EXIT_USAGE
        inputs = _Inputs()
        report, text, files = HANDLERS[args.command](args, inputs)
        # simulate writes next to --outfile, and its manifest goes with it;
        # made only now, so a refused run leaves no directory behind
        out_dir = (os.path.dirname(os.path.abspath(args.outfile))
                   if args.command == "simulate" else args.out)
        os.makedirs(out_dir, exist_ok=True)
        if report is not None:
            files = {report: text, **files}
            print(text, end="")
        for name, data in files.items():
            path = os.path.join(out_dir, name)
            if isinstance(data, (str, bytes)):
                with open(path, "w" if isinstance(data, str) else "wb") as fh:
                    fh.write(data)
            else:
                save_two_column(path, *data)
        _write_manifest(out_dir, args, inputs)
        return EXIT_OK
    except _Refused as exc:
        usage, message = exc.args
        print(f"{usage}error: {message}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except SicplError as exc:
        print(f"{'fit error' if exc.exit_code == 3 else 'error'}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ValidationError.exit_code


if __name__ == "__main__":
    sys.exit(main())
