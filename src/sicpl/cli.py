"""Command-line front end binding ingestion, fitting, budgeting, cavity
estimation and simulation into reproducible pipelines.

Each command handler computes its report and any extra files; `main`
writes them, then a manifest (command, every resolved option, config
hash, hashes of every input file, tool version); `--config <manifest>`
replays that run identically. Exit codes: 0 success, 1 usage error, otherwise
the `exit_code` of the error raised: 2 validation error, 3 fit failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .datatypes import wavelength_to_energy
from .decay import fit_decay, fit_thermal
from .errors import AggregationError, SicplError, ValidationError
from .io import (load_sidecar, load_spectrum, load_trace, read_json, read_table,
                 save_two_column)
from .photophysics import CavityParams, budget, cooperativity, finesse_sweep
from .spectrum import find_zpls, fit_psb, partition_dw
from .synth import GeneratorSpec, generate

EXIT_OK = 0
EXIT_USAGE = 1

# options naming a file a command reads; the manifest hashes each one given
INPUT_OPTIONS = ("trace", "meta", "points", "spectrum", "zpl_config", "spec", "inputs")
# the keys of a manifest; a replay reads the last two only as information
MANIFEST_KEYS = ("command", "parameters", "inputs", "config_hash", "tool_version")


class _Refused(Exception):
    """argparse refused the arguments; args: the usage text and why."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _Refused(self.format_usage(), message)


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _write_manifest(out_dir, args):
    params = vars(args)
    paths = []
    for key in INPUT_OPTIONS:
        value = params.get(key)
        if value is not None:
            paths += value if isinstance(value, list) else [value]
    manifest = {
        "command": args.command,
        "tool_version": __version__,
        "parameters": params,
        "config_hash": hashlib.sha256(
            json.dumps(params, sort_keys=True).encode()
        ).hexdigest(),
        "inputs": {str(p): _sha256(p) for p in paths},
    }
    path = os.path.join(out_dir, f"{args.command}_manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _report_lines(title, rows, notes=()):
    lines = [title, "=" * len(title)]
    width = max((len(r[0]) for r in rows), default=0)
    for name, value, *margin in rows:
        if margin and margin[0] is not None:
            lines.append(f"{name:<{width}}  {value:.6g} +/- {margin[0]:.3g} (3 sigma)")
        elif isinstance(value, float):
            lines.append(f"{name:<{width}}  {value:.6g}")
        else:
            lines.append(f"{name:<{width}}  {value}")
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


def _load_meta(args):
    meta = load_sidecar(args.meta) if args.meta else {}
    for key, attr in (("pulse_time_ns", "pulse_ns"), ("temperature_K", "temperature")):
        if getattr(args, attr, None) is not None:
            meta[key] = getattr(args, attr)
    return meta


def _find_zpls(args):
    """The spectrum and the ZPLs found on it from the --zpl-config rows."""
    spectrum = load_spectrum(args.spectrum, _load_meta(args))
    labels, values = read_table(args.zpl_config, "label center_nm window_nm",
                                labelled=True)
    return spectrum, find_zpls(spectrum, list(zip(labels, *values.T.tolist())))


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (report file name or None, report text,
# {file name: text, or (x, y, header) of a two-column file})


def _cmd_fit_decay(args):
    trace = load_trace(args.trace, _load_meta(args))
    window = (_numbers("--window", args.window, ",", (float, float), "t0,t1")
              if args.window else None)
    res = fit_decay(trace, kind=args.kind, fit_window=window)
    rows = [("model", res.model_kind),
            ("background [counts/bin]", res.background, 3 * res.background_error)]
    for i, (amp, tau) in enumerate(res.components, start=1):
        rows.append((f"A{i} [counts]", amp, res.sigma3[2 * (i - 1)]))
        rows.append((f"tau{i} [ns]", tau, res.sigma3[2 * (i - 1) + 1]))
    rows.append(("reduced chi2", res.reduced_chi2))
    files = {}
    if args.plot:
        t = trace.times
        model = np.full(t.shape, res.background)
        after = t >= trace.pulse_time
        for amp, tau in res.components:
            model[after] += amp * np.exp(-(t[after] - trace.pulse_time) / tau)
        files["fit-decay_model.txt"] = (t, model, "time_ns model_counts")
    return "fit-decay_report.txt", _report_lines("Decay fit", rows, res.warnings), files


def _cmd_fit_thermal(args):
    model = fit_thermal(read_table(args.points, "T_K tau_ns sigma_ns"))
    text = _report_lines("Thermally activated decay fit", [
        ("tau [ns]", model.tau, model.sigma3[0]),
        ("tau_p [ns]", model.tau_p, model.sigma3[1]),
        ("E_p [meV]", model.e_p, model.sigma3[2]),
        ("reduced chi2", model.reduced_chi2),
    ])
    return "fit-thermal_report.txt", text, {}


def _cmd_zpl(args):
    _, zpls = _find_zpls(args)
    rows = []
    for label, line in sorted(zpls.lines.items()):
        bound = "<= " if line.fwhm_is_upper_bound else ""
        rows.append((f"{label} center [nm]", line.center, line.center_sigma3))
        rows.append((f"{label} energy [eV]", wavelength_to_energy(line.center).as_ev()))
        rows.append((f"{label} FWHM [nm]", f"{bound}{line.fwhm:.4g}"))
        rows.append((f"{label} area [counts*nm]", line.area))
    if zpls.doublet_splitting_mev is not None:
        rows.append(("doublet splitting [meV]", zpls.doublet_splitting_mev))
    return "zpl_report.txt", _report_lines("ZPL identification", rows, notes=zpls.warnings), {}


def _cmd_fit_psb(args):
    spectrum, zpls = _find_zpls(args)
    fit = fit_psb(spectrum, zpls)
    part = partition_dw(spectrum, zpls, args.partition_mev, psb_fit=fit,
                        area_correction=args.area_correction)
    rows = [
        ("I0 [counts]", fit.model.i0, fit.sigma3[0]),
        ("sigma [meV]", fit.model.sigma, fit.sigma3[1]),
        ("Delta0 [meV]", fit.model.delta0, fit.sigma3[2]),
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
    text = _report_lines("Phonon sideband fit and DW partition", rows)
    return "fit-psb_report.txt", text, files


def _cmd_budget(args):
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
    return "budget_report.txt", text, {name: json.dumps(payload, indent=2, sort_keys=True) + "\n"}


def _cmd_cavity(args):
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
        files["cavity_sweep.txt"] = "# finesse cooperativity eta_cav\n" + "".join(
            f"{f:.9g} {c:.9g} {eta:.9g}\n"
            for f, c, eta in finesse_sweep(params, start, stop, n))
    return "cavity_report.txt", _report_lines("Cavity-enhancement estimate", rows), files


def _cmd_simulate(args):
    # the GeneratorSpec fields: a missing one is None, which it refuses; noise has a default
    recipe = dict.fromkeys(("seed", "kind", "truth", "sampling"))
    try:
        for key, value in read_json(args.spec).items():
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
        data = "".join(" ".join(f"{v:.9g}" for v in row) + "\n" for row in result)
    return None, None, {os.path.basename(args.outfile): data}


REPORT_COLUMNS = ("s_th", "dw_th", "dw_exp", "tau_rad", "tau_tot_exp",
                  "tau_nr", "eta_rad", "eta_tot")
REPORT_HEADER = ("site", "S(th.)", "DW(th.)", "DW(exp.)", "tau_rad",
                 "tau_tot(exp.)", "tau_NR", "eta_rad", "eta_tot")


def _cmd_report(args):
    rows = {}
    for path in args.inputs:
        data = read_json(path)
        site = data.get("site", "")
        if not isinstance(site, str):
            raise ValidationError(f"{path}: 'site' must be a string, got {site!r}")
        for key in REPORT_COLUMNS:
            if not isinstance(data.get(key), (int, float, type(None))):
                raise ValidationError(f"{path}: {key!r} must be a number or null, "
                                      f"got {data[key]!r}")
        if site in rows and rows[site] != data:
            raise AggregationError(f"conflicting entries for site {site!r}")
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
    p.add_argument("--temperature", type=float)
    p.add_argument("--meta")

    p = add("fit-psb", help="fit the Gaussian sideband series and partition DW")
    p.add_argument("--spectrum", required=True)
    p.add_argument("--zpl-config", required=True, dest="zpl_config")
    p.add_argument("--partition-mev", type=float, required=True, dest="partition_mev")
    p.add_argument("--area-correction", type=float, default=1.0, dest="area_correction")
    p.add_argument("--temperature", type=float)
    p.add_argument("--meta")
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
    p.add_argument("--n-sic", type=float, default=2.56, dest="n_sic")
    p.add_argument("--wc-um", type=float, dest="wc_um")
    p.add_argument("--extraction", type=float)
    p.add_argument("--sweep", help="finesse=start:stop:n")

    p = add("simulate", help="generate synthetic data from a JSON recipe")
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
            args = _args_from_config(parser, args.config)
        if not getattr(args, "command", None):
            parser.print_usage(sys.stderr)
            return EXIT_USAGE
        # simulate writes next to --outfile, and its manifest goes with it
        out_dir = (os.path.dirname(os.path.abspath(args.outfile))
                   if args.command == "simulate" else args.out)
        os.makedirs(out_dir, exist_ok=True)
        report, text, files = HANDLERS[args.command](args)
        if report is not None:
            files = {report: text, **files}
            print(text, end="")
        for name, data in files.items():
            path = os.path.join(out_dir, name)
            if isinstance(data, str):
                with open(path, "w") as fh:
                    fh.write(data)
            else:
                save_two_column(path, *data)
        _write_manifest(out_dir, args)
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
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ValidationError.exit_code


if __name__ == "__main__":
    sys.exit(main())
