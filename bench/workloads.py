"""The benchmark's workloads: seeded inputs, the CLI calls of each item,
and the checks of each item's outputs against the truth the inputs were
made from.

Inputs for the fit workloads are Poisson draws made here with
`numpy.random.default_rng(seed)` over the noise-free expectations of
`sicpl.synth`, written with the benchmark's own writer, so a change to
the program's noise generator or file writer cannot change them.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
from dataclasses import dataclass, field

import numpy as np

HC_MEV_NM = 1239.84198e3      # hc in meV*nm
KB_MEV_PER_K = 0.0861733

# lifetime-study: the thermal model at the demo's temperatures
TEMPERATURES = (4, 25, 50, 75, 100, 125, 150, 175)
TAU_P_NS, E_P_MEV = 83.0, 28.0
SLOW_TAU_4K = {"single": 164.2, "double": 158.5}
FAST_TAU_NS = 43.3
BACKGROUND = 20.0
PEAK_RANGE = (3e2, 2e4)
COUNT_STRATA = 39
SAMPLING = {"single": ({"t_start": 0.0, "t_end": 1800.0, "bin_ns": 1.0}, 100.0),
            "double": ({"t_start": 0.0, "t_end": 3000.0, "bin_ns": 1.0}, 1000.0)}

# sideband-dw: the demo's lines and sideband series
E_ALPHA3 = HC_MEV_NM / 1280.0
ZPL_TRUTH = (("alpha3", 1280.0, 700.0),
             ("alpha2", HC_MEV_NM / (E_ALPHA3 + 1.47), 300.0),
             ("beta", HC_MEV_NM / (E_ALPHA3 - 40.0), 400.0))
ZPL_WINDOWS = {"alpha3": 3.0, "alpha2": 3.0, "beta": 4.0}
ZPL_FWHM_NM = 0.30
ALPHA_PSB = {"i0": 90.0, "sigma": 6.0, "delta0": 35.0, "j_max": 10}
BETA_PSB = {"i0": 230.0, "sigma": 6.0, "delta0": 50.0, "j_max": 3}
SPECTRUM_SAMPLING = {"wl_start": 1255.0, "wl_end": 1470.0, "step_nm": 0.05}
SCALE_RANGE = (0.3, 10.0)
SIDEBAND_ITEMS = 312
# alpha ZPL area over alpha ZPL plus alpha sideband area; scale cancels
DW_ALPHA_TRUE = 1000.0 / (1000.0 + ALPHA_PSB["i0"] * ALPHA_PSB["j_max"])
SITE_K = {"tau_rad": 704.0, "tau_tot": 163.0, "s": 0.66}
HR_MODES = [[0.30, 20.0], [0.25, 35.0], [0.11, 60.0]]

# simulate: more decays than spectra, so the median item is a decay
SIMULATE_MIX = (("decay-single", 60), ("decay-double", 60),
                ("spectrum-psb", 44), ("spectrum-hr", 44))
DECAY_END_NS = (1800.0, 3000.0)
SIMULATE_SPECTRUM_SAMPLING = {"wl_start": 1260.0, "wl_end": 1360.0, "step_nm": 0.05}


# ---------------------------------------------------------------------------
# items and their outcomes


@dataclass
class Outcome:
    """What the output check found for one item."""

    failure: str | None = None   # why the item counts as failed
    wrong: bool = False          # a finished run produced a wrong output
    covered: int = 0             # checked truths inside the quoted 3-sigma margin
    checked: int = 0
    kind_ok: bool | None = None  # output has the true structure (None: not judged)

    def fail(self, reason, wrong=False):
        if self.failure is None:
            self.failure = reason
        self.wrong = self.wrong or wrong

    def cover(self, value, margin, truth):
        self.checked += 1
        self.covered += abs(value - truth) <= margin


@dataclass
class Item:
    """One unit of work: `run(call)` makes the item's CLI calls through
    `call(argv) -> exit code` and returns the exit codes; `check(rcs)`
    judges the outputs; `outputs` must repeat byte for byte."""

    id: str
    run: object
    check: object
    outputs: list = field(default_factory=list)
    rcs: list = field(default_factory=list)


def fingerprint(item):
    h = hashlib.sha256(repr(item.rcs).encode())
    for path in item.outputs:
        if os.path.exists(path):
            with open(path, "rb") as fh:
                h.update(fh.read())
        else:
            h.update(b"<missing>")
    return h.hexdigest()


def _exit_failure(out, rcs, expected):
    """Record a non-zero exit; a usage error means the call itself is wrong."""
    if len(rcs) == expected and not any(rcs):
        return False
    rc = next((r for r in rcs if r), None)
    out.fail(f"exit {rc}", wrong=rc == 1)
    return True


# ---------------------------------------------------------------------------
# reading reports

_ROW = re.compile(r"^(.+?)\s{2,}(\S.*?)(?: \+/- (\S+) \(3 sigma\))?$")


def read_report(path):
    """Named rows of a text report: {name: (value text, margin or None)}."""
    rows = {}
    with open(path) as fh:
        lines = fh.read().splitlines()
    for line in lines[2:]:
        m = _ROW.match(line)
        if m and not line.startswith("note: "):
            rows[m.group(1)] = (m.group(2), None if m.group(3) is None else float(m.group(3)))
    rows["notes"] = [line[6:] for line in lines if line.startswith("note: ")]
    return rows


def _number(rows, name, out, with_margin=False):
    """A finite value (and a finite, non-negative margin) from a report, or None."""
    if name not in rows:
        out.fail(f"missing {name!r}", wrong=True)
        return None
    text, margin = rows[name]
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value) or (with_margin and not (
            margin is not None and math.isfinite(margin) and margin >= 0)):
        out.fail(f"non-finite {name!r}", wrong=True)
        return None
    return (value, margin) if with_margin else value


def _report(path, out):
    if not os.path.exists(path):
        out.fail(f"no report {os.path.basename(path)}", wrong=True)
        return None
    return read_report(path)


# ---------------------------------------------------------------------------
# writing inputs


def _write_columns(path, x, y, header):
    with open(path, "w") as fh:
        fh.write(f"# {header}\n")
        fh.write("".join(f"{a:.9g} {int(b)}\n" for a, b in zip(x, y)))


def _stratified(rng, lo, hi, n):
    """One log-uniform draw in each of n equal log-width strata of [lo, hi]."""
    edges = np.log(np.geomspace(lo, hi, n + 1))
    return np.exp(rng.uniform(edges[:-1], edges[1:]))


def thermal_tau(temperature, tau):
    rate = 1.0 / tau + math.exp(-E_P_MEV / (KB_MEV_PER_K * temperature)) / TAU_P_NS
    return 1.0 / rate


def _decay_truth(kind, temperature, peak):
    slow = thermal_tau(temperature, SLOW_TAU_4K[kind])
    if kind == "single":
        return [(peak, slow)]
    return [(peak / 2.0, slow), (peak / 2.0, FAST_TAU_NS)]


def _spectrum_truth(scale, with_hr=False):
    truth = {
        "zpl": [[label, center, ZPL_FWHM_NM, area * scale]
                for label, center, area in ZPL_TRUTH],
        "psb": [dict(ALPHA_PSB, i0=ALPHA_PSB["i0"] * scale, e_ref_nm=ZPL_TRUTH[0][1],
                     doublet=[1.47, ZPL_TRUTH[1][2] / ZPL_TRUTH[0][2]]),
                dict(BETA_PSB, i0=BETA_PSB["i0"] * scale, e_ref_nm=ZPL_TRUTH[2][1])],
        "temperature": 4.0,
    }
    if with_hr:
        truth["hr"] = {"modes": HR_MODES, "zpl_energy_ev": E_ALPHA3 / 1e3,
                       "area_nm": 500.0 * scale}
    return truth


def _spec(synth, kind, truth, sampling):
    """A noise-free recipe, for the expected counts of the truth."""
    return synth.GeneratorSpec(seed=0, kind=kind, truth=truth, sampling=sampling)


# ---------------------------------------------------------------------------
# lifetime-study


def lifetime_study(seed, work, sicpl):
    """fit-decay on each trace; each batch of one kind and count stratum
    ends with fit-thermal on the (T, tau1, sigma) rows of its reports."""
    rng = np.random.default_rng(seed)
    edges = np.geomspace(*PEAK_RANGE, COUNT_STRATA + 1)
    items = []
    for kind in ("single", "double"):
        sampling, pulse = SAMPLING[kind]
        for stratum in range(COUNT_STRATA):
            lo, hi = edges[stratum:stratum + 2]
            peaks = np.exp(rng.uniform(np.log(lo), np.log(hi), len(TEMPERATURES)))
            batch = []
            for j, (temperature, peak) in enumerate(zip(TEMPERATURES, peaks)):
                item_id = f"{kind}-{stratum}-{temperature}K"
                comps = _decay_truth(kind, temperature, float(peak))
                truth = {"components": comps, "background": BACKGROUND, "pulse_time": pulse}
                t, mu = sicpl.synth.expected_decay(_spec(sicpl.synth, "decay", truth, sampling))
                trace = os.path.join(work, f"{item_id}.txt")
                _write_columns(trace, t, rng.poisson(mu), "time_ns counts")
                out_dir = os.path.join(work, "out", item_id)
                argv = ["fit-decay", "--trace", trace, "--out", out_dir]
                if j % 2:
                    meta = os.path.join(work, f"{item_id}.meta")
                    with open(meta, "w") as fh:
                        fh.write(f"pulse_time_ns = {pulse}\ntemperature_K = {temperature}\n")
                    argv += ["--meta", meta]
                else:
                    argv += ["--pulse-ns", str(pulse)]
                report = os.path.join(out_dir, "fit-decay_report.txt")
                item = Item(item_id, _single_call(argv),
                            _decay_check(report, kind, comps), [report])
                batch.append((item, temperature, report))
                items.append(item)
            items.append(_thermal_item(f"thermal-{kind}-{stratum}", work, batch))
    return items


def _single_call(argv):
    return lambda call: [call(argv)]


def _decay_check(report, kind, comps):
    true_taus = [tau for _, tau in comps]

    def check(rcs):
        out = Outcome()
        if _exit_failure(out, rcs, 1):
            return out
        rows = _report(report, out)
        if rows is None:
            return out
        model = rows.get("model", ("", None))[0]
        if model not in ("single", "double"):
            out.fail("missing model kind", wrong=True)
            return out
        n = 1 if model == "single" else 2
        fitted = []
        for i in range(1, n + 1):
            _number(rows, f"A{i} [counts]", out, with_margin=True)
            fitted.append(_number(rows, f"tau{i} [ns]", out, with_margin=True))
        _number(rows, "background [counts/bin]", out, with_margin=True)
        _number(rows, "reduced chi2", out)
        if out.failure:
            return out
        out.kind_ok = model == kind
        for i, truth in enumerate(true_taus):
            if out.kind_ok:
                out.cover(*fitted[i], truth)
            else:
                out.checked += 1  # a wrong model kind covers no true lifetime
        slow = true_taus[0]
        if min(abs(math.log(tau / slow)) for tau, _ in fitted) > math.log(2.0):
            out.fail(f"no lifetime within 2x of the true {slow:.4g} ns", wrong=True)
        return out

    return check


def _thermal_item(item_id, work, batch):
    points = os.path.join(work, f"{item_id}.txt")
    out_dir = os.path.join(work, "out", item_id)
    report = os.path.join(out_dir, "fit-thermal_report.txt")

    def run(call):
        # rows a user would take from the batch's reports: the slowest lifetime
        lines = []
        for item, temperature, path in batch:
            if item.rcs != [0] or not os.path.exists(path):
                continue
            rows = read_report(path)
            try:
                tau = float(rows["tau1 [ns]"][0])
                sigma = rows["tau1 [ns]"][1] / 3.0
            except (KeyError, TypeError, ValueError):
                continue
            lines.append(f"{temperature} {tau!r} {sigma!r}\n")
        with open(points, "w") as fh:
            fh.write("# T_K tau_ns sigma_ns\n" + "".join(lines))
        return [call(["fit-thermal", "--points", points, "--out", out_dir])]

    def check(rcs):
        out = Outcome()
        if _exit_failure(out, rcs, 1):
            return out
        rows = _report(report, out)
        if rows is None:
            return out
        _number(rows, "tau [ns]", out, with_margin=True)
        _number(rows, "tau_p [ns]", out, with_margin=True)
        e_p = _number(rows, "E_p [meV]", out, with_margin=True)
        _number(rows, "reduced chi2", out)
        if out.failure:
            return out
        out.cover(*e_p, E_P_MEV)
        if abs(e_p[0] - E_P_MEV) > max(3.0 * e_p[1], 0.5 * E_P_MEV):
            out.fail(f"E_p {e_p[0]:.4g} meV far from the true {E_P_MEV}", wrong=True)
        return out

    return Item(item_id, run, check, [points, report])


# ---------------------------------------------------------------------------
# sideband-dw


def sideband_dw(seed, work, sicpl):
    """zpl -> fit-psb --partition-mev 60 -> budget on each spectrum."""
    rng = np.random.default_rng(seed)
    lines = os.path.join(work, "lines.txt")
    with open(lines, "w") as fh:
        for label, center, _ in ZPL_TRUTH:
            fh.write(f"{label} {center!r} {ZPL_WINDOWS[label]}\n")
    items = []
    for i, scale in enumerate(_stratified(rng, *SCALE_RANGE, SIDEBAND_ITEMS)):
        item_id = f"spectrum-{i:03d}"
        spec = _spec(sicpl.synth, "spectrum", _spectrum_truth(float(scale)), SPECTRUM_SAMPLING)
        wl, mu = sicpl.synth.expected_spectrum(spec)
        path = os.path.join(work, f"{item_id}.txt")
        _write_columns(path, wl, rng.poisson(mu), "wavelength_nm counts")
        out_dir = os.path.join(work, "out", item_id)
        items.append(_sideband_item(item_id, path, lines, out_dir, float(scale)))
    return items


def _sideband_item(item_id, spectrum, lines, out_dir, scale):
    zpl_report = os.path.join(out_dir, "zpl_report.txt")
    psb_report = os.path.join(out_dir, "fit-psb_report.txt")
    budget_json = os.path.join(out_dir, "budget_k.json")
    common = ["--spectrum", spectrum, "--zpl-config", lines, "--out", out_dir]
    state = {}

    def run(call):
        rcs = [call(["zpl"] + common)]
        if rcs[-1]:
            return rcs
        rcs.append(call(["fit-psb", "--partition-mev", "60"] + common))
        if rcs[-1]:
            return rcs
        # the refined alpha DW exactly as the report prints it
        state["dw"] = read_report(psb_report).get("DW alpha refined", ("nan",))[0]
        rcs.append(call(["budget", "--tau-rad", str(SITE_K["tau_rad"]),
                         "--tau-tot", str(SITE_K["tau_tot"]), "--dw", state["dw"],
                         "--s", str(SITE_K["s"]), "--site", "k", "--out", out_dir]))
        return rcs

    def check(rcs):
        out = Outcome()
        if _exit_failure(out, rcs, 3):
            return out
        zrows = _report(zpl_report, out)
        prows = _report(psb_report, out)
        if zrows is None or prows is None:
            return out
        centers = [(_number(zrows, f"{label} center [nm]", out, with_margin=True), center)
                   for label, center, _ in ZPL_TRUTH]
        resolved = all(not zrows.get(f"{label} FWHM [nm]", ("<=",))[0].startswith("<=")
                       for label, _, _ in ZPL_TRUTH)
        psb = [(_number(prows, "I0 [counts]", out, with_margin=True), ALPHA_PSB["i0"] * scale),
               (_number(prows, "sigma [meV]", out, with_margin=True), ALPHA_PSB["sigma"]),
               (_number(prows, "Delta0 [meV]", out, with_margin=True), ALPHA_PSB["delta0"])]
        dw = _number(prows, "DW alpha refined", out)
        _number(zrows, "doublet splitting [meV]", out)
        if out.failure:
            return out
        out.kind_ok = resolved and not zrows["notes"]
        for (value, margin), truth in centers:
            out.cover(value, margin, truth)
            if abs(value - truth) > 0.05:
                out.fail(f"ZPL at {value} nm, truth {truth:.6g}", wrong=True)
        for (value, margin), truth in psb:
            out.cover(value, margin, truth)
            if abs(value - truth) > max(3.0 * margin, 0.5 * abs(truth)):
                out.fail(f"sideband parameter {value} far from truth {truth:.4g}", wrong=True)
        if abs(dw - DW_ALPHA_TRUE) > 0.1:
            out.fail(f"DW alpha refined {dw} far from {DW_ALPHA_TRUE:.4f}", wrong=True)
        _check_budget(budget_json, float(state["dw"]), out)
        return out

    return Item(item_id, run, check, [zpl_report, psb_report, budget_json])


def _check_budget(path, dw, out):
    if not os.path.exists(path):
        out.fail("no budget JSON", wrong=True)
        return
    with open(path) as fh:
        got = json.load(fh)
    tau_rad, tau_tot = SITE_K["tau_rad"], SITE_K["tau_tot"]
    want = {"dw_exp": dw, "eta_rad": tau_tot / tau_rad,
            "eta_tot": tau_tot / tau_rad * dw,
            "tau_nr": tau_rad * tau_tot / (tau_rad - tau_tot),
            "dw_th": math.exp(-SITE_K["s"])}
    for key, value in want.items():
        if not isinstance(got.get(key), (int, float)) or not math.isclose(
                got[key], value, rel_tol=1e-9):
            out.fail(f"budget {key} = {got.get(key)!r}, expected {value:.6g}", wrong=True)


# ---------------------------------------------------------------------------
# simulate


def simulate(seed, work, sicpl):
    """simulate --spec recipe.json with Poisson noise on a shuffled mix of
    decay traces of 1.8k-3k bins and 2k-point spectra."""
    rng = np.random.default_rng(seed)
    recipes = []
    for kind, count in SIMULATE_MIX:
        if kind.startswith("decay"):
            model = kind.split("-")[1]
            pulse = SAMPLING[model][1]
            edges = np.linspace(*DECAY_END_NS, count + 1)
            ends = rng.uniform(edges[:-1], edges[1:])
            for j, (peak, end) in enumerate(zip(_stratified(rng, *PEAK_RANGE, count), ends)):
                temperature = TEMPERATURES[j % len(TEMPERATURES)]
                recipes.append((kind, pulse, {
                    "kind": "decay",
                    "sampling": {"t_start": 0.0, "t_end": float(round(end)), "bin_ns": 1.0},
                    "truth": {"components": _decay_truth(model, temperature, float(peak)),
                              "background": BACKGROUND, "pulse_time": pulse}}))
        else:
            for scale in _stratified(rng, *SCALE_RANGE, count):
                recipes.append((kind, None, {
                    "kind": "spectrum", "sampling": SIMULATE_SPECTRUM_SAMPLING,
                    "truth": _spectrum_truth(float(scale), with_hr=kind == "spectrum-hr")}))
    items = []
    for i, k in enumerate(rng.permutation(len(recipes))):
        kind, pulse, recipe = recipes[k]
        recipe.update(seed=int(rng.integers(2**31)), noise={"kind": "poisson"})
        item_id = f"recipe-{i:03d}-{kind}"
        spec_path = os.path.join(work, f"{item_id}.json")
        with open(spec_path, "w") as fh:
            json.dump(recipe, fh, indent=1)
        spec = _spec(sicpl.synth, recipe["kind"], json.loads(json.dumps(recipe["truth"])),
                     recipe["sampling"])
        expect = (sicpl.synth.expected_decay if pulse is not None
                  else sicpl.synth.expected_spectrum)(spec)
        outfile = os.path.join(work, "out", item_id, "simulated.txt")
        argv = ["simulate", "--spec", spec_path, "--outfile", outfile]
        items.append(Item(item_id, _single_call(argv),
                          _simulate_check(outfile, expect, pulse), [outfile]))
    return items


def _simulate_check(outfile, expect, pulse):
    x_true, mu = expect
    mean = float(mu.sum())
    header = ("time_ns counts (pulse_time_ns=%s)" % pulse if pulse is not None
              else "wavelength_nm counts")

    def check(rcs):
        out = Outcome()
        if _exit_failure(out, rcs, 1):
            return out
        if not os.path.exists(outfile):
            out.fail("no output file", wrong=True)
            return out
        with open(outfile) as fh:
            lines = fh.read().splitlines()
        comments = [line[2:] for line in lines if line.startswith("#")]
        out.kind_ok = comments == [header]
        try:
            data = np.array([[float(v) for v in line.split()]
                             for line in lines if not line.startswith("#")])
        except ValueError:
            out.fail("non-numeric row", wrong=True)
            return out
        if data.shape != (x_true.size, 2):
            out.fail(f"{data.shape[0]} rows, sampling gives {x_true.size}", wrong=True)
            return out
        x, counts = data[:, 0], data[:, 1]
        if np.any(np.abs(x - x_true) > 1e-6 * np.maximum(np.abs(x_true), 1.0)):
            out.fail("abscissa differs from the sampling", wrong=True)
        if np.any(counts < 0) or np.any(counts != np.round(counts)):
            out.fail("counts are not non-negative integers", wrong=True)
        total = float(counts.sum())
        sigma = math.sqrt(mean)
        out.checked += 1
        out.covered += abs(total - mean) <= 3.0 * sigma
        if abs(total - mean) > 5.0 * sigma:
            out.fail(f"count sum {total:.0f} beyond 5 sigma of {mean:.1f}", wrong=True)
        return out

    return check


WORKLOADS = {
    "lifetime-study": lifetime_study,
    "sideband-dw": sideband_dw,
    "simulate": simulate,
}
