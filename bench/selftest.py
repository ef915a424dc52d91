"""Self-test of the benchmark; exits non-zero on the first failed check.

    python3 bench/selftest.py

1. A tiny run of each workload, untraced and traced, completes and prints
   every metric named in BENCHMARK.json with its unit.
2. Two tiny runs with the same seed give identical counts and fractions.
3. The output checks flag a deliberately wrong report value and a changed
   simulate file.
"""

from __future__ import annotations

import json
import shutil
import sys

import run  # sets the thread pins and the import paths
from suite import ROOT, run_once
from workloads import WORKLOADS, fingerprint, read_report

# enough items for one whole lifetime batch, one chain, one recipe per kind
TINY = {"lifetime-study": 9, "sideband-dw": 3, "simulate": 4}
SEED = 7


def expect(condition, message):
    if not condition:
        print(f"FAIL {message}")
        sys.exit(1)
    print(f"ok   {message}")


def check_tiny_runs(spec):
    for workload, items in TINY.items():
        results = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            first, _ = run_once(workload, SEED, 0, trace, items)
            again, _ = run_once(workload, SEED, 0, trace, items)
            results[trace] = first
            names = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in first["metrics"].items()}
            expect(got == names, f"{workload} trace {trace}: every {key} metric with its unit")
            expect(first["correct"] and first["attempted"] >= 2 * items,
                   f"{workload} trace {trace}: correct, {first['attempted']} attempted"
                   " in at least two passes")
            repeat = [k for k, v in first["metrics"].items()
                      if v["unit"] in ("count", "fraction")]
            expect(all(first["metrics"][k] == again["metrics"][k] for k in repeat)
                   and first["failed"] == again["failed"],
                   f"{workload} trace {trace}: counts and fractions repeat for one seed")
        layers = results[1]["metrics"]
        if workload == "lifetime-study":
            expect(layers["nls.fd_jacobian.calls"]["value"] == 0,
                   "lifetime-study makes no finite-difference Jacobian")
        if workload != "simulate":
            expect(layers["synth.generate_s"]["value"] == 0, f"{workload} bypasses synth")
        else:
            expect(layers["nls.minimize.calls"]["value"] == 0, "simulate bypasses nls")


def passing_item(workload, tries=6):
    """Build a workload's items in a scratch work dir and run them until one
    passes its output check; fail when none of the first `tries` does."""
    sicpl = sys.modules["sicpl"]
    work = run.BENCH / "_work" / "selftest" / workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "out").mkdir(parents=True)
    runner = run.Runner(sicpl.cli)
    for item in WORKLOADS[workload](SEED, str(work), sicpl)[:tries]:
        runner.run(item)
        if item.check(item.rcs).failure is None:
            expect(True, f"untouched {workload} item {item.id} passes its check")
            return item
    expect(False, f"one of the first {tries} {workload} items passes its check")


def rewrite(path, old, new):
    with open(path) as fh:
        text = fh.read()
    assert old in text, (path, old)
    with open(path, "w") as fh:
        fh.write(text.replace(old, new, 1))


def check_output_checks():
    sys.path.insert(0, str(ROOT / "src"))
    import sicpl.cli  # noqa: F401

    # lifetime: a tenfold lifetime in the report
    item = passing_item("lifetime-study")
    report = item.outputs[0]
    tau = read_report(report)["tau1 [ns]"][0]
    rewrite(report, f"  {tau} +/-", f"  {float(tau) * 10:.6g} +/-")
    outcome = item.check(item.rcs)
    expect(outcome.wrong, f"wrong tau1 flagged ({outcome.failure})")

    # sideband: a wrong DW in the report, and a budget JSON that disagrees
    item = passing_item("sideband-dw")
    psb_report, budget_json = item.outputs[1], item.outputs[2]
    dw = read_report(psb_report)["DW alpha refined"][0]
    rewrite(psb_report, f"  {dw}\n", "  0.9\n")
    outcome = item.check(item.rcs)
    expect(outcome.wrong, f"wrong DW alpha refined flagged ({outcome.failure})")
    rewrite(psb_report, "  0.9\n", f"  {dw}\n")
    expect(item.check(item.rcs).failure is None, "restored report passes again")
    rewrite(budget_json, '"eta_tot": 0.', '"eta_tot": 1.')
    outcome = item.check(item.rcs)
    expect(outcome.wrong, f"wrong budget flagged ({outcome.failure})")

    # simulate: a changed count breaks the repeat check and the count check
    item = passing_item("simulate")
    before = fingerprint(item)
    path = item.outputs[0]
    with open(path) as fh:
        lines = fh.read().splitlines(keepends=True)
    row = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    x, count = lines[row].split()
    lines[row] = f"{x} {int(count) + 1}\n"
    with open(path, "w") as fh:
        fh.writelines(lines)
    expect(fingerprint(item) != before, "changed simulate file breaks the repeat check")
    lines[row] = f"{x} {int(count) + 0.5}\n"
    with open(path, "w") as fh:
        fh.writelines(lines)
    outcome = item.check(item.rcs)
    expect(outcome.wrong, f"non-integer count flagged ({outcome.failure})")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_tiny_runs(spec)
    check_output_checks()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
