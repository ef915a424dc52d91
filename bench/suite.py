"""Run every workload, untraced and traced, and print all metrics.

    python3 bench/suite.py --seeds 1,2,3 [--baseline bench/baseline.json]

Each workload of BENCHMARK.json runs once per seed with tracing off, for
its run_seconds; the end-to-end table gives the median over seeds and the
spread (distance between the first and third quartile over the median).
One traced run per workload, on the first seed, gives the per-layer
metrics; tracing overhead is the traced items_per_s against the untraced
one of the same seed. Runs are made one at a time, each in its own
process. The median reference-task time of each workload's untraced runs
is kept with the results (see reference.py).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload, seed, seconds, trace, items=0):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if items:
        cmd += ["--items", str(items)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    notes = {line.split(" ", 2)[1]: json.loads(line.split(" ", 2)[2]) for line in lines
             if line.startswith(("# environment ", "# unscaled "))}
    return json.loads(lines[-1]), notes


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1", help="comma-separated seeds")
    p.add_argument("--baseline", help="write the results to this JSON file")
    args = p.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]

    seconds = spec["run_seconds"]
    report = {"seeds": seeds, "seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs, reference_s = [], []
        for seed in seeds:
            result, notes = run_once(workload, seed, seconds, 0)
            runs.append(result)
            reference_s.append(notes["unscaled"]["reference_s_median"])
            report["environment"] = notes["environment"]
        traced, _ = run_once(workload, seeds[0], seconds, 1)
        overhead = 1.0 - (traced["metrics"]["traced.items_per_s"]["value"]
                          / runs[0]["metrics"]["items_per_s"]["value"])
        end_to_end = {}
        print(f"\n== {workload}  ({len(seeds)} seeds x {seconds:g} s, "
              f"attempted {[r['attempted'] for r in runs]}, "
              f"failed {[r['failed'] for r in runs]}, "
              f"correct {all(r['correct'] for r in runs)})")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in runs]
            end_to_end[name] = {"median": statistics.median(values), "spread": spread(values),
                                "unit": metric["unit"], "values": values}
            print(f"  {name:22s} {statistics.median(values):12.6g} {metric['unit']:9s}"
                  f" spread {spread(values):7.2%}  (bound {metric['bound']:.0%})")
        print(f"  {'reference_s':22s} {statistics.median(reference_s):12.6g} {'s':9s}"
              f" spread {spread(reference_s):7.2%}  (unscaled CPU time of the reference task)")
        print(f"  per layer, traced run on seed {seeds[0]} "
              f"(tracing overhead {overhead:.1%} of items_per_s):")
        for name, value in traced["metrics"].items():
            print(f"    {name:26s} {value['value']:12.6g} {value['unit']}")
        report["workloads"][workload] = {
            "end_to_end": end_to_end,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "tracing_overhead": overhead,
            "reference_s_median": statistics.median(reference_s),
            "reference_s_medians": reference_s,
            "correct": all(r["correct"] for r in runs) and traced["correct"],
        }
    if args.baseline:
        with open(args.baseline, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
