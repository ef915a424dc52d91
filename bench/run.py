"""Benchmark of the sicpl command line, one workload per run.

    python3 bench/run.py --workload lifetime-study --seed 1 --seconds 25 --trace 0

Drives `sicpl.cli.main(argv)` in-process, one item at a time in a closed
loop, over a fixed item list made from --seed. Whole passes over the list
repeat until --seconds have passed (at least two passes); one warm-up
item runs first and is not counted. Every output is checked against the
truth the inputs were made from on the first pass and must repeat byte for
byte on the others. Program times are CPU times of the main() calls,
scaled by the reference task timed in a helper process after each item
(see reference.py). With --trace 1 the program's layer boundaries are wrapped
and per-layer metrics are reported instead of end-to-end ones. The last
line of standard output is the result as one JSON object; the run's
details go to bench/_work/results/.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread in this process; must be set before numpy loads
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import numpy as np  # noqa: E402

from reference import REFERENCE_S, Reference, scaled  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, fingerprint  # noqa: E402

SETUP_REPEATS = 11


def _children_cpu():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup(reference):
    """Median scaled CPU seconds of a fresh interpreter importing sicpl.cli,
    and the median wall seconds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-c", "import sicpl.cli"]
    subprocess.run(cmd, env=env, check=True)   # writes the bytecode caches
    cpu, wall = [], []
    for _ in range(SETUP_REPEATS):
        before = [reference.time() for _ in range(3)]
        start, start_cpu = time.perf_counter(), _children_cpu()
        subprocess.run(cmd, env=env, check=True)
        wall.append(time.perf_counter() - start)
        used = _children_cpu() - start_cpu
        after = [reference.time() for _ in range(3)]
        cpu.append(used * REFERENCE_S / statistics.median(before + after))
    return statistics.median(cpu), statistics.median(wall)


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "commit": commit, "nproc": os.cpu_count(),
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "cpu_affinity": sorted(os.sched_getaffinity(0))}


class Runner:
    """Runs items through cli.main, timing only the main() calls."""

    def __init__(self, cli, tracer=None):
        self.cli = cli
        self.tracer = tracer
        self.cpu = self.wall = 0.0

    def call(self, argv):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start, start_wall = time.process_time(), time.perf_counter()
            rc = self.cli.main(argv)
            self.cpu += time.process_time() - start
            self.wall += time.perf_counter() - start_wall
        return rc

    def run(self, item, traced=False):
        """Run one item; returns the CPU seconds of its main() calls."""
        self.cpu = self.wall = 0.0
        if traced and self.tracer is not None:
            self.tracer.item = item.id
        try:
            item.rcs = item.run(self.call)
        finally:
            if self.tracer is not None:
                self.tracer.item = None
        return self.cpu


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--items", type=int, default=0,
                   help="keep only the first N items (smoke tests; default: all)")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    # one CPU for this process and the interpreters it starts, so items,
    # reference tasks and set-up imports share one core's load
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except OSError as exc:
        print(f"# running unpinned: {exc}")
    if not (ROOT / "src" / "sicpl" / "cli.py").is_file():
        print(f"error: no sicpl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import sicpl.cli  # noqa: F401  (loads every layer module)

    sicpl = sys.modules["sicpl"]
    work = BENCH / "_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "out").mkdir(parents=True)
    # numpy seeds must be non-negative; this is the identity below 2**63
    items = WORKLOADS[args.workload](args.seed % 2**63, str(work), sicpl)
    if args.items:
        items = items[:args.items]

    first, cpu, refs, passes, wall = {}, [], [], 0, 0.0
    changed = set()
    with Reference() as reference:
        setup_s, setup_wall = (measure_setup(reference) if args.trace == 0
                               else (None, None))
        tracer = Tracer(sicpl) if args.trace else None
        runner = Runner(sicpl.cli, tracer)
        try:
            runner.run(items[0])   # warm-up, not counted
            start = time.perf_counter()
            while passes < 2 or time.perf_counter() - start < args.seconds:
                for item in items:
                    cpu.append(runner.run(item, traced=True))
                    wall += runner.wall
                    refs.append(reference.time())
                    if passes == 0:
                        first[item.id] = (item.check(item.rcs), fingerprint(item))
                    elif fingerprint(item) != first[item.id][1]:
                        changed.add(item.id)
                passes += 1
        finally:
            if tracer is not None:
                tracer.close()

    outcomes = [first[item.id][0] for item in items]
    failed = [(item.id, o.failure) for item, o in zip(items, outcomes) if o.failure]
    wrong = [(item.id, o.failure) for item, o in zip(items, outcomes) if o.wrong]
    checked = sum(o.checked for o in outcomes)
    judged = [o.kind_ok for o in outcomes if o.kind_ok is not None]
    item_s = np.array(scaled(cpu, refs))
    items_per_s = item_s.size / float(item_s.sum())
    # latency of an item: its median over the passes, which drops the
    # passes a transient slowdown of the machine hit
    latency_ms = np.median(item_s.reshape(passes, len(items)), axis=0) * 1e3

    if args.trace:
        metrics = {"traced.items_per_s": (items_per_s, "1/s")}
        to_reference = REFERENCE_S / statistics.median(refs)
        for name, value in tracer.layer_metrics(passes).items():
            if name.endswith("_s") or name.endswith("per_iteration"):
                metrics[name] = (value * to_reference, "s")
            else:
                metrics[name] = (value, "count")
        tracer.dump(work / "spans.jsonl")
    else:
        metrics = {
            "items_per_s": (items_per_s, "1/s"),
            "item_ms_p50": (float(np.percentile(latency_ms, 50)), "ms"),
            "item_ms_p95": (float(np.percentile(latency_ms, 95)), "ms"),
            "pass_frac": (1.0 - len(failed) / len(items), "fraction"),
            "cover3_frac": (sum(o.covered for o in outcomes) / checked if checked else 1.0,
                            "fraction"),
            "kind_ok_frac": (sum(judged) / len(judged) if judged else 1.0, "fraction"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "MB"),
        }

    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "items": len(items), "passes": passes, "timed_items": len(cpu),
        "checked_truths": checked, "failures": failed, "wrong_outputs": wrong,
        "changed_on_repeat": sorted(changed),
        "unscaled": {"cpu_items_per_s": len(cpu) / sum(cpu),
                     "wall_items_per_s": len(cpu) / wall,
                     "setup_wall_s": setup_wall,
                     "reference_s_median": statistics.median(refs)},
        "environment": environment(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "item_cpu_s": cpu, "reference_s": refs,
    }
    results = BENCH / "_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    with open(results / f"{args.workload}-trace{args.trace}.json", "w") as fh:
        json.dump(summary, fh)
        fh.write("\n")
    print(f"# environment {json.dumps(summary['environment'])}")
    print(f"# unscaled {json.dumps(summary['unscaled'])}")
    print(f"# {args.workload}: {len(items)} items x {passes} passes, "
          f"{len(failed)} failed per pass, {len(wrong)} wrong outputs, "
          f"{len(changed)} changed on repeat")
    for item_id, reason in failed:
        print(f"#   failed {item_id}: {reason}")
    print(json.dumps({
        "correct": not wrong and not changed,
        "attempted": len(cpu),
        "failed": len(failed) * passes,
        "metrics": summary["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
