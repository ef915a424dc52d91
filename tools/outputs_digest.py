"""Exit codes and output digests of every item of one benchmark workload.

    python3 tools/outputs_digest.py --workload lifetime-study --seed 1
    python3 tools/outputs_digest.py --workload simulate --seed 2 --root ../other-checkout

Builds the workload's items from `bench/workloads.py` and runs each once
through `sicpl.cli.main`, both taken from the checkout `--root` (default:
the one this file sits in). Prints one line per item: its id, the exit
codes of its calls and a sha256 over its standard output and error.
Each item line is followed by one `<path> <sha256>` line per file the
item wrote, `*_manifest.json` excluded (manifests record paths and
versions); the path is relative to the work directory, and a listed
output that was not written reads `missing`. The work directory in the
captured text reads `<work>`, so two checkouts can be compared by diffing
what this prints for each, and the diff names each changed, added or
missing file.
Nothing under `bench/` is written: no bytecode is cached, and the items
run in a temporary directory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_workloads(root):
    """`root`'s bench/workloads.py, loaded without writing its bytecode."""
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  root / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def _files(item, out_root):
    """Every file the item wrote: its listed outputs and its output
    directory's files, manifests excluded, in a fixed order."""
    out_dir = out_root / item.id
    found = {Path(p) for p in item.outputs}
    if out_dir.is_dir():
        found |= {p for p in out_dir.rglob("*") if p.is_file()}
    return sorted(p for p in found if not p.name.endswith("_manifest.json"))


def digest_items(workload, seed, root=ROOT, items=0):
    """(id, exit codes, sha256 of the captured text, [(path, sha256 or
    "missing")] of the files written) of each item of `workload` at
    `seed`, run through the `sicpl` this process imports; `items` > 0
    keeps the first `items` of them."""
    import sicpl.cli

    rows = []
    with tempfile.TemporaryDirectory() as work:
        out_root = Path(work) / "out"
        out_root.mkdir()
        built = _load_workloads(root).WORKLOADS[workload](seed, work, sys.modules["sicpl"])
        for item in built[:items] if items else built:
            sink = io.StringIO()

            def call(argv):
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    return sicpl.cli.main(argv)

            item.rcs = item.run(call)
            text = hashlib.sha256(sink.getvalue().replace(work, "<work>").encode())
            files = [(str(path.relative_to(work)) if path.is_relative_to(work) else path.name,
                      hashlib.sha256(path.read_bytes()).hexdigest() if path.exists()
                      else "missing")
                     for path in _files(item, out_root)]
            rows.append((item.id, item.rcs, text.hexdigest(), files))
    return rows


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("lifetime-study", "sideband-dw", "simulate"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--root", type=Path, default=ROOT,
                   help="checkout whose src/ and bench/workloads.py to use")
    args = p.parse_args(argv)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(args.root.resolve() / "src"))
    for item_id, rcs, digest, files in digest_items(args.workload, args.seed,
                                                    args.root.resolve()):
        print(item_id, ",".join(map(str, rcs)), digest)
        for path, file_digest in files:
            print(f"  {path} {file_digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
