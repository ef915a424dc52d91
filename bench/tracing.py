"""Per-layer spans and counts, recorded from outside the program.

The tracer replaces the public names the program calls through with
wrappers that record a span (name, start, end, parent span, item id) and
the counts taken from the call's arguments or result. Spans stay in
memory; `layer_metrics` turns them into per-layer numbers and `dump`
writes them out when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


def _rows(result):
    for attr in ("times", "wavelengths"):
        if hasattr(result, attr):
            return int(getattr(result, attr).size)
    return 0


def _points(result):
    for attr in ("counts", "intensities"):
        if hasattr(result, attr):
            return int(getattr(result, attr).size)
    return len(result)


# (module, attribute, span name, counter(counts, args, result) or None)
def _targets(sicpl):
    cli, decay, spectrum, nls, synth = (sicpl.cli, sicpl.decay, sicpl.spectrum,
                                        sicpl.nls, sicpl.synth)

    def load(counts, args, result):
        counts["io.load.calls"] += 1
        counts["io.load.rows"] += _rows(result)

    def save(counts, args, result):
        counts["io.save.rows"] += len(args[1])

    def fit(counts, args, result):
        counts["nls.minimize.calls"] += 1
        counts["nls.iterations"] += result.n_iterations
        counts["nls.unconverged"] += not result.converged

    def simple(key):
        def count(counts, args, result):
            counts[key] += 1
        return count

    def generated(counts, args, result):
        counts["synth.points"] += _points(result)

    return [
        (cli, "main", "cli.main", simple("cli.calls")),
        (cli, "load_trace", "io.load", load),
        (cli, "load_spectrum", "io.load", load),
        (cli, "load_sidecar", "io.load", simple("io.load.calls")),
        (cli, "save_two_column", "io.save", save),
        (cli, "generate", "synth.generate", generated),
        (cli, "fit_decay", "decay.fit_decay", simple("decay.fit_decay.calls")),
        (cli, "fit_thermal", "decay.fit_thermal", None),
        (cli, "find_zpls", "spectrum.find_zpls", None),
        (cli, "fit_psb", "spectrum.fit_psb", None),
        (cli, "partition_dw", "spectrum.partition_dw", None),
        (cli, "budget", "photophysics.budget", None),
        (decay, "minimize", "nls.minimize", fit),
        (spectrum, "minimize", "nls.minimize", fit),
        (nls, "finite_diff_jacobian", "nls.fd_jacobian", simple("nls.fd_jacobian.calls")),
        (synth, "expected_decay", "synth.expected", None),
        (synth, "expected_spectrum", "synth.expected", None),
    ]


class Tracer:
    """Wraps the program's layer boundaries; records only while `item` is set."""

    def __init__(self, sicpl):
        self.spans = []       # [name, start, end, parent index or None, item]
        self.counts = defaultdict(int)
        self.item = None
        self._stack = []
        self._originals = []
        for module, attr, name, counter in _targets(sicpl):
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, counter))

    def _wrap(self, original, name, counter):
        def wrapper(*args, **kwargs):
            if self.item is None:
                return original(*args, **kwargs)
            span = [name, time.process_time(), None,
                    self._stack[-1] if self._stack else None, self.item]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.process_time()
                self._stack.pop()
            if counter is not None:
                counter(self.counts, args, result)
            return result

        return wrapper

    def close(self):
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals = []

    def layer_metrics(self, passes: int) -> dict:
        """Per-layer counts and seconds per pass over the workload's items."""
        total = defaultdict(float)
        self_time = defaultdict(float)
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        for i, (name, start, end, _, _) in enumerate(self.spans):
            total[name] += end - start
            self_time[name] += end - start - child_time[i]
        c = self.counts
        per_pass = {
            "cli.calls": c["cli.calls"],
            "cli.self_s": self_time["cli.main"],
            "io.load.calls": c["io.load.calls"],
            "io.load.rows": c["io.load.rows"],
            "io.load_s": total["io.load"],
            "io.save.rows": c["io.save.rows"],
            "io.save_s": total["io.save"],
            "synth.points": c["synth.points"],
            "synth.generate_s": total["synth.generate"],
            "synth.expected_s": total["synth.expected"],
            "synth.noise_s": self_time["synth.generate"],
            "decay.fit_decay.calls": c["decay.fit_decay.calls"],
            "decay.fit_decay_s": total["decay.fit_decay"],
            "decay.fit_thermal_s": total["decay.fit_thermal"],
            "spectrum.find_zpls_s": total["spectrum.find_zpls"],
            "spectrum.fit_psb_s": total["spectrum.fit_psb"],
            "spectrum.partition_dw_s": total["spectrum.partition_dw"],
            "nls.minimize.calls": c["nls.minimize.calls"],
            "nls.iterations": c["nls.iterations"],
            "nls.unconverged": c["nls.unconverged"],
            "nls.minimize_s": total["nls.minimize"],
            "nls.fd_jacobian.calls": c["nls.fd_jacobian.calls"],
            "nls.fd_jacobian_s": total["nls.fd_jacobian"],
            "photophysics.budget_s": total["photophysics.budget"],
        }
        out = {}
        for key, value in per_pass.items():
            if key.endswith("_s"):
                out[key] = value / passes
            else:
                # every pass runs the same items, so counts divide exactly
                out[key] = value // passes
        iterations = c["nls.iterations"]
        out["nls.s_per_iteration"] = total["nls.minimize"] / iterations if iterations else 0.0
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, item in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "item": item}) + "\n")
