"""The benchmark's per-layer tracer still finds the program's layer
boundaries: a renamed or removed hook fails here, not only in the
benchmark's slow self-test."""

import importlib.util
from pathlib import Path

import sicpl
import sicpl.cli  # noqa: F401  (the tracer wraps names in sicpl.cli)

_TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_hook_and_close_restores_it():
    tracing = _tracing()
    # getattr raises here, before anything is wrapped, if a hook is gone
    originals = [(module, attr, getattr(module, attr))
                 for module, attr, _, _ in tracing._targets(sicpl)]
    tracer = tracing.Tracer(sicpl)
    try:
        for module, attr, original in originals:
            assert getattr(module, attr) is not original, attr
    finally:
        tracer.close()
    for module, attr, original in originals:
        assert getattr(module, attr) is original, attr
