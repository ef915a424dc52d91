"""tools/outputs_digest.py, which compares two checkouts item by item:
one row per item with a digest per written file, and the same digests
when the items run again."""

import importlib.util
import re
import sys
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "outputs_digest.py"


def _tool():
    spec = importlib.util.spec_from_file_location("outputs_digest", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_three_items_digest_the_same_twice():
    tool = _tool()
    first = tool.digest_items("simulate", 1, items=3)
    assert [item_id for item_id, _, _, _ in first] == [
        "recipe-000-decay-double", "recipe-001-decay-double", "recipe-002-decay-double"]
    for item_id, rcs, text, files in first:
        assert rcs == [0] and re.fullmatch("[0-9a-f]{64}", text)
        (path, digest), = files
        assert path == f"out/{item_id}/simulated.txt"
        assert re.fullmatch("[0-9a-f]{64}", digest)
    assert len({files[0][1] for _, _, _, files in first}) == 3
    assert tool.digest_items("simulate", 1, items=3) == first


def test_sideband_items_list_each_pipeline_file():
    # zpl -> fit-psb -> budget: three calls and six files per item
    for item_id, rcs, text, files in _tool().digest_items("sideband-dw", 1, items=2):
        assert rcs == [0, 0, 0] and re.fullmatch("[0-9a-f]{64}", text)
        assert [path for path, _ in files] == [
            f"out/{item_id}/{name}" for name in ("budget_k.json", "budget_report.txt",
                                                 "fit-psb_report.txt", "zpl_report.txt",
                                                 "zpl_result.json", "zpl_spectrum.npy")]
        assert all(re.fullmatch("[0-9a-f]{64}", digest) for _, digest in files)


def test_lifetime_items_list_their_decay_report():
    # fit-decay: one call and one report per item
    rows = _tool().digest_items("lifetime-study", 1, items=2)
    assert [item_id for item_id, _, _, _ in rows] == ["single-0-4K", "single-0-25K"]
    for item_id, rcs, text, files in rows:
        assert rcs == [0] and re.fullmatch("[0-9a-f]{64}", text)
        (path, digest), = files
        assert path == f"out/{item_id}/fit-decay_report.txt"
        assert re.fullmatch("[0-9a-f]{64}", digest)
    assert rows[0][3] != rows[1][3]


def test_each_written_file_has_its_line(monkeypatch, capsys):
    tool = _tool()
    rows = [("a", [0, 3], "1" * 64, [("out/a/r.txt", "2" * 64), ("out/a/x.json", "missing")])]
    monkeypatch.setattr(tool, "digest_items", lambda *args: rows)
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    assert tool.main(["--workload", "simulate", "--seed", "1"]) == 0
    assert capsys.readouterr().out == (f"a 0,3 {'1' * 64}\n  out/a/r.txt {'2' * 64}\n"
                                       "  out/a/x.json missing\n")
