"""tools/outputs_digest.py, which compares two checkouts item by item:
one line per item, and the same digests when the items run again."""

import importlib.util
import re
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
    assert [item_id for item_id, _, _ in first] == [
        "recipe-000-decay-double", "recipe-001-decay-double", "recipe-002-decay-double"]
    for _, rcs, digest in first:
        assert rcs == [0] and re.fullmatch("[0-9a-f]{64}", digest)
    assert len({digest for _, _, digest in first}) == 3
    assert tool.digest_items("simulate", 1, items=3) == first
