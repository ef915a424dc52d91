"""The narrative demos and the README's python blocks run to the end and
write no files."""

import re
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
README = DEMOS.parent / "README.md"


@pytest.mark.parametrize("name", ["lifetime_analysis.py", "spectrum_and_budget.py"])
def test_demo_runs(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out
    assert not list(tmp_path.iterdir())


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    assert not list(tmp_path.iterdir())
