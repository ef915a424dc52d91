"""The narrative demos run to the end and write no files."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["lifetime_analysis.py", "spectrum_and_budget.py"])
def test_demo_runs(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out
    assert not list(tmp_path.iterdir())
