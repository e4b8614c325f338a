"""Every demo script runs to completion against the current package."""

import runpy
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_cleanly(demo, tmp_path, monkeypatch, capsys):
    # in process, as a script: any exception fails the test, and any file a
    # demo writes stays inside the test's own directory
    monkeypatch.setattr(sys, "argv", [str(demo)])
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    runpy.run_path(str(demo), run_name="__main__")
    capsys.readouterr()
