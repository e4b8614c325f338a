"""`scripts/code_size.py` prints its three counters."""

import re
import runpy
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "code_size.py"


def test_one_positive_count_per_counter(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [str(SCRIPT)])
    monkeypatch.setattr(sys, "path", list(sys.path))
    runpy.run_path(str(SCRIPT), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    assert [re.fullmatch(r"(.+?) +(\d+)", line).group(1) for line in lines] == [
        "src/lockeysim lines", "__init__ imported names", "DEFAULTS keys"]
    assert all(int(line.split()[-1]) > 0 for line in lines)
