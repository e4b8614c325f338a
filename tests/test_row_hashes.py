"""`scripts/row_hashes.py` runs end to end at a tiny trial count."""

import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "row_hashes.py"


def run_script(monkeypatch, capsys, *args):
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), *args])
    monkeypatch.setattr(sys, "path", list(sys.path))
    runpy.run_path(str(SCRIPT), run_name="__main__")
    return capsys.readouterr().out


def test_one_hash_per_run_and_the_same_for_any_job_count(monkeypatch, capsys, tmp_path):
    monkeypatch.chdir(tmp_path)
    args = ("--trials", "4", "--samples", "10000")
    lines = run_script(monkeypatch, capsys, *args, "--jobs", "1").splitlines()
    assert [line.split()[0] for line in lines] == ["fig5a", "fig5b", "fig5d", "fig5a", "fig5b", "oracle"]
    assert "--seed 3 --trials 8" in lines[3] and "--samples 10000" in lines[5]
    assert "--seed 0 --trials 4 window" in lines[4] and lines[4].split()[-1] != lines[1].split()[-1]
    assert all(re.fullmatch(r".+ [0-9a-f]{16}", line) for line in lines)
    assert run_script(monkeypatch, capsys, *args, "--jobs", "2").splitlines() == lines
    assert list(tmp_path.iterdir()) == []


def test_the_same_hashes_with_the_simd_dispatch_targets_disabled(monkeypatch, capsys, tmp_path):
    # numpy picks a SIMD kernel per host; the rows must not depend on which
    targets = [target for target in __cpu_dispatch__ if __cpu_features__.get(target)]
    if not targets:
        pytest.skip("this host enables none of numpy's SIMD dispatch targets")
    monkeypatch.chdir(tmp_path)
    args = ("--trials", "4", "--samples", "10000")
    disabled = subprocess.run([sys.executable, str(SCRIPT), *args], capture_output=True, text=True, check=True,
                              env={**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(targets)})
    assert disabled.stdout.splitlines() == run_script(monkeypatch, capsys, *args).splitlines()
