"""Print the sha256 prefixes that pin the simulator's output.

One line per run, ``<name> <first 16 hex digits of sha256>``:

- the CSV of ``lockeysim simulate`` for the fig5a, fig5b and fig5d presets
  at seed 0 with ``--trials`` trials (default 1,000);
- the fig5a CSV at seed 3 with twice that many trials;
- the fig5b CSV at seed 0 with ``--trials`` trials and the prediction
  scalar trained on a window (``protocol.gamma_mode: window``, set in a
  temporary configuration file);
- the standard output of ``lockeysim oracle --samples <--samples>``
  (default 1,000,000).

``--jobs`` is passed to every ``simulate`` run; the hashes must not depend
on it.  Run from anywhere: ``python3 scripts/row_hashes.py --jobs 2``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from lockeysim.cli import main  # noqa: E402


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _cli_output(argv) -> bytes:
    """Run the CLI on `argv` and return what it printed; fail on a non-zero exit."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"lockeysim {' '.join(argv)} exited with {code}")
    return out.getvalue().encode()


def row_hashes(trials: int, samples: int, jobs: int) -> list:
    """``[(name, hash)]`` of the runs listed in the module docstring."""
    hashes = []
    with tempfile.TemporaryDirectory() as tmp:
        csv = Path(tmp) / "rows.csv"
        window = Path(tmp) / "window.yaml"
        window.write_text("protocol.gamma_mode: window\n")
        runs = [(f"{preset} --seed 0 --trials {trials}", preset, 0, trials, []) for preset in ("fig5a", "fig5b", "fig5d")]
        runs.append((f"fig5a --seed 3 --trials {2 * trials}", "fig5a", 3, 2 * trials, []))
        runs.append((f"fig5b --seed 0 --trials {trials} window", "fig5b", 0, trials, ["--config", str(window)]))
        for name, preset, seed, count, extra in runs:
            _cli_output(["simulate", "--preset", preset, "--seed", str(seed), "--trials", str(count),
                         "--jobs", str(jobs), "--output", str(csv), *extra])
            hashes.append((name, _digest(csv.read_bytes())))
    hashes.append((f"oracle --samples {samples}", _digest(_cli_output(["oracle", "--samples", str(samples)]))))
    return hashes


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=1_000, help="trials of the seed-0 runs")
    parser.add_argument("--samples", type=int, default=1_000_000, help="samples of the oracle run")
    parser.add_argument("--jobs", type=int, default=1, help="worker threads of each simulate run")
    return parser.parse_args(argv)


if __name__ == "__main__":
    args = parse_args()
    for name, digest in row_hashes(args.trials, args.samples, args.jobs):
        print(f"{name:36s} {digest}")
