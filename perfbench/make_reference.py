"""Rebuild the reference rows the sweep workloads are checked against.

    python3 perfbench/make_reference.py [--workload scheme_sweep]

Runs each sweep workload at its benchmark trial count for `SEEDS` master
seeds and stores, per cell and per scheme (the mean over the scheme's
cells), the mean and standard deviation of each empirical column across
those seeds, on the column's gate scale (`workloads.GATE_SCALE`).

The tolerance of a column is `k` standard deviations, with `k` set per
column and per level (cell or scheme) from `CALIBRATION_SEEDS` further
seeds: `MARGIN` times the largest deviation, in standard deviations, seen
on any of them.  A program that draws the same distributions from other
streams, a different seed or a statistically equivalent kernel, stays
inside it; a scheme that loses its advantage does not.  None of these
seeds is a small integer a benchmark run would likely use.  Analytic
columns are not stored: they are not gated.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import workloads  # noqa: E402

#: Seeds whose runs give the reference means and standard deviations.
FIRST_SEED = 10_000
SEEDS = 48
#: Seeds whose runs set each column's tolerance in standard deviations.
FIRST_CALIBRATION_SEED = 20_000
CALIBRATION_SEEDS = 60
#: Tolerance as a multiple of the largest deviation on the calibration seeds.
MARGIN = 2.0
#: Absolute slack for columns that do not vary across seeds; the CSV keeps 6
#: significant digits.
FLOOR = 1e-6


def sweep_runs(workload, seeds):
    """Parsed rows of one run of `workload` per seed."""
    output = BENCH_DIR.parent / ".perfbench" / f"reference-{workload.name}-{os.getpid()}.csv"
    output.parent.mkdir(exist_ok=True)
    runs = []
    for seed in seeds:
        state = workload.setup(seed, output)
        workload.run(state)
        runs.append(workloads.parse_csv(output.read_text(encoding="utf-8")))
        output.unlink()
        print(f"{workload.name}: seed {seed} done", file=sys.stderr)
    return runs


def gate_tables(runs):
    """Per run, ``(cells, schemes)``: gate values by cell index and by scheme."""
    return [
        ({i: {c: workloads.gate_value(c, row[c]) for c in workloads.EMPIRICAL} for i, row in enumerate(rows)},
         workloads.scheme_means(rows))
        for rows in runs
    ]


def moments(values):
    """``(mean, std)`` across seeds, ``(None, None)`` for a column that is NaN."""
    if all(math.isnan(v) for v in values):
        return None, None
    return statistics.fmean(values), statistics.stdev(values)


def largest_deviation(tables, stats, column):
    """Largest ``|value - mean| / std`` of `column` over every entry of `tables`."""
    worst = 0.0
    for table in tables:
        for key, values in table.items():
            mean, std = stats[key][column]
            if mean is not None and std > 0:
                worst = max(worst, abs(values[column] - mean) / std)
    return worst


def level(tables, calibration):
    """Reference entries and per-column `k` of one level (cell or scheme)."""
    stats = {
        key: {c: moments([table[key][c] for table in tables]) for c in workloads.EMPIRICAL}
        for key in tables[0]
    }
    k = {c: MARGIN * largest_deviation(calibration, stats, c) for c in workloads.EMPIRICAL}
    entries = {}
    for key, columns in stats.items():
        entry = {"mean": {}, "std": {}, "tol": {}}
        for c, (mean, std) in columns.items():
            entry["mean"][c], entry["std"][c] = mean, std
            entry["tol"][c] = None if mean is None else k[c] * std + FLOOR * max(1.0, abs(mean))
        entries[key] = entry
    return entries, k


def build(workload, runs, calibration_runs, seeds, calibration_seeds):
    tables, calibration = gate_tables(runs), gate_tables(calibration_runs)
    cells, cell_k = level([t[0] for t in tables], [t[0] for t in calibration])
    schemes, scheme_k = level([t[1] for t in tables], [t[1] for t in calibration])
    return {
        "workload": workload.name,
        "preset": workload.preset,
        "trials": workload.trials,
        "seeds": list(seeds),
        "calibration_seeds": list(calibration_seeds),
        "margin": MARGIN,
        "k_cell": cell_k,
        "k_scheme": scheme_k,
        "cells": [
            {"key": [row[k] for k in workloads.CELL_KEY], **cells[i]} for i, row in enumerate(runs[0])
        ],
        "schemes": schemes,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sweeps = [name for name, w in workloads.WORKLOADS.items() if isinstance(w, workloads.Sweep)]
    parser.add_argument("--workload", choices=sweeps, action="append")
    args = parser.parse_args(argv)
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    seeds = range(FIRST_SEED, FIRST_SEED + SEEDS)
    calibration_seeds = range(FIRST_CALIBRATION_SEED, FIRST_CALIBRATION_SEED + CALIBRATION_SEEDS)
    for name in args.workload or sweeps:
        workload = workloads.WORKLOADS[name]
        reference = build(workload, sweep_runs(workload, seeds), sweep_runs(workload, calibration_seeds),
                          seeds, calibration_seeds)
        path = workloads.REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
