"""Run one benchmark workload in this process; print one JSON result line.

Started by ``run.py``, which sets the thread environment and starts a fresh
interpreter per workload so that the peak resident memory belongs to that
workload alone.  ``--setup-only`` times the set-up and exits; the launcher
uses it to sample the set-up time several times per run.

The set-up (import of the package, loading and resolving the workload's
config) is timed first.  Then the workload's unit of work repeats until the
next repetition would end past ``--seconds``, each repetition bracketed by
a calibration kernel (see ``calibrate.py``); the reported wall time is the
interquartile mean of the repetition times scaled to the kernel's
reference speed, and the raw times go to the run record.
With ``--trace 1`` each repetition is a pair: an untraced run and a traced
run of the same inputs, whose outputs must be identical.  Per-layer times
are raw; ``trace.overhead_s`` compares the scaled times of the pair.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench"

#: Failure reasons kept in the run record, per repetition.
MAX_REASONS = 5


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


class Run:
    """Counts and timings of the repetitions of one workload."""

    def __init__(self, workload, state, reference):
        self.workload = workload
        self.state = state
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.first_output = None
        self.reasons = []

    def once(self):
        """One timed, checked repetition: ``(seconds, facts)``."""
        start = time.perf_counter()
        outcome = self.workload.run(self.state)
        seconds = time.perf_counter() - start
        attempted, failed, facts = self.workload.check(self.state, outcome, self.reference)
        if self.first_output is None:
            self.first_output = facts["output"]
        elif facts["output"] != self.first_output:
            failed = attempted
            facts["failures"]["output"] = ["output differs from the first repetition of this run"]
        self.attempted += attempted
        self.failed += failed
        for index, reasons in list(facts["failures"].items())[:MAX_REASONS]:
            self.reasons.append(f"{index}: {'; '.join(reasons)}")
        return seconds, facts


def measure(run, seconds, reps):
    """Call each function of `reps` in turn, each call bracketed by
    calibration kernels, until the next round would end past `seconds`.

    A function does one repetition and returns its wall time.  Returns, per
    function, the raw times and the times scaled by the mean of the two
    calibrations around each call, plus the calibration times.
    """
    import calibrate

    kernel = run.workload.calibration
    start = time.perf_counter()
    cals = [calibrate.measure(kernel)]
    raw = [[] for _ in reps]
    scaled = [[] for _ in reps]
    while True:
        round_s = 0.0
        for i, rep in enumerate(reps):
            wall = rep()
            cals.append(calibrate.measure(kernel))
            raw[i].append(wall)
            scaled[i].append(calibrate.scale(wall, kernel, (cals[-2] + cals[-1]) / 2))
            round_s += wall + cals[-1]
        if time.perf_counter() - start + round_s > seconds:
            return raw, scaled, cals


def interquartile_mean(values):
    """Mean of the middle half of `values`: as robust to a stray repetition as
    the median, and steadier when the repetitions jitter evenly."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def plain_rep(run):
    return lambda: run.once()[0]


def traced_rep(run, spans, layers):
    """A repetition under `spans` whose per-layer metrics go to `layers`."""
    import workloads

    def rep():
        spans.clear()
        with spans:
            wall, facts = run.once()
        summary = spans.summary()
        inputs = run.workload.layer_inputs(run.state, facts, spans)
        layers.append((workloads.layer_metrics(summary, spans.counts, inputs), summary))
        return wall

    return rep


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    output = OUT_DIR / f"{args.workload}-{os.getpid()}.csv"

    start = time.perf_counter()
    import lockeysim
    state = workload.setup(args.seed, output)
    setup_s = time.perf_counter() - start
    import calibrate
    import numpy

    if args.setup_only:
        calibration_s = calibrate.measure(workload.calibration, runs=1)
        print(json.dumps({
            "setup_s": calibrate.scale(setup_s, workload.calibration, calibration_s),
            "raw_setup_s": setup_s,
        }))
        return 0

    reference = workloads.load_reference(workload.name)
    run = Run(workload, state, reference)
    info = {"numpy": numpy.__version__, "lockeysim": lockeysim.__version__}
    if args.trace:
        import tracer

        spans = tracer.Tracer(observers=workloads.observers())
        layers = []
        raw, scaled, cals = measure(run, args.seconds, [plain_rep(run), traced_rep(run, spans, layers)])
        metrics = {name: statistics.median(m[name] for m, _ in layers) for name in layers[0][0]}
        metrics["trace.overhead_s"] = interquartile_mean(scaled[1]) - interquartile_mean(scaled[0])
        functions = {label: row for label, row in layers[-1][1].items() if row["calls"]}
        info.update(raw_walls=raw[0], raw_traced_walls=raw[1], scaled_walls=scaled[0],
                    scaled_traced_walls=scaled[1], functions=functions)
    else:
        raw, scaled, cals = measure(run, args.seconds, [plain_rep(run)])
        metrics = {
            "setup_s": calibrate.scale(setup_s, workload.calibration, cals[0]),
            "wall_s": interquartile_mean(scaled[0]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        info.update(raw_setup_s=setup_s, raw_walls=raw[0], scaled_walls=scaled[0])
    info.update(calibration=workload.calibration, calibration_walls=cals)
    info["failed_ratio"] = run.failed / run.attempted
    info["failures"] = run.reasons
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
        "info": info,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
