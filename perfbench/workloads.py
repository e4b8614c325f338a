"""The benchmark's workloads, their correctness checks and per-layer metrics.

Each workload has the same shape: `setup(seed)` loads, validates and resolves
what the program needs (this is what ``setup_s`` times, together with the
package import); `run(state)` does the timed work through a public entry
point; `check(state, outcome, reference)` verifies the output and returns the
operations attempted and failed; `layer_inputs(state, ...)` gives the
outside-in facts the per-layer metrics need besides the trace.
"""

from __future__ import annotations

import csv
import io
import json
import math
import statistics
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE_DIR = BENCH_DIR / "reference"

SCHEMES = ("non_loopback", "loopback", "lockey")
CELL_KEY = ("scheme", "snr_db", "n_units", "attacked_units")
#: Columns measured by the simulation and gated against the reference.  The
#: analytic columns are not gated (see `infeasible_rows`).
EMPIRICAL = ("rho_empirical", "gamma", "mse_empirical", "csk_bits", "csk_info", "kdr")


def _fisher(rho: float) -> float:
    return math.atanh(max(-1.0 + 1e-12, min(rho, 1.0 - 1e-12)))


def _log(value: float) -> float:
    return math.log(value) if value > 0 else -math.inf


def _info_fisher(info: float) -> float:
    """Fisher scale of the correlation whose ``-log2(1 - rho^2)`` is `info`."""
    return _fisher(math.sqrt(1.0 - 2.0 ** -info))


#: Scale each gated column is compared on.  Across seeds these columns are
#: heavy-tailed on their own scale (one dominant trial moves a whole cell);
#: the Fisher transform for correlations and the log for the positive
#: ratios bring the seed-to-seed spread close to normal, so a tolerance in
#: standard deviations means the same for every column.
GATE_SCALE = {
    "rho_empirical": _fisher,
    "csk_info": _info_fisher,
    "gamma": _log,
    "mse_empirical": _log,
}


def gate_value(column: str, value: float) -> float:
    """`value` on the scale its reference mean and tolerance are stored in."""
    scale = GATE_SCALE.get(column)
    return scale(value) if scale is not None and math.isfinite(value) else value


def _parse_float(text: str) -> float:
    return float(text) if text not in ("", "nan") else math.nan


def parse_csv(text: str):
    """Result rows of a sweep CSV as dicts with typed values."""
    rows = []
    for raw in csv.DictReader(io.StringIO(text)):
        row = dict(raw)
        for name in raw:
            if name in ("scheme", "flag"):
                continue
            row[name] = int(raw[name]) if name in ("n_units", "attacked_units", "trials") else _parse_float(raw[name])
        rows.append(row)
    return rows


def _outside(column, got, want, tol):
    """Why `got` (on the gate scale) misses ``want +- tol``, or None."""
    if want is None:
        return None if math.isnan(got) else f"{column} = {got}, expected nan"
    if not math.isfinite(got) or abs(got - want) > tol:
        return f"{column} = {got}, expected {want:.6g} +- {tol:.3g}"
    return None


def row_failures(row, cell, trials):
    """Reasons one result row fails its reference cell (empty when it passes)."""
    if row is None:
        return ["missing row"]
    if [row[k] for k in CELL_KEY] != cell["key"]:
        return [f"row {[row[k] for k in CELL_KEY]} where {cell['key']} was expected"]
    reasons = []
    if row["flag"].startswith("error:"):
        reasons.append(row["flag"])
    if row["trials"] != trials:
        reasons.append(f"trials {row['trials']} != {trials}")
    for column in EMPIRICAL:
        reason = _outside(column, gate_value(column, row[column]), cell["mean"][column], cell["tol"][column])
        if reason:
            reasons.append(reason)
    return reasons


def scheme_means(rows):
    """``{scheme: {column: mean gate value over the scheme's rows}}``.

    Averaging over a scheme's cells (its SNR points and attack levels) cuts
    the seed-to-seed spread by about the square root of their number, so
    this gate separates schemes that one cell alone cannot.
    """
    groups = {}
    for row in rows:
        groups.setdefault(row["scheme"], []).append(row)
    return {
        scheme: {column: statistics.fmean(gate_value(column, row[column]) for row in group)
                 for column in EMPIRICAL}
        for scheme, group in groups.items()
    }


def scheme_failures(rows, reference):
    """``{scheme: reasons}`` for each scheme whose cell means miss the reference."""
    means = scheme_means(rows)
    failures = {}
    for scheme, want in reference["schemes"].items():
        got = means.get(scheme)
        if got is None:
            failures[scheme] = [f"no {scheme} rows"]
            continue
        reasons = [
            reason for column in EMPIRICAL
            if (reason := _outside(column, got[column], want["mean"][column], want["tol"][column]))
        ]
        if reasons:
            failures[scheme] = [f"{scheme} mean: {reason}" for reason in reasons]
    return failures


def sweep_failures(rows, reference):
    """``{cell index: reasons}`` of every failing cell of a sweep's rows.

    A scheme whose mean misses the reference fails each of its cells.
    """
    cells = reference["cells"]
    by_scheme = scheme_failures(rows, reference)
    failures = {}
    for i in range(max(len(cells), len(rows))):
        if i >= len(cells):
            failures[i] = ["row beyond the reference grid"]
            continue
        row = rows[i] if i < len(rows) else None
        reasons = row_failures(row, cells[i], reference["trials"]) + by_scheme.get(cells[i]["key"][0], [])
        if reasons:
            failures[i] = reasons
    return failures


def infeasible_rows(rows) -> int:
    """Rows whose analytic columns no distribution can realize.

    ``|rho_analytic| > 1`` is not a correlation and ``mse_analytic < 0`` is not
    a power; both come from the model statistics the harness feeds the closed
    forms.  NaN is not counted.
    """
    return sum(
        1 for row in rows
        if abs(row["rho_analytic"]) > 1.0 or row["mse_analytic"] < 0.0
    )


# ---------------------------------------------------------------------------
# Sweeps driven through ``lockeysim simulate``.
# ---------------------------------------------------------------------------


@dataclass
class SweepState:
    config: object
    argv: list
    output: Path


@dataclass(frozen=True)
class Sweep:
    """One ``lockeysim simulate`` preset at a fixed trial count."""

    name: str
    preset: str
    trials: int
    config_file: Optional[str] = None   # relative to the benchmark directory
    calibration: str = "interpreter"

    def config_path(self) -> Optional[str]:
        return str(BENCH_DIR / self.config_file) if self.config_file else None

    def setup(self, seed: int, output: Path) -> SweepState:
        from lockeysim import config, harness

        base = config.load_config(self.config_path())
        base = base.with_overrides(master_seed=seed, trials=self.trials, jobs=1)
        resolved = harness.preset_config(self.preset, base=base)
        argv = ["simulate", "--preset", self.preset, "--output", str(output),
                "--seed", str(seed), "--trials", str(self.trials), "--jobs", "1"]
        if self.config_file:
            argv += ["--config", self.config_path()]
        return SweepState(resolved, argv, output)

    def run(self, state: SweepState):
        """The end-to-end command, in process; its console output is discarded."""
        from lockeysim import cli

        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            return cli.main(state.argv)

    def check(self, state: SweepState, exit_code, reference):
        """``(attempted, failed, facts)``; one operation per sweep cell.

        Each row is checked against its reference cell, and each scheme's
        mean over its cells against the reference scheme mean.  Reads and
        removes the CSV the run wrote; a missing file fails every cell.  The
        exit code adds nothing: flagged rows fail on their own.
        """
        try:
            text = state.output.read_text(encoding="utf-8")
            state.output.unlink()
        except FileNotFoundError:
            text = ""
        rows = parse_csv(text)
        failures = sweep_failures(rows, reference)
        facts = {"output": text, "rows": rows, "failures": failures}
        return max(len(reference["cells"]), len(rows)), len(failures), facts

    def layer_inputs(self, state: SweepState, facts, tracer):
        rows = facts["rows"]
        measured = sum(row["trials"] for row in rows)
        lockey_cells = sum(1 for row in rows if row["scheme"] == "lockey")
        training = state.config.gamma_window * lockey_cells if state.config.gamma_mode == "window" else 0
        cell_times = {scheme: [] for scheme in SCHEMES}
        # run_sweep runs the cells in row order in this single process.
        for row, seconds in zip(rows, tracer.durations("harness.run_cell")):
            cell_times[row["scheme"]].append(seconds)
        return {
            "rounds": measured + training,
            "measured_rounds": measured,
            "cell_times": cell_times,
            "csv_bytes": len(facts["output"].encode("utf-8")),
            "cells_failed": len(facts["failures"]),
            "infeasible_rows": infeasible_rows(rows),
        }


# ---------------------------------------------------------------------------
# The closed-form checks of ``lockeysim oracle``, seeded by the benchmark.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Oracle:
    """Every check of ``lockeysim oracle`` at the oracle's own tolerances.

    The streams carry the benchmark seed in front of the oracle's fixed keys,
    so each seed draws fresh samples.
    """

    name: str
    samples: int
    calibration: str = "vector"

    def setup(self, seed: int, output: Path):
        from lockeysim import analysis

        s = analysis.ModelStats
        return {
            "seed": seed,
            "argmin": s(g_a=2.0, g_b=3.0, a=0.5, b=0.5, var_arb=1.0, var_ab=1.0),
            "gamma_sets": [s(2.0, 3.0, 0.5, 0.5, 1.0, 1.0), s(0.9, 0.8, 0.6, 0.4, 1.2, 0.9),
                           s(1.0, 1.0, 0.0, 0.0, 1.0, 1.5)],
            "rho1_regimes": [s(1.0, 1.0, 0.0, 0.0, 2.0, 1.0), s(0.8, 0.9, 0.6, 0.4, 1.5, 1.0),
                             s(1.0, 1.0, 0.8, 0.8, 2.0, 1.0)],
            "loopback": s(0.9, 0.9, 0.5, 0.5, 1.2, 0.9),
        }

    def run(self, state):
        """``[(name, got, want, tol)]`` of every oracle check."""
        import numpy as np
        from lockeysim import analysis, protocol

        seed, n = state["seed"], self.samples
        checks = []

        stats = state["argmin"]
        gamma_star = analysis.gamma_analytic(stats)
        grid = np.arange(0.0, 3.0 * gamma_star, 1e-3)
        best = grid[np.argmin([analysis.mse_prediction(g, stats) for g in grid])]
        checks.append(("argmin over gamma grid", float(best), gamma_star, 1e-3))

        for i, stats in enumerate(state["gamma_sets"]):
            feasible = stats.g_a * stats.g_b <= 1.0
            x, y = analysis.sample_loopback_pairs(stats, n, (seed, 7100, i), match_second_moment=feasible)
            gamma_hat = protocol.estimate_gamma(x[:, None], y[:, None], min_rounds=1)[0]
            checks.append((f"set {i}: gamma", float(abs(gamma_hat)), analysis.gamma_analytic(stats), 0.02))

        for i, stats in enumerate(state["rho1_regimes"]):
            x, y = analysis.sample_first_round_pairs(stats, n, (seed, 7200, i))
            rho_hat = analysis.correlation(x, y).real
            checks.append((f"regime {i}: rho1", rho_hat, analysis.rho1_analytic(stats), 0.02))

        stats = state["loopback"]
        x, y = analysis.sample_loopback_pairs(stats, n, (seed, 7300))
        checks.append(("rho2", analysis.correlation(x, y).real, analysis.rho2_analytic(stats), 0.03))
        gamma_star = analysis.gamma_analytic(stats)
        mse_hat = analysis.empirical_mse(gamma_star * x, y).mse
        want = analysis.mse_prediction(gamma_star, stats)
        checks.append(("error power at the optimum", mse_hat, want, 0.03 * want))
        return checks

    def check(self, state, checks, reference):
        failures = {
            i: [f"{name}: got {got:.5f}, expected {want:.5f} (tol {tol:g})"]
            for i, (name, got, want, tol) in enumerate(checks)
            if not abs(got - want) <= tol
        }
        facts = {"output": json.dumps([c[1] for c in checks]), "failures": failures}
        return len(checks), len(failures), facts

    def layer_inputs(self, state, facts, tracer):
        return {"rounds": 0, "measured_rounds": 0, "cell_times": {s: [] for s in SCHEMES},
                "csv_bytes": 0, "cells_failed": 0, "infeasible_rows": 0}


WORKLOADS = {
    # fig5a: three schemes x 7 SNR points, 30 units, 5 attacked, per-round
    # gamma.  The per-trial kernel (rng, fading, ris, ofdm, protocol) does
    # nearly all the work.
    "scheme_sweep": Sweep("scheme_sweep", "fig5a", trials=50),
    # fig5b with window gamma: lockey only at 2/10/20 attacked units.  The only
    # workload that trains the 200-round window per cell and runs
    # estimate_gamma and per-subcarrier compensation.
    "window_attack": Sweep("window_attack", "fig5b", trials=50, config_file="window_attack.yaml"),
    # The analysis closed forms against their samplers, in large vectorized
    # arrays; no trial kernel at all.
    "model_oracle": Oracle("model_oracle", samples=1_000_000),
}


def load_reference(name: str):
    path = REFERENCE_DIR / f"{name}.json"
    return json.loads(path.read_text(encoding="utf-8")) if path.exists() else None


# ---------------------------------------------------------------------------
# Metric definitions.
# ---------------------------------------------------------------------------

#: (name, unit, better) of every end-to-end metric.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: Functions whose inclusive time per run is reported as ``<label>.s``.
TOTAL_S = (
    "rng.as_rng",
    "fading.make_fading_process", "fading.frequency_response",
    "fading.fingerprint_response", "fading.add_awgn",
    "ris.random_ris_state", "ris.apply_jamming", "ris.cascaded_gain",
    "ofdm.generate_pilot", "ofdm.probe", "ofdm.ls_estimate", "ofdm.pilot_values",
    "protocol.estimate_round_gamma", "protocol.apply_compensation", "protocol.estimate_gamma",
    "keygen.compute_thresholds", "keygen.quantize_gray2", "keygen.csk",
    "analysis.correlation", "analysis.empirical_mse",
    "analysis.sample_first_round_pairs", "analysis.sample_loopback_pairs",
    "harness.emit_csv", "config.load_config", "harness.preset_config",
)
#: Functions whose self time (duration minus child spans) is ``<label>.self_s``.
SELF_S = ("protocol.build_environment", "protocol.measure_round", "protocol.loopback_combine", "cli.main")
#: Functions whose call count per simulated round is ``<label>.calls_per_round``.
PER_ROUND = (
    "rng.as_rng", "fading.make_fading_process", "fading.frequency_response",
    "fading.fingerprint_response", "fading.add_awgn",
)
CLOSED_FORMS = ("analysis.rho1_analytic", "analysis.rho2_analytic", "analysis.gamma_analytic",
                "analysis.mse_prediction")
SAMPLERS = ("analysis.sample_first_round_pairs", "analysis.sample_loopback_pairs")


def per_layer_spec():
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = [(f"{label}.s", "s", "lower") for label in TOTAL_S]
    spec += [(f"{label}.self_s", "s", "lower") for label in SELF_S]
    spec += [(f"{label}.calls_per_round", "1/round", "lower") for label in PER_ROUND]
    spec += [
        ("ofdm.useful_subcarrier_ratio", "ratio", "higher"),
        ("protocol.rounds", "count", "higher"),
        ("protocol.train_rounds_per_measured_round", "ratio", "lower"),
        ("analysis.closed_forms.s", "s", "lower"),
        ("analysis.samples_per_s", "1/s", "higher"),
        ("analysis.infeasible_rows", "count", "lower"),
    ]
    spec += [(f"harness.cell_s.{scheme}", "s", "lower") for scheme in SCHEMES]
    spec += [(f"harness.cells.{scheme}", "count", "higher") for scheme in SCHEMES]
    spec += [
        ("harness.self_s", "s", "lower"),
        ("harness.csv_bytes", "B", "lower"),
        ("harness.cells_failed", "count", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
    return spec


def observers():
    """Tracer observers counting work units where the work happens."""
    def kept_subcarriers(args, kwargs, result):
        return {"ofdm.subcarriers_in": len(args[0]), "ofdm.subcarriers_kept": len(result)}

    def samples(args, kwargs, result):
        return {"analysis.samples": int(args[1])}

    return {"ofdm.pilot_values": kept_subcarriers,
            "analysis.sample_first_round_pairs": samples,
            "analysis.sample_loopback_pairs": samples}


#: Summary row of a function that was never called or no longer exists.
NOT_REACHED = {"calls": 0, "total_s": 0.0, "self_s": 0.0}


def layer_metrics(summary, counts, inputs):
    """Per-layer metrics of one traced run (``trace.overhead_s`` excluded).

    A function that is not in `summary` (not reached, or removed or renamed
    by a later change) reads 0 rather than failing the run.
    """
    def ratio(num, den):
        return num / den if den else 0.0

    def row(label):
        return summary.get(label, NOT_REACHED)

    rounds = inputs["rounds"]
    measured = inputs["measured_rounds"]
    m = {f"{label}.s": row(label)["total_s"] for label in TOTAL_S}
    m.update({f"{label}.self_s": row(label)["self_s"] for label in SELF_S})
    m.update({f"{label}.calls_per_round": ratio(row(label)["calls"], rounds) for label in PER_ROUND})
    sampler_s = sum(row(label)["total_s"] for label in SAMPLERS)
    m.update({
        "ofdm.useful_subcarrier_ratio": ratio(counts.get("ofdm.subcarriers_kept", 0),
                                              counts.get("ofdm.subcarriers_in", 0)),
        "protocol.rounds": rounds,
        "protocol.train_rounds_per_measured_round": ratio(rounds - measured, measured),
        "analysis.closed_forms.s": sum(row(label)["total_s"] for label in CLOSED_FORMS),
        "analysis.samples_per_s": ratio(counts.get("analysis.samples", 0), sampler_s),
        "analysis.infeasible_rows": inputs["infeasible_rows"],
    })
    for scheme in SCHEMES:
        times = inputs["cell_times"][scheme]
        m[f"harness.cell_s.{scheme}"] = statistics.median(times) if times else 0.0
        m[f"harness.cells.{scheme}"] = len(times)
    m.update({
        "harness.self_s": row("harness.run_cell")["self_s"],
        "harness.csv_bytes": inputs["csv_bytes"],
        "harness.cells_failed": inputs["cells_failed"],
    })
    return m
