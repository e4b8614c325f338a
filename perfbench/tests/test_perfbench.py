"""Tests of the benchmark itself: tracer transparency, span arithmetic,
repeatable counts, and the correctness gate.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import tracer  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "round": ("fig5a", "harness.snr_grid_db: [0.0, 20.0]\nharness.trials: 8\n"),
    "window": ("fig5b", "harness.snr_grid_db: [10.0]\nharness.trials: 8\n"
                        "protocol.gamma_mode: window\nprotocol.gamma_window: 12\n"),
}


def namespace_snapshot():
    tracer.public_functions()   # imports every traced module
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name == "lockeysim" or name.startswith("lockeysim.")
        for attr, value in vars(module).items()
    }


def tiny_sweep(tmp_path, mode):
    preset, text = TINY[mode]
    config = tmp_path / f"{mode}.yaml"
    config.write_text(text)
    return workloads.Sweep(f"tiny_{mode}", preset, trials=8, config_file=str(config))


def run_sweep(sweep, tmp_path, name, spans=None):
    """CSV text of one run of `sweep`, traced by `spans` when given."""
    state = sweep.setup(3, tmp_path / f"{name}.csv")
    if spans is None:
        sweep.run(state)
    else:
        with spans:
            sweep.run(state)
    return state, state.output.read_text()


@pytest.mark.parametrize("mode", sorted(TINY))
def test_traced_run_writes_identical_csv_and_restores_every_wrapper(tmp_path, mode):
    sweep = tiny_sweep(tmp_path, mode)
    before = namespace_snapshot()
    _, plain = run_sweep(sweep, tmp_path, "plain")
    spans = tracer.Tracer(observers=workloads.observers())
    _, traced = run_sweep(sweep, tmp_path, "traced", spans)
    assert traced == plain
    assert len(spans.starts) > 0
    assert namespace_snapshot() == before


def test_wrappers_cover_importing_namespaces_and_are_restored_on_error():
    from lockeysim import _rng, fading, ofdm, ris

    before = namespace_snapshot()
    original = _rng.as_rng
    with pytest.raises(ZeroDivisionError):
        with tracer.Tracer():
            for module in (_rng, fading, ris, ofdm):
                assert module.as_rng is not original
                assert module.as_rng.__wrapped__ is original
            1 / 0
    assert namespace_snapshot() == before


def test_self_time_plus_child_spans_is_each_span_duration(tmp_path):
    spans = tracer.Tracer()
    run_sweep(tiny_sweep(tmp_path, "window"), tmp_path, "traced", spans)
    names, parents, starts, ends = spans.spans()
    children = {}
    for i, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(int(parent), []).append(i)
    for parent, kids in children.items():
        kids.sort(key=lambda i: starts[i])
        assert starts[parent] <= starts[kids[0]] and ends[kids[-1]] <= ends[parent]
        for a, b in zip(kids, kids[1:]):
            assert ends[a] <= starts[b]
    summary = spans.summary()
    total_self = sum(row["self_s"] for row in summary.values())
    root_time = float(sum(ends[parents < 0] - starts[parents < 0]))
    assert total_self == pytest.approx(root_time, rel=1e-9)
    assert all(row["self_s"] >= 0.0 for row in summary.values())


def test_per_round_counts_repeat_across_traced_runs(tmp_path):
    sweep = tiny_sweep(tmp_path, "window")
    counted = []
    for name in ("first", "second"):
        spans = tracer.Tracer(observers=workloads.observers())
        state, text = run_sweep(sweep, tmp_path, name, spans)
        facts = {"output": text, "rows": workloads.parse_csv(text), "failures": {}}
        metrics = workloads.layer_metrics(spans.summary(), spans.counts,
                                          sweep.layer_inputs(state, facts, spans))
        counted.append({
            name: value for name, value in metrics.items()
            if name.endswith(("calls_per_round", "_ratio", ".rounds", "_round", "_bytes", "_rows"))
            or name.startswith("harness.cells.")
        })
    assert counted[0] == counted[1]
    assert counted[0]["protocol.rounds"] > 0


def test_reinstalled_tracer_attributes_spans_to_the_same_labels(tmp_path):
    sweep = tiny_sweep(tmp_path, "round")
    spans = tracer.Tracer()
    cells = []
    for name in ("first", "second"):
        spans.clear()
        run_sweep(sweep, tmp_path, name, spans)
        cells.append(len(spans.durations("harness.run_cell")))
        assert spans.summary()["harness.run_cell"]["calls"] == cells[-1]
    assert cells[0] == cells[1] > 0
    assert len(spans.labels) == len(set(spans.labels))


def test_layer_metrics_read_zero_for_a_function_that_is_gone(tmp_path):
    sweep = tiny_sweep(tmp_path, "round")
    spans = tracer.Tracer(observers=workloads.observers())
    state, text = run_sweep(sweep, tmp_path, "traced", spans)
    facts = {"output": text, "rows": workloads.parse_csv(text), "failures": {}}
    summary = spans.summary()
    gone = ("harness.run_cell", "fading.fingerprint_response", "protocol.measure_round")
    for label in gone:
        del summary[label]
    metrics = workloads.layer_metrics(summary, spans.counts, sweep.layer_inputs(state, facts, spans))
    expected = {name for name, _, _ in workloads.per_layer_spec()} - {"trace.overhead_s"}
    assert set(metrics) == expected
    assert metrics["fading.fingerprint_response.s"] == 0.0
    assert metrics["fading.fingerprint_response.calls_per_round"] == 0.0
    assert metrics["protocol.measure_round.self_s"] == 0.0
    assert metrics["harness.self_s"] == 0.0
    assert spans.durations("harness.no_such_function") == []


def test_per_layer_metrics_match_benchmark_json():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == workloads.per_layer_spec()
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(workloads.END_TO_END)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


#: Inverse of each gate scale, to turn a reference mean back into a CSV value.
FROM_GATE_SCALE = {
    "rho_empirical": math.tanh,
    "csk_info": lambda z: -math.log2(1.0 - math.tanh(z) ** 2),
    "gamma": math.exp,
    "mse_empirical": math.exp,
}


def _row_from(cell, trials):
    row = dict(zip(workloads.CELL_KEY, cell["key"]), trials=trials, flag="")
    for column, mean in cell["mean"].items():
        row[column] = math.nan if mean is None else FROM_GATE_SCALE.get(column, float)(mean)
    return row


@pytest.mark.parametrize("name", ["scheme_sweep", "window_attack"])
def test_gate_rejects_error_flags_and_values_outside_tolerance(name):
    reference = workloads.load_reference(name)
    cell = reference["cells"][0]
    row = _row_from(cell, reference["trials"])
    assert workloads.row_failures(row, cell, reference["trials"]) == []
    assert workloads.row_failures(dict(row, flag="error: boom"), cell, reference["trials"])
    assert workloads.row_failures(dict(row, trials=1), cell, reference["trials"])
    worse = dict(row, kdr=row["kdr"] + 1.01 * cell["tol"]["kdr"])
    assert workloads.row_failures(worse, cell, reference["trials"])
    assert workloads.row_failures(None, cell, reference["trials"]) == ["missing row"]


@pytest.fixture(scope="module")
def seed_one(tmp_path_factory):
    """``{workload: (reference, rows)}`` of one run of each sweep at seed 1,
    which neither the reference nor its calibration was built from."""
    runs = {}
    for name in ("scheme_sweep", "window_attack"):
        reference = workloads.load_reference(name)
        assert 1 not in reference["seeds"] + reference["calibration_seeds"]
        sweep = workloads.WORKLOADS[name]
        state = sweep.setup(1, tmp_path_factory.mktemp(name) / "out.csv")
        attempted, failed, facts = sweep.check(state, sweep.run(state), reference)
        assert attempted == len(reference["cells"])
        runs[name] = (reference, facts["rows"], facts["failures"])
    return runs


@pytest.mark.parametrize("name", ["scheme_sweep", "window_attack"])
def test_reference_accepts_a_seed_it_was_not_built_from(seed_one, name):
    _, _, failures = seed_one[name]
    assert failures == {}


@pytest.mark.parametrize("column", ["rho_empirical", "mse_empirical", "csk_bits", "csk_info", "kdr"])
@pytest.mark.parametrize("other", ["non_loopback", "loopback"])
def test_lockey_rows_measuring_like_another_scheme_fail(seed_one, other, column):
    """A lockey that lost its compensation, and measures like `other` in any
    one column, fails the reference even though every cell's key is right."""
    reference, rows, _ = seed_one["scheme_sweep"]
    measured = {row["snr_db"]: row[column] for row in rows if row["scheme"] == other}
    relabelled = [
        dict(row, **{column: measured[row["snr_db"]]}) if row["scheme"] == "lockey" else row
        for row in rows
    ]
    failures = workloads.sweep_failures(relabelled, reference)
    lockey = {i for i, row in enumerate(rows) if row["scheme"] == "lockey"}
    assert set(failures) == lockey
    assert all(column in "; ".join(failures[i]) for i in lockey)


def test_infeasible_rows_counts_unrealizable_analytic_columns():
    rows = [
        {"rho_analytic": 3.2, "mse_analytic": math.nan},
        {"rho_analytic": math.nan, "mse_analytic": -9.5},
        {"rho_analytic": 0.4, "mse_analytic": 0.1},
        {"rho_analytic": math.nan, "mse_analytic": math.nan},
    ]
    assert workloads.infeasible_rows(rows) == 2


def test_oracle_checks_pass_at_the_cli_sample_count(tmp_path):
    oracle = workloads.Oracle("oracle", samples=100_000)
    state = oracle.setup(5, tmp_path / "unused")
    attempted, failed, facts = oracle.check(state, oracle.run(state), None)
    assert attempted == 9
    assert failed == 0, facts["failures"]
