import importlib.util
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from lockeysim import analysis, cli
from lockeysim.cli import main, oracle_checks

S = analysis.ModelStats
#: The parameter sets of `oracle_checks`, one per closed form it checks.
ARGMIN = S(2.0, 3.0, 0.5, 0.5, 1.0, 1.0)
GAMMA_SETS = [ARGMIN, S(0.9, 0.8, 0.6, 0.4, 1.2, 0.9), S(0.7, 1.2, 0.2, 0.6, 1.0, 1.5)]
RHO1_REGIMES = [S(1.0, 1.0, 0.0, 0.0, 2.0, 1.0), S(0.8, 0.9, 0.6, 0.4, 1.5, 1.0), S(1.0, 1.0, 0.8, 0.8, 2.0, 1.0)]
LOOPBACK = S(0.9, 0.9, 0.5, 0.5, 1.2, 0.9)


class TestValidate:
    def test_defaults_ok(self, capsys):
        assert main(["validate"]) == 0
        assert "21 sweep cells" in capsys.readouterr().out

    def test_invalid_config(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("harness.attacked_grid: [99]\n")
        assert main(["validate", "--config", str(path)]) == 1
        assert "harness.attacked_grid" in capsys.readouterr().err

    def test_missing_file_is_an_error(self, capsys):
        assert main(["validate", "--config", "/does/not/exist.yaml"]) == 1

    @pytest.mark.parametrize("kind", ["directory", "not_utf8"])
    def test_unreadable_file_is_a_config_error_naming_it(self, kind, tmp_path, capsys):
        path = tmp_path / "config.yaml"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"harness.trials: 5  # \xff\xfe\n")
        assert main(["validate", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"cannot read {path}" in err and "Traceback" not in err


class TestSimulate:
    def test_tiny_sweep_writes_csv(self, tmp_path, capsys):
        config = tmp_path / "tiny.yaml"
        config.write_text("harness.trials: 5\nharness.snr_grid_db: [10.0]\n")
        out = tmp_path / "out.csv"
        code = main([
            "simulate", "--config", str(config), "--preset", "fig5a",
            "--output", str(out), "--seed", "3", "--jobs", "1",
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 3  # header + 3 schemes x 1 snr
        assert lines[0].startswith("scheme,snr_db,")

    def test_capped_rows_are_listed_but_exit_zero(self, tmp_path, capsys):
        # noiseless loop-back without attack: loopback and lockey hold csk_info
        # at the cap, valid values that do not fail the run
        config = tmp_path / "capped.yaml"
        config.write_text("harness.snr_grid_db: [300.0]\nharness.attacked_grid: [0]\nharness.trials: 200\n")
        out = tmp_path / "out.csv"
        assert main(["simulate", "--config", str(config), "--output", str(out)]) == 0
        captured = capsys.readouterr()
        assert "wrote 3 rows" in captured.out and "(2 flagged)" in captured.out
        err = captured.err
        for scheme in ("loopback", "lockey"):
            assert f"flagged cell {scheme}, 300.0 dB, 30 units, 0 attacked: capped:" in err
        assert "non_loopback" not in err

    def test_error_rows_exit_one_naming_each_cell(self, tmp_path, capsys, monkeypatch):
        from lockeysim import harness
        from lockeysim.analysis import DegenerateSampleError

        def degenerate(values):
            raise DegenerateSampleError("degenerate sample block: quartile thresholds are not distinct")

        monkeypatch.setattr(harness.keygen, "compute_thresholds", degenerate)
        config = tmp_path / "tiny.yaml"
        config.write_text("harness.snr_grid_db: [10.0]\nharness.schemes: [lockey]\nharness.trials: 8\n")
        out = tmp_path / "out.csv"
        assert main(["simulate", "--config", str(config), "--preset", "fig5b", "--output", str(out)]) == 1
        err = capsys.readouterr().err
        # fig5b's three attack levels are told apart
        for attacked in (2, 10, 20):
            assert f"flagged cell lockey, 10.0 dB, 30 units, {attacked} attacked: error:" in err

    def test_trials_override(self, tmp_path):
        config = tmp_path / "tiny.yaml"
        config.write_text("harness.snr_grid_db: [10.0]\nharness.schemes: [lockey]\n")
        out = tmp_path / "out.csv"
        assert main([
            "simulate", "--config", str(config), "--preset", "custom",
            "--output", str(out), "--trials", "4",
        ]) == 0
        assert ",4" in out.read_text().splitlines()[1]

    def test_invalid_override_rejected_before_running(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        for flag, value, key in (("--trials", "2", "harness.trials"), ("--trials", "0", "harness.trials"),
                                 ("--jobs", "0", "harness.jobs"), ("--seed", "-1", "harness.master_seed")):
            assert main(["simulate", "--preset", "fig5b", "--output", str(out), flag, value]) == 2
            assert key in capsys.readouterr().err
        assert not out.exists()

    def test_preset_checked_against_the_config(self, tmp_path, capsys):
        # fig5b attacks up to 20 units, more than this surface has
        config = tmp_path / "small.yaml"
        config.write_text("harness.n_units_grid: [10]\n")
        out = tmp_path / "out.csv"
        assert main([
            "simulate", "--config", str(config), "--preset", "fig5b",
            "--output", str(out), "--trials", "8",
        ]) == 2
        assert "harness.attacked_grid" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("output, message", [("missing_dir/out.csv", "does not exist"), (".", "is a directory"),
                                                  ("", "is empty")], ids=["missing_dir", "directory", "empty"])
    def test_unwritable_output_rejected_before_running(self, output, message, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "run_sweep", lambda config: pytest.fail("the sweep ran"))
        with pytest.raises(SystemExit) as exit_info:
            main(["simulate", "--preset", "fig5a", "--output", output])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "--output" in err and message in err
        assert list(tmp_path.iterdir()) == []

    def test_config_error_exit_code(self, tmp_path):
        config = tmp_path / "bad.yaml"
        config.write_text("nonsense.key: 1\n")
        out = tmp_path / "out.csv"
        assert main([
            "simulate", "--config", str(config), "--preset", "custom",
            "--output", str(out),
        ]) == 2


class TestOracle:
    def test_oracle_passes(self, capsys):
        assert main(["oracle", "--samples", "30000"]) == 0
        out = capsys.readouterr().out
        assert "overall: PASS" in out
        assert "[FAIL]" not in out

    @pytest.mark.parametrize("samples", ["0", "1"])
    def test_fewer_than_two_samples_rejected(self, samples, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["oracle", "--samples", samples])
        assert exit_info.value.code == 2
        assert "--samples" in capsys.readouterr().err

    @pytest.mark.parametrize("line, closed_form, stats, shift", [
        *[pytest.param(f"set {i}: gamma", "gamma_analytic", stats, 3 * 0.02, id=f"set{i}_gamma")
          for i, stats in enumerate(GAMMA_SETS)],
        *[pytest.param(f"regime {i}: rho1", "rho1_analytic", stats, 3 * 0.02, id=f"regime{i}_rho1")
          for i, stats in enumerate(RHO1_REGIMES)],
        pytest.param("rho2", "rho2_analytic", LOOPBACK, 3 * 0.03, id="rho2"),
        pytest.param("error power at the optimum", "mse_prediction", LOOPBACK,
                     3 * 0.03 * analysis.mse_prediction(analysis.gamma_analytic(LOOPBACK), LOOPBACK),
                     id="error_power"),
        pytest.param("argmin over gamma grid", "mse_prediction", ARGMIN, None, id="argmin"),
    ])
    def test_gamma_check_fails_on_a_perturbed_closed_form(self, line, closed_form, stats, shift, monkeypatch, capsys):
        # each line's closed form is moved by 3 tolerances on its own parameter
        # set; the argmin line's error curve is moved by 3 grid tolerances in gamma
        exact = getattr(analysis, closed_form)

        def perturbed(*args):
            if args[-1] != stats:
                return exact(*args)
            if shift is None:
                return exact(args[0] - 3e-3, stats)
            return exact(*args) + shift

        monkeypatch.setattr(analysis, closed_form, perturbed)
        assert main(["oracle", "--samples", "30000"]) == 1
        out = capsys.readouterr().out
        # set 0 shares its parameters with the argmin line, so no count is pinned
        assert f"[FAIL] {line}:" in out
        assert "overall: FAIL" in out

    def test_one_sample_pair_alive_at_a_time(self, monkeypatch, capsys):
        # 32 bytes per sample is one complex pair; 2 MiB covers one thread's
        # sampler block temporaries and the small objects
        n = 262_144
        monkeypatch.setattr(analysis, "_cpu_count", lambda: 1)
        main(["oracle", "--samples", "2"])  # loads what the first run imports, numpy.random among them
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert main(["oracle", "--samples", str(n)]) == 0
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 32 * n + 2 * 2 ** 20

    def test_table_matches_the_benchmark_copy(self, tmp_path, monkeypatch):
        # the benchmark keeps its own copy of the table, whose set 2 has equal
        # sides; once the benchmark returns `oracle_checks`, this becomes
        # full equality of the two tables
        path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("bench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)
        spec.loader.exec_module(workloads)
        n, seed = 30_000, 5
        bench = workloads.Oracle("model_oracle", samples=n)
        state = bench.setup(seed, tmp_path)
        theirs = bench.run(state)
        ours = oracle_checks(n, key_prefix=(seed,))
        assert [row[0] for row in theirs] == [row[0] for row in ours]
        for their_row, our_row in zip(theirs, ours):
            if their_row[0] != "set 2: gamma":
                assert their_row[1:] == our_row[1:], their_row[0]
        # the bench's set 2 has equal sides, so its estimate is exactly 1; the
        # table's set 2 has distinct sides, so its estimate carries information
        x, y = analysis.sample_loopback_pairs(state["gamma_sets"][2], n, (seed, 7100, 2))
        assert np.array_equal(x, y)
        x, y = analysis.sample_loopback_pairs(GAMMA_SETS[2], n, (seed, 7100, 2))
        assert not np.allclose(x, y)
