import numpy as np
import pytest

from lockeysim import analysis
from lockeysim.cli import main


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

    def test_gamma_check_fails_on_a_perturbed_closed_form(self, monkeypatch, capsys):
        # the third prediction-scalar set has distinct sides, so its sampled
        # estimate carries information and an offset closed form is caught
        stats = analysis.ModelStats(0.7, 1.2, 0.2, 0.6, 1.0, 1.5)
        x, y = analysis.sample_loopback_pairs(stats, 1000, 1)
        assert not np.allclose(x, y)
        exact = analysis.gamma_analytic

        def offset(s):
            return exact(s) + 0.05 if s == stats else exact(s)

        monkeypatch.setattr(analysis, "gamma_analytic", offset)
        assert main(["oracle", "--samples", "30000"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] set 2: gamma" in out
        assert out.count("[FAIL]") == 1
