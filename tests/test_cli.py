from lockeysim.cli import main


class TestValidate:
    def test_defaults_ok(self, capsys):
        assert main(["validate"]) == 0
        assert "21 sweep cells" in capsys.readouterr().out

    def test_invalid_config(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("ris.attacked_units: 99\n")
        assert main(["validate", "--config", str(path)]) == 1
        assert "ris.attacked_units" in capsys.readouterr().err

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
        config.write_text("ris.n_units: 10\n")
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
