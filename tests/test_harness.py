import functools
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lockeysim.config import ConfigError, build_config, load_config
from lockeysim.harness import (
    CSV_COLUMNS,
    emit_csv,
    model_stats_for_cell,
    preset_config,
    run_cell,
    run_sweep,
    sweep_cells,
)
from lockeysim.ofdm import OfdmConfig
from lockeysim.protocol import Scheme


#: SNR grid whose subsets and orderings the cell-independence test sweeps.
INDEPENDENCE_GRID = (0.0, 10.0, 20.0, 30.0)


def cell_key(row):
    return row.scheme, row.snr_db, row.n_units, row.attacked_units


@functools.cache
def full_sweep_by_cell():
    rows = run_sweep(tiny_config(**{"harness.snr_grid_db": list(INDEPENDENCE_GRID)}))
    return {cell_key(row): row for row in rows}


def tiny_config(**extra):
    overrides = {
        "harness.trials": 8,
        "harness.snr_grid_db": [10.0, 20.0],
        "protocol.gamma_window": 5,
    }
    overrides.update(extra)
    return build_config(overrides)


class TestLoadConfig:
    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        config = load_config(str(path))
        assert config.ofdm.symbol_length == 64
        assert config.ofdm.subcarrier_spacing_hz == 15e3
        assert config.ofdm.pilot_interval == 5
        assert config.n_units_grid == (30,)
        assert config.trials == 1000
        assert config.snr_grid_db == (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/nonexistent/config.yaml")

    def test_none_gives_defaults(self):
        assert load_config(None).n_units_grid == (30,)

    def test_single_override(self, tmp_path):
        path = tmp_path / "one.yaml"
        path.write_text("harness.n_units_grid: [10]\n")
        config = load_config(str(path))
        assert config.n_units_grid == (10,)
        assert config.trials == 1000  # everything else default

    def test_nested_sections_accepted(self, tmp_path):
        path = tmp_path / "nested.yaml"
        path.write_text("harness:\n  n_units_grid: [12]\n  attacked_grid: [3]\n")
        config = load_config(str(path))
        assert config.n_units_grid == (12,)
        assert config.attacked_grid == (3,)

    @pytest.mark.parametrize("text", ["harness:\n  trials: 5\nharness.trials: 10\n",
                                      "harness.trials: 10\nharness:\n  trials: 5\n"],
                             ids=["nested_first", "dotted_first"])
    def test_key_given_nested_and_dotted_named(self, text, tmp_path):
        path = tmp_path / "both.yaml"
        path.write_text(text)
        with pytest.raises(ConfigError, match="harness.trials: given both nested and dotted"):
            load_config(str(path))

    def test_attack_exceeding_units_names_both_keys(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("harness.attacked_grid: [40]\nharness.n_units_grid: [30]\n")
        with pytest.raises(ConfigError) as err:
            load_config(str(path))
        assert "harness.attacked_grid" in str(err.value)
        assert "harness.n_units_grid" in str(err.value)

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="ris.attacked_unitz"):
            build_config({"ris.attacked_unitz": 3})

    @pytest.mark.parametrize("key, value", [("fading.max_doppler_hz", 5.0), ("protocol.tau_ms", 1.0),
                                            ("keygen.metric", "both")])
    def test_deleted_key_named(self, key, value, tmp_path):
        # a config file written for the removed Doppler model or column mask
        path = tmp_path / "old.yaml"
        path.write_text(f"{key}: {value}\n")
        with pytest.raises(ConfigError, match=f"unknown configuration keys: {key}"):
            load_config(str(path))

    @pytest.mark.parametrize("key, grid_key, value", [("ris.n_units", "harness.n_units_grid", 12),
                                                      ("ris.attacked_units", "harness.attacked_grid", 3)])
    def test_surface_keys_are_unknown_next_to_their_grids(self, key, grid_key, value, tmp_path):
        # the surface size and attack level are set by their sweep grids only
        path = tmp_path / "old.yaml"
        path.write_text(f"{key}: {value}\n")
        with pytest.raises(ConfigError, match=f"unknown configuration keys: {key}"):
            load_config(str(path))
        path.write_text(f"{grid_key}: [{value}]\n")
        assert getattr(load_config(str(path)), grid_key.split(".")[1]) == (value,)

    def test_bad_scheme_named(self):
        with pytest.raises(ConfigError, match="harness.schemes"):
            build_config({"harness.schemes": ["lockey", "telepathy"]})

    def test_custom_profile_roundtrip(self, tmp_path):
        path = tmp_path / "profile.yaml"
        path.write_text(
            "channel.alice_bob.delays_us: [0.0, 1.0]\n"
            "channel.alice_bob.powers_db: [0.0, -3.0]\n"
        )
        config = load_config(str(path))
        np.testing.assert_allclose(config.profiles["alice_bob"].delays_s, [0.0, 1e-6])

    def test_profile_needs_both_fields(self):
        with pytest.raises(ConfigError, match="alice_bob"):
            build_config({"channel.alice_bob.powers_db": [0.0]})

    def test_malformed_profile_named(self):
        with pytest.raises(ConfigError, match="channel.alice_bob"):
            build_config({"channel.alice_bob.delays_us": 5, "channel.alice_bob.powers_db": [0.0]})

    @pytest.mark.parametrize("trials", [0, 2, 3])
    def test_fewer_than_four_trials_rejected(self, trials):
        with pytest.raises(ConfigError, match="harness.trials"):
            build_config({"harness.trials": trials})

    @pytest.mark.parametrize("snr_db", [-4000.0, 4000.0])
    def test_snr_beyond_representable_noise_rejected(self, snr_db):
        with pytest.raises(ConfigError, match="harness.snr_grid_db"):
            build_config({"harness.snr_grid_db": [10.0, snr_db]})

    def test_overrides_validated_like_file_keys(self, tmp_path):
        path = tmp_path / "one.yaml"
        path.write_text("harness.trials: 50\n")
        assert load_config(str(path), {"harness.trials": 9}).trials == 9
        with pytest.raises(ConfigError, match="harness.master_seed"):
            load_config(str(path), {"harness.master_seed": -1})

    def test_with_overrides_validated(self):
        config = build_config({})
        with pytest.raises(ConfigError, match="harness.trials"):
            config.with_overrides(trials=2)
        with pytest.raises(ConfigError, match="harness.n_units_grid"):
            config.with_overrides(n_units_grid=(4,))
        with pytest.raises(ConfigError, match="harness.attacked_grid"):
            config.with_overrides(attacked_grid=(2, 10, 40))

    @pytest.mark.parametrize("field, value, key", [
        ("gamma_mode", "sometimes", "protocol.gamma_mode"),
        ("gamma_window", 0, "protocol.gamma_window"),
        ("jobs", 0, "harness.jobs"),
        ("snr_grid_db", (1e4,), "harness.snr_grid_db"),
    ])
    def test_with_overrides_checks_field_values(self, field, value, key):
        with pytest.raises(ConfigError, match=key):
            build_config({}).with_overrides(**{field: value})

    @pytest.mark.parametrize("field, value, key, raw", [
        ("symbol_length", 0, "ofdm.symbol_length", 0),
        ("subcarrier_spacing_hz", -15e3, "ofdm.subcarrier_spacing_khz", -15.0),
        ("subcarrier_spacing_hz", math.nan, "ofdm.subcarrier_spacing_khz", None),
        ("pilot_interval", 0, "ofdm.pilot_interval", 0),
    ])
    def test_waveform_ranges_named(self, field, value, key, raw):
        # a file key, a waveform passed to with_overrides and the waveform
        # itself are held to the same ranges
        if raw is not None:
            with pytest.raises(ConfigError, match=key):
                build_config({key: raw})
        with pytest.raises(ConfigError, match=key):
            build_config({}).with_overrides(ofdm=replace(OfdmConfig(), **{field: value}))

    def test_readme_config_block_loads(self, tmp_path):
        # every key the README documents is one the program reads
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"^```yaml\n(.*?)^```", readme, flags=re.M | re.S)
        assert len(blocks) == 1
        path = tmp_path / "readme.yaml"
        path.write_text(blocks[0])
        load_config(str(path))

    def test_parse_error_reported(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("harness.n_units_grid: [unclosed\n")
        with pytest.raises(ConfigError, match="parse"):
            load_config(str(path))


@pytest.fixture
def built_generators(monkeypatch):
    """The stream of every random generator the package builds while the
    test runs, in order."""
    from lockeysim import _rng, analysis, fading, ofdm, ris

    original = _rng.as_rng
    built = []

    def counting(stream):
        built.append(stream)
        return original(stream)

    for module in (_rng, analysis, fading, ofdm, ris):
        monkeypatch.setattr(module, "as_rng", counting)
    return built


class TestSweep:
    def test_row_count_three_schemes(self):
        config = tiny_config(**{"harness.snr_grid_db": [0.0, 10.0, 20.0, 25.0, 5.0, 15.0, 30.0]})
        rows = run_sweep(config)
        assert len(rows) == 3 * 7

    def test_determinism_same_seed(self, tmp_path):
        config = tiny_config()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(run_sweep(config), str(a))
        emit_csv(run_sweep(config), str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_jobs_do_not_change_results(self, tmp_path):
        config = tiny_config()
        serial, parallel = config.with_overrides(jobs=1), config.with_overrides(jobs=2)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(run_sweep(serial), str(a))
        emit_csv(run_sweep(parallel), str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_config_jobs_sizes_the_worker_pool(self, monkeypatch):
        # config.jobs is the one worker-count setting, capped at the point
        # count; the pool starts a thread per submitted point, so even an
        # uncapped size starts no more threads than points
        import concurrent.futures

        sizes = []

        class RecordingPool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
        assert len(sweep_cells(tiny_config())) == 2
        run_sweep(tiny_config().with_overrides(jobs=1))
        assert sizes == []
        run_sweep(tiny_config().with_overrides(jobs=3))
        run_sweep(tiny_config().with_overrides(jobs=10 ** 6))
        assert sizes == [2, 2]

    def test_cold_caches_shared_by_worker_threads(self, tmp_path):
        # the threads fill the by-value caches of the responses and filter
        # powers, and the fresh profiles' cached properties, concurrently
        from lockeysim import fading, harness

        config = tiny_config()
        serial = tmp_path / "serial.csv"
        emit_csv(run_sweep(config.with_overrides(jobs=1)), str(serial))
        for cache in (fading._steering, fading._fingerprint, harness._filter_power):
            cache.cache_clear()
        profiles = {link: replace(profile) for link, profile in config.profiles.items()}
        assert not any("linear_powers" in vars(profile) for profile in profiles.values())
        threaded = tmp_path / "threaded.csv"
        emit_csv(run_sweep(config.with_overrides(jobs=2, profiles=profiles)), str(threaded))
        assert threaded.read_bytes() == serial.read_bytes()

    @settings(max_examples=10, deadline=None)
    @given(grid=st.permutations(INDEPENDENCE_GRID).flatmap(
        lambda order: st.integers(1, len(order)).map(lambda n: order[:n])))
    def test_cell_independence(self, grid):
        # any subset of the grid points, in any order, gives every cell the
        # row it has in the full sweep
        reduced = run_sweep(tiny_config(**{"harness.snr_grid_db": list(grid)}))
        full_by_key = full_sweep_by_cell()
        assert len(reduced) == 3 * len(grid)
        for row in reduced:
            assert full_by_key[cell_key(row)] == row

    def test_different_seed_changes_results(self):
        base = run_sweep(tiny_config())
        other = run_sweep(tiny_config(**{"harness.master_seed": 1}))
        assert any(
            a.rho_empirical != b.rho_empirical for a, b in zip(base, other)
        )

    def test_generator_constructions_do_not_grow_with_trials(self, built_generators):
        # every cell draws its trials (and its training window) as one block
        # from a fixed set of streams
        counts = []
        for trials in (8, 64):
            built_generators.clear()
            config = tiny_config(**{"harness.trials": trials, "protocol.gamma_mode": "window"})
            assert not any(row.flag for row in run_cell(config, 10.0, 30, 5))
            counts.append(len(built_generators))
        assert counts[0] == counts[1] > 0

    def test_schemes_share_one_round(self, built_generators):
        # the baselines read the compensated scheme's round: adding them
        # builds no further generator
        counts = []
        for schemes in (["lockey"], ["non_loopback", "loopback", "lockey"]):
            built_generators.clear()
            config = tiny_config(**{"harness.schemes": schemes, "protocol.gamma_mode": "window"})
            assert len(run_cell(config, 10.0, 30, 5)) == len(schemes)
            counts.append(len(built_generators))
        assert counts[0] == counts[1] > 0

    @pytest.mark.parametrize("scheme", ["lockey", "non_loopback"])
    @pytest.mark.parametrize("gamma_mode", ["round", "window"])
    def test_rows_do_not_depend_on_the_other_schemes(self, scheme, gamma_mode):
        alone = run_sweep(tiny_config(**{"harness.schemes": [scheme], "protocol.gamma_mode": gamma_mode}))
        together = run_sweep(tiny_config(**{"protocol.gamma_mode": gamma_mode}))
        assert alone == [row for row in together if row.scheme == scheme]

    def test_cell_ordering(self):
        config = tiny_config()
        cells = sweep_cells(config)
        assert run_sweep(config)[0].scheme == Scheme.NON_LOOPBACK.value
        assert [c[0] for c in cells[:2]] == [10.0, 20.0]


class TestMetricsColumns:
    def test_gamma_and_analytic_columns(self):
        config = tiny_config(**{"harness.trials": 30})
        non, lofi, lockey = run_cell(config, 10.0, 30, 5)
        assert math.isnan(non.gamma) and math.isnan(lofi.gamma)
        assert not math.isnan(lockey.gamma)
        assert not math.isnan(non.rho_analytic)
        assert not math.isnan(lofi.rho_analytic)
        assert math.isnan(lockey.rho_analytic)
        assert not math.isnan(lockey.mse_analytic)
        assert all(not r.flag for r in (non, lofi, lockey))

    def test_capped_information_rate_flags_the_row(self):
        # noiseless and unattacked, the loop-back products of the two sides
        # agree, so |rho| is within 1e-4 of 1 and csk_info hits the cap
        from lockeysim.keygen import INFO_RATE_CAP

        config = tiny_config(**{"harness.trials": 200})
        non, lofi, lockey = run_cell(config, 300.0, 30, 0)
        for row in (lofi, lockey):
            assert row.csk_info == INFO_RATE_CAP
            assert row.flag == "capped: csk_info held at 10 bits"
            assert not math.isnan(row.rho_empirical)
        assert non.csk_info < INFO_RATE_CAP and not non.flag

    def test_degenerate_block_flags_the_row(self, monkeypatch):
        from lockeysim import harness
        from lockeysim.analysis import DegenerateSampleError

        def degenerate(values):
            raise DegenerateSampleError("degenerate sample block: quartile thresholds are not distinct")

        monkeypatch.setattr(harness.keygen, "compute_thresholds", degenerate)
        (row,) = run_cell(tiny_config(**{"harness.schemes": ["loopback"]}), 10.0, 30, 5)
        assert row.flag.startswith("error: degenerate")
        assert math.isnan(row.rho_empirical)

    @pytest.mark.parametrize("mode, seam, message", [
        ("round", "run_round", "degenerate round: all-zero reference values"),
        ("window", "estimate_gamma", "degenerate history: a subcarrier has all-zero reference values"),
    ], ids=["round", "window"])
    def test_degenerate_shared_round_flags_every_row(self, monkeypatch, mode, seam, message):
        # the shared round raises in its gamma fit: per round inside
        # run_round, or in the window mode's training fit
        from lockeysim import harness
        from lockeysim.analysis import DegenerateSampleError

        def degenerate(*args, **kwargs):
            raise DegenerateSampleError(message)

        monkeypatch.setattr(harness, seam, degenerate)
        rows = run_cell(tiny_config(**{"protocol.gamma_mode": mode}), 10.0, 30, 5)
        assert [row.scheme for row in rows] == [scheme.value for scheme in Scheme]
        assert all(row.flag == f"error: {message}" for row in rows)

    def test_degenerate_scheme_metrics_flag_that_row_only(self, monkeypatch):
        from lockeysim import harness
        from lockeysim.analysis import DegenerateSampleError

        def degenerate(stats):
            raise DegenerateSampleError("degenerate samples: zero second moment")

        monkeypatch.setattr(harness.analysis, "rho2_analytic", degenerate)
        non, lofi, lockey = run_cell(tiny_config(), 10.0, 30, 5)
        assert lofi.flag.startswith("error: degenerate") and math.isnan(lofi.rho_empirical)
        assert not non.flag and not lockey.flag

    def test_program_error_propagates(self, monkeypatch):
        # a shape fault in the kernel is not a property of the drawn data
        from lockeysim import harness

        def misshapen(values):
            raise ValueError("operands could not be broadcast together")

        monkeypatch.setattr(harness.keygen, "compute_thresholds", misshapen)
        with pytest.raises(ValueError, match="broadcast"):
            run_cell(tiny_config(), 10.0, 30, 5)

    def test_model_stats_scale_with_snr(self):
        config = tiny_config()
        low = model_stats_for_cell(config, 0.0, 30)
        high = model_stats_for_cell(config, 20.0, 30)
        assert high.var_ab == pytest.approx(100.0 * low.var_ab)
        assert low.a == 0.0 and low.b == 0.0

    def test_model_stats_follow_overridden_profiles(self):
        # the profile constants are cached per profile and per value, so a
        # configuration given other profiles never reads the first one's
        config = tiny_config()
        before = (model_stats_for_cell(config, 10.0, 30), config.noise_ref)
        keys = {f"channel.{link}.{field}": value for link in ("alice_hf", "alice_bob")
                for field, value in (("delays_us", [0.0]), ("powers_db", [3.0]))}
        fresh = tiny_config(**keys)
        overridden = config.with_overrides(profiles=fresh.profiles)
        after = (model_stats_for_cell(overridden, 10.0, 30), overridden.noise_ref)
        assert after == (model_stats_for_cell(fresh, 10.0, 30), fresh.noise_ref)
        assert after[0].g_a != before[0].g_a and after[0].var_ab != before[0].var_ab
        assert after[1] != before[1]

    def test_configured_aggregate_means_match_generator(self):
        # the zero means fed to the closed forms agree with the measured
        # mean of the aggregates the surface generator actually produces
        from lockeysim.ris import surface_aggregates

        # Ten pooled 20,000-trial draws: the pooled mean of 200,000
        # aggregates of 30 units has per-component sd sqrt(15 / 200,000), so
        # it exceeds 0.05 in magnitude with probability exp(-0.05**2 *
        # 200,000 / 30) = 6e-8, while one draw alone would on 19 % of streams.
        config = tiny_config()
        stats = model_stats_for_cell(config, 10.0, 30)
        draws = [surface_aggregates(30, 5, (77, i), trials=20_000) for i in range(10)]
        phi_first, phi_second = (np.concatenate(side) for side in zip(*draws))
        assert abs(np.mean(phi_first) - stats.a) < 0.05
        assert abs(np.mean(phi_second) - stats.b) < 0.05


class TestEmitCsv:
    def test_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], str(path))
        lines = path.read_text().splitlines()
        assert lines == [",".join(CSV_COLUMNS)]

    def test_line_count(self, tmp_path):
        rows = run_sweep(tiny_config(**{"harness.schemes": ["lockey"]}))
        path = tmp_path / "rows.csv"
        emit_csv(rows, str(path))
        assert len(path.read_text().splitlines()) == len(rows) + 1

    def test_round_trip_to_formatting_precision(self, tmp_path):
        rows = run_sweep(tiny_config(**{"harness.schemes": ["loopback"]}))
        path = tmp_path / "round.csv"
        emit_csv(rows, str(path))
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        for line, row in zip(lines[1:], rows):
            parsed = dict(zip(header, line.split(",")))
            assert parsed["scheme"] == row.scheme
            assert int(parsed["trials"]) == row.trials
            for field in ("rho_empirical", "csk_bits", "kdr", "mse_empirical"):
                assert float(parsed[field]) == pytest.approx(getattr(row, field), rel=1e-5)

    def test_nan_written_explicitly(self, tmp_path):
        rows = run_sweep(tiny_config(**{"harness.schemes": ["non_loopback"]}))
        path = tmp_path / "nan.csv"
        emit_csv(rows, str(path))
        assert ",nan," in path.read_text()


class TestPresets:
    def test_known_presets(self):
        for name in ("fig5a", "fig5b", "fig5c", "fig5d", "fig5e", "fig5f", "custom"):
            config = preset_config(name, base=tiny_config())
            assert config.trials == 8
        assert preset_config("fig5c") == preset_config("fig5f") == preset_config("fig5a")
        assert preset_config("fig5e") == preset_config("fig5b")

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="preset"):
            preset_config("fig6z")

    def test_fig5d_sweeps_units(self):
        config = preset_config("fig5d", base=tiny_config())
        assert config.n_units_grid == (10, 20, 30)
        assert config.schemes == (Scheme.LOCKEY,)

    def test_fig5c_sweeps_schemes(self):
        config = preset_config("fig5c", base=tiny_config())
        assert len(config.schemes) == 3
        assert config.attacked_grid == (5,)


def test_package_import_leaves_optional_modules_unloaded():
    # yaml and the executor modules are loaded where a config file is read or
    # a pool is started, not by the package import
    code = ("import sys, lockeysim; "
            "print(sorted(m for m in ('yaml', 'multiprocessing', 'concurrent.futures') if m in sys.modules))")
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "[]"
