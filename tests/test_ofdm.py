import numpy as np
import pytest

from lockeysim.ofdm import OfdmConfig, generate_pilot, ls_estimate, probe

#: Pilot subcarriers of the default waveform: every probe has this many entries.
PILOTS = OfdmConfig().pilot_positions.size


@pytest.fixture
def config():
    return OfdmConfig()


class TestOfdmConfig:
    def test_defaults(self, config):
        assert config.symbol_length == 64
        assert config.pilot_interval == 5
        np.testing.assert_array_equal(config.pilot_positions[:3], [0, 5, 10])
        assert config.pilot_positions[-1] == 60

    def test_rejects_bad_pilot_interval(self):
        with pytest.raises(ValueError):
            OfdmConfig(pilot_interval=0)

    def test_subcarrier_freqs(self, config):
        freqs = config.subcarrier_freqs
        assert freqs[0] == 0.0
        assert freqs[1] == 15e3
        assert len(freqs) == 64

    def test_pilot_freqs(self, config):
        np.testing.assert_array_equal(config.pilot_freqs, config.subcarrier_freqs[config.pilot_positions])
        assert len(config.pilot_freqs) == PILOTS == 13
        assert config.pilot_freqs[1] == 75e3


class TestGeneratePilot:
    def test_length_and_alphabet(self, config):
        pilot = generate_pilot(config, (1,))
        assert pilot.shape == (PILOTS,)
        quadrants = np.unique(np.round(pilot * np.sqrt(2)).astype(complex))
        assert set(quadrants) <= {1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j}

    def test_unit_modulus(self, config):
        pilot = generate_pilot(config, (2,))
        np.testing.assert_allclose(np.abs(pilot), 1.0)

    def test_deterministic(self, config):
        np.testing.assert_array_equal(
            generate_pilot(config, (3,)), generate_pilot(config, (3,))
        )


class TestProbe:
    def test_bare_channel_noiseless(self, config):
        pilot = generate_pilot(config, (4,))
        rng = np.random.default_rng(1)
        h = rng.standard_normal(PILOTS) + 1j * rng.standard_normal(PILOTS)
        y = probe(pilot, h, np.zeros(PILOTS), np.ones(PILOTS), None, (5,))
        np.testing.assert_allclose(y, h * pilot)

    def test_elementwise_oracle_noiseless(self, config):
        rng = np.random.default_rng(2)
        pilot = generate_pilot(config, (6,))
        direct = rng.standard_normal(PILOTS) + 1j * rng.standard_normal(PILOTS)
        cascaded = rng.standard_normal(PILOTS) + 1j * rng.standard_normal(PILOTS)
        fp = rng.standard_normal(PILOTS) + 1j * rng.standard_normal(PILOTS)
        y = probe(pilot, direct, cascaded, fp, None, (7,))
        np.testing.assert_allclose(y, fp * (direct + cascaded) * pilot)

    def test_noise_power_against_unit_reference(self, config):
        # noise variance is 10**(-snr/10) relative to the unit pilot power,
        # independent of the channel gain
        n_rounds = 1500
        pilot = generate_pilot(config, (8,))
        direct = 2.0 * np.ones(PILOTS, dtype=complex)
        total = 0.0
        for i in range(n_rounds):
            clean = probe(pilot, direct, np.zeros(PILOTS), np.ones(PILOTS), None, (9, i))
            noisy = probe(pilot, direct, np.zeros(PILOTS), np.ones(PILOTS), 10.0, (9, i))
            total += np.sum(np.abs(noisy - clean) ** 2)
        variance = total / (n_rounds * PILOTS)
        assert variance == pytest.approx(0.1, rel=0.05)

    def test_linear_in_pilot(self, config):
        rng = np.random.default_rng(3)
        pilot = generate_pilot(config, (10,))
        direct = rng.standard_normal(PILOTS) + 1j * rng.standard_normal(PILOTS)
        fp = np.exp(1j * rng.uniform(0, 2 * np.pi, PILOTS))
        y1 = probe(pilot, direct, np.zeros(PILOTS), fp, None, (11,))
        y2 = probe(3.0 * pilot, direct, np.zeros(PILOTS), fp, None, (11,))
        np.testing.assert_allclose(y2, 3.0 * y1)

    def test_rejects_length_mismatch(self, config):
        with pytest.raises(ValueError):
            probe(np.ones(PILOTS), np.ones(PILOTS - 1), np.zeros(PILOTS), np.ones(PILOTS), None, (12,))


class TestLsEstimate:
    def test_flat_channel_exact_at_pilots(self, config):
        pilot = generate_pilot(config, (13,))
        y = probe(pilot, np.ones(PILOTS, dtype=complex), np.zeros(PILOTS), np.ones(PILOTS), None, (14,))
        estimate = ls_estimate(y, pilot, config)
        np.testing.assert_allclose(estimate, 1.0)

    def test_full_pilot_grid_exact_inverse(self):
        config = OfdmConfig(pilot_interval=1)
        n = config.pilot_positions.size
        rng = np.random.default_rng(4)
        pilot = generate_pilot(config, (15,))
        h = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        fp = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        y = probe(pilot, h, np.zeros(n), fp, None, (16,))
        estimate = ls_estimate(y, pilot, config)
        np.testing.assert_allclose(estimate, fp * h, rtol=1e-12)

    def test_estimation_error_power_equals_noise_power(self, config):
        # dividing by a unit-modulus symbol leaves the noise variance unchanged
        trials = 2000
        pilot = generate_pilot(config, (19,), trials=trials)
        h = np.ones(PILOTS, dtype=complex)
        y = probe(pilot, h, np.zeros(PILOTS), np.ones(PILOTS), 0.0, (20,))
        err = ls_estimate(y, pilot, config) - 1.0
        assert np.mean(np.abs(err) ** 2) == pytest.approx(1.0, rel=0.05)

    def test_rejects_wrong_length(self, config):
        # one entry per pilot subcarrier: a full-width symbol is rejected too
        for length in (32, config.symbol_length):
            with pytest.raises(ValueError):
                ls_estimate(np.ones(length), np.ones(length), config)

    def test_rejects_zero_pilot(self, config):
        pilot = np.ones(PILOTS, dtype=complex)
        pilot[3] = 0.0
        with pytest.raises(ValueError, match="non-zero"):
            ls_estimate(np.ones(PILOTS), pilot, config)
