import numpy as np
import pytest

from lockeysim.ofdm import OfdmConfig, generate_pilot, ls_estimate, pilot_values, probe


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


class TestGeneratePilot:
    def test_length_and_alphabet(self, config):
        pilot = generate_pilot(config, (1,))
        assert pilot.shape == (64,)
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
        h = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        y = probe(pilot, h, np.zeros(64), np.ones(64), None, (5,))
        np.testing.assert_allclose(y, h * pilot)

    def test_elementwise_oracle_noiseless(self, config):
        rng = np.random.default_rng(2)
        pilot = generate_pilot(config, (6,))
        direct = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        cascaded = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        fp = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        y = probe(pilot, direct, cascaded, fp, None, (7,))
        np.testing.assert_allclose(y, fp * (direct + cascaded) * pilot)

    def test_noise_power_against_unit_reference(self, config):
        # noise variance is 10**(-snr/10) relative to the unit pilot power,
        # independent of the channel gain
        n_rounds = 1500
        pilot = generate_pilot(config, (8,))
        direct = 2.0 * np.ones(64, dtype=complex)
        total = 0.0
        for i in range(n_rounds):
            clean = probe(pilot, direct, np.zeros(64), np.ones(64), None, (9, i))
            noisy = probe(pilot, direct, np.zeros(64), np.ones(64), 10.0, (9, i))
            total += np.sum(np.abs(noisy - clean) ** 2)
        variance = total / (n_rounds * 64)
        assert variance == pytest.approx(0.1, rel=0.05)

    def test_linear_in_pilot(self, config):
        rng = np.random.default_rng(3)
        pilot = generate_pilot(config, (10,))
        direct = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        fp = np.exp(1j * rng.uniform(0, 2 * np.pi, 64))
        y1 = probe(pilot, direct, np.zeros(64), fp, None, (11,))
        y2 = probe(3.0 * pilot, direct, np.zeros(64), fp, None, (11,))
        np.testing.assert_allclose(y2, 3.0 * y1)

    def test_rejects_length_mismatch(self, config):
        with pytest.raises(ValueError):
            probe(np.ones(64), np.ones(63), np.zeros(64), np.ones(64), None, (12,))


class TestLsEstimate:
    def test_flat_channel_exact_at_pilots(self, config):
        pilot = generate_pilot(config, (13,))
        y = probe(pilot, np.ones(64, dtype=complex), np.zeros(64), np.ones(64), None, (14,))
        estimate = ls_estimate(y, pilot, config)
        np.testing.assert_allclose(pilot_values(estimate, config), 1.0)

    def test_full_pilot_grid_exact_inverse(self):
        config = OfdmConfig(pilot_interval=1)
        rng = np.random.default_rng(4)
        pilot = generate_pilot(config, (15,))
        h = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        fp = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        y = probe(pilot, h, np.zeros(64), fp, None, (16,))
        estimate = ls_estimate(y, pilot, config)
        np.testing.assert_allclose(estimate, fp * h, rtol=1e-12)

    def test_interpolation_oracle(self, config):
        # smooth channel: interpolated entries equal the straight line
        # between neighbouring pilot estimates
        pilot = generate_pilot(config, (17,))
        h = np.exp(1j * 2 * np.pi * np.arange(64) / 200.0) * (1 + np.arange(64) / 64.0)
        y = probe(pilot, h, np.zeros(64), np.ones(64), None, (18,))
        estimate = ls_estimate(y, pilot, config)
        positions = config.pilot_positions
        at_pilots = estimate[positions]
        for k in range(64):
            if k in positions:
                continue
            left = positions[positions < k]
            right = positions[positions > k]
            if len(right) == 0:  # beyond the last pilot: nearest extension
                expected = at_pilots[-1]
            else:
                lo, hi = left[-1], right[0]
                w = (k - lo) / (hi - lo)
                expected = (1 - w) * estimate[lo] + w * estimate[hi]
            assert estimate[k] == pytest.approx(expected)

    def test_estimation_error_power_equals_noise_power(self, config):
        # at pilot subcarriers, dividing by a unit-modulus symbol leaves the
        # noise variance unchanged
        n_rounds = 2000
        pilot = generate_pilot(config, (19,))
        h = np.ones(64, dtype=complex)
        total, count = 0.0, 0
        for i in range(n_rounds):
            y = probe(pilot, h, np.zeros(64), np.ones(64), 0.0, (20, i))
            estimate = ls_estimate(y, pilot, config)
            err = pilot_values(estimate, config) - 1.0
            total += np.sum(np.abs(err) ** 2)
            count += err.size
        assert total / count == pytest.approx(1.0, rel=0.05)

    def test_batch_matches_per_row_interpolation(self, config):
        # the cached interpolation weights reproduce np.interp row by row
        rng = np.random.default_rng(5)
        pilot = generate_pilot(config, (21,), trials=6)
        h = rng.standard_normal((6, 64)) + 1j * rng.standard_normal((6, 64))
        y = probe(pilot, h, np.zeros(64), np.ones(64), None, (22,))
        estimate = ls_estimate(y, pilot, config)
        positions = config.pilot_positions
        for row in range(6):
            at_pilots = y[row, positions] / pilot[row, positions]
            every = np.arange(64)
            expected = np.interp(every, positions, at_pilots.real) + 1j * np.interp(
                every, positions, at_pilots.imag)
            np.testing.assert_allclose(estimate[row], expected, rtol=1e-12, atol=1e-15)
            np.testing.assert_array_equal(pilot_values(estimate, config)[row], at_pilots)

    def test_rejects_wrong_length(self, config):
        with pytest.raises(ValueError):
            ls_estimate(np.ones(32), np.ones(32), config)
