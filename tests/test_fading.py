import numpy as np
import pytest

from lockeysim.fading import (
    ALICE_HF_PROFILE,
    ALICE_RIS_PROFILE,
    BOB_HF_PROFILE,
    ALICE_BOB_PROFILE,
    TapProfile,
    add_awgn,
    fingerprint_response,
    frequency_response,
    make_fading_process,
)


class TestTapProfile:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            TapProfile((), ())

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="entries"):
            TapProfile((0.0, 1.0), (0.0,))

    def test_rejects_nonzero_first_delay(self):
        with pytest.raises(ValueError, match="first tap"):
            TapProfile((0.5, 1.0), (0.0, -3.0))

    def test_rejects_decreasing_delays(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            TapProfile((0.0, 2.0, 1.0), (0.0, -3.0, -6.0))

    def test_rejects_non_finite_power(self):
        with pytest.raises(ValueError):
            TapProfile((0.0,), (float("inf"),))

    def test_linear_powers(self):
        profile = TapProfile((0.0, 1.0), (0.0, -10.0))
        np.testing.assert_allclose(profile.linear_powers, [1.0, 0.1])
        assert profile.total_power == pytest.approx(1.1)


class TestFadingProcess:
    def test_deterministic_given_stream(self):
        g1 = make_fading_process(ALICE_RIS_PROFILE, (42,))
        g2 = make_fading_process(ALICE_RIS_PROFILE, (42,))
        np.testing.assert_array_equal(g1, g2)

    def test_per_tap_power_matches_profile(self):
        # ensemble of independent realizations
        gains = make_fading_process(ALICE_RIS_PROFILE, (100,), trials=100_000)
        measured_db = 10.0 * np.log10(np.mean(np.abs(gains) ** 2, axis=0))
        np.testing.assert_allclose(measured_db, ALICE_RIS_PROFILE.powers_db, atol=0.2)

    def test_taps_are_circular_gaussian(self):
        # the closed forms assume circular complex Gaussian links: per-tap
        # power as profiled, fourth moment 2 P^2, vanishing pseudo-moment
        gains = make_fading_process(ALICE_RIS_PROFILE, (101,), trials=100_000)
        power = np.mean(np.abs(gains) ** 2, axis=0)
        np.testing.assert_allclose(10.0 * np.log10(power), ALICE_RIS_PROFILE.powers_db, atol=0.2)
        kurtosis = np.mean(np.abs(gains) ** 4 / power ** 2)
        assert kurtosis == pytest.approx(2.0, abs=0.02)
        assert np.max(np.abs(np.mean(gains ** 2, axis=0)) / power) < 0.01

    def test_single_tap_unit_power_doppler0_is_constant_flat(self):
        profile = TapProfile((0.0,), (0.0,))
        gains = make_fading_process(profile, (7,))
        assert gains.shape == (1,)
        freqs = np.arange(0, 64) * 15e3
        h0 = frequency_response(profile, gains, freqs)
        # flat: the single gain appears at every subcarrier
        np.testing.assert_allclose(h0, h0[0])
        # unit variance over an ensemble
        samples = make_fading_process(profile, (8,), trials=20_000)[:, 0]
        assert np.mean(np.abs(samples) ** 2) == pytest.approx(1.0, abs=0.03)

    def test_batched_realizations_are_independent_rows(self):
        gains = make_fading_process(ALICE_RIS_PROFILE, (9,), trials=4000)
        assert gains.shape == (4000, ALICE_RIS_PROFILE.n_taps)
        measured_db = 10.0 * np.log10(np.mean(np.abs(gains) ** 2, axis=0))
        np.testing.assert_allclose(measured_db, ALICE_RIS_PROFILE.powers_db, atol=0.5)
        freqs = np.arange(64) * 15e3
        response = frequency_response(ALICE_RIS_PROFILE, gains, freqs)
        row = frequency_response(ALICE_RIS_PROFILE, gains[7], freqs)
        np.testing.assert_allclose(response[7], row, rtol=1e-12)


class TestFrequencyResponse:
    def test_tap_sum_oracle(self):
        # brute-force summation over taps
        gains = make_fading_process(ALICE_BOB_PROFILE, (11,))
        freqs = np.arange(64) * 15e3
        expected = np.array([
            sum(g * np.exp(-2j * np.pi * f * d)
                for g, d in zip(gains, ALICE_BOB_PROFILE.delays_s))
            for f in freqs
        ])
        np.testing.assert_allclose(frequency_response(ALICE_BOB_PROFILE, gains, freqs), expected)

    def test_rejects_non_finite_freqs(self):
        gains = make_fading_process(ALICE_BOB_PROFILE, (1,))
        with pytest.raises(ValueError):
            frequency_response(ALICE_BOB_PROFILE, gains, [np.inf])

    @pytest.mark.parametrize("freqs", [(0.0, np.nan), (np.inf,)])
    def test_rejects_non_finite_tuple_grid_every_time(self, freqs):
        # a tuple grid is used as the cache key as it is, and still checked
        gains = make_fading_process(ALICE_BOB_PROFILE, (1,))
        for response in (lambda: fingerprint_response(ALICE_HF_PROFILE, freqs),
                         lambda: frequency_response(ALICE_BOB_PROFILE, gains, freqs)):
            for _ in range(2):
                with pytest.raises(ValueError, match="finite"):
                    response()

    def test_tuple_grid_matches_array_grid(self):
        gains = make_fading_process(ALICE_BOB_PROFILE, (12,), trials=3)
        freqs = np.arange(13) * 75e3
        np.testing.assert_array_equal(frequency_response(ALICE_BOB_PROFILE, gains, tuple(freqs.tolist())),
                                      frequency_response(ALICE_BOB_PROFILE, gains, freqs))

    def test_rejects_gains_of_another_tap_count(self):
        gains = make_fading_process(ALICE_HF_PROFILE, (1,), trials=3)
        with pytest.raises(ValueError, match="5 taps"):
            frequency_response(ALICE_BOB_PROFILE, gains, [0.0, 15e3])


class TestFingerprint:
    def test_identity_fingerprint_all_ones(self):
        freqs = np.arange(64) * 15e3
        np.testing.assert_allclose(fingerprint_response(TapProfile((0.0,), (0.0,)), freqs), np.ones(64))

    def test_destructive_interference_two_taps(self):
        # two unit taps, second delayed by half a period of the probe tone
        f = 1.0  # Hz
        half_period_ms = 1e3 / (2.0 * f)
        response = fingerprint_response(TapProfile((0.0, half_period_ms), (0.0, 0.0)), [f])
        assert abs(response[0]) == pytest.approx(0.0, abs=1e-12)

    def test_tap_sum_oracle_alice_hf(self):
        freqs = np.arange(64) * 15e3
        amplitudes = np.sqrt(ALICE_HF_PROFILE.linear_powers)
        expected = np.array([
            sum(a * np.exp(-2j * np.pi * f * d)
                for a, d in zip(amplitudes, ALICE_HF_PROFILE.delays_s))
            for f in freqs
        ])
        got = fingerprint_response(ALICE_HF_PROFILE, freqs)
        np.testing.assert_allclose(got, expected)

    def test_repeated_calls_identical(self):
        freqs = np.arange(64) * 15e3
        np.testing.assert_array_equal(
            fingerprint_response(BOB_HF_PROFILE, freqs), fingerprint_response(BOB_HF_PROFILE, freqs)
        )

    def test_cached_response_is_read_only(self):
        response = fingerprint_response(BOB_HF_PROFILE, np.arange(13) * 75e3)
        with pytest.raises(ValueError):
            response[0] = 0.0

    def test_list_and_array_share_the_cached_response(self):
        freqs = np.arange(13) * 75e3
        assert fingerprint_response(ALICE_HF_PROFILE, list(freqs)) is fingerprint_response(ALICE_HF_PROFILE, freqs)

    def test_matches_amplitudes_times_steering(self):
        freqs = np.arange(13) * 75e3
        for profile in (ALICE_HF_PROFILE, BOB_HF_PROFILE):
            amplitudes = np.sqrt(profile.linear_powers)
            steering = np.exp(-2j * np.pi * np.outer(profile.delays_s, freqs))
            error = np.abs(fingerprint_response(profile, freqs) - amplitudes @ steering)
            assert np.all(error <= 4 * np.finfo(float).eps * np.sum(amplitudes))


class TestAddAwgn:
    def test_noiseless_flag_returns_input(self):
        signal = np.exp(1j * np.linspace(0, 3, 32))
        np.testing.assert_array_equal(add_awgn(signal, None, (1,)), signal)
        # None is the one noiseless spelling: +inf is not a finite SNR
        with pytest.raises(ValueError, match="finite or the noiseless flag"):
            add_awgn(signal, np.inf, (1,))

    @pytest.mark.parametrize("snr_db,expected_var", [(0.0, 1.0), (20.0, 0.01)])
    def test_noise_variance_unit_power_signal(self, snr_db, expected_var):
        n = 100_000
        signal = np.ones(n, dtype=complex)
        noisy = add_awgn(signal, snr_db, (55, int(snr_db)))
        variance = np.mean(np.abs(noisy - signal) ** 2)
        assert variance == pytest.approx(expected_var, rel=0.02)

    def test_reference_power_overrides_measurement(self):
        n = 100_000
        signal = 3.0 * np.ones(n, dtype=complex)  # power 9
        noisy = add_awgn(signal, 0.0, (56,), ref_power=1.0)
        variance = np.mean(np.abs(noisy - signal) ** 2)
        assert variance == pytest.approx(1.0, rel=0.02)

    def test_distinct_streams_independent(self):
        n = 100_000
        zero = np.zeros(n, dtype=complex)
        n1 = add_awgn(zero, 0.0, (60, 1), ref_power=1.0)
        n2 = add_awgn(zero, 0.0, (60, 2), ref_power=1.0)
        rho = np.mean(n1 * np.conj(n2)) / (
            np.sqrt(np.mean(np.abs(n1) ** 2)) * np.sqrt(np.mean(np.abs(n2) ** 2))
        )
        assert abs(rho) < 0.01

    def test_measured_reference_is_per_row(self):
        # a batch of probes: each row's noise follows that row's own power
        n = 100_000
        signal = np.stack([np.ones(n, dtype=complex), 10.0 * np.ones(n, dtype=complex)])
        noisy = add_awgn(signal, 0.0, (57,), ref_power=None)
        variances = np.mean(np.abs(noisy - signal) ** 2, axis=-1)
        np.testing.assert_allclose(variances, [1.0, 100.0], rtol=0.02)

    def test_scalar_signal_needs_a_reference_power(self):
        with pytest.raises(ValueError, match="0-d signal"):
            add_awgn(1.0 + 0j, 10.0, (1,))
        assert add_awgn(1.0 + 0j, 10.0, (1,), ref_power=1.0).shape == ()

    def test_rejects_nan_snr(self):
        with pytest.raises(ValueError):
            add_awgn(np.ones(4, dtype=complex), float("nan"), (1,))

    def test_rejects_minus_infinite_snr(self):
        # -inf dB is infinite noise, not the noiseless flag
        with pytest.raises(ValueError, match="noiseless flag"):
            add_awgn(np.ones((2, 4), dtype=complex), -np.inf, (1,), ref_power=1.0)
