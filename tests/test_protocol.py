from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lockeysim.config import build_config
from lockeysim.fading import TapProfile, fingerprint_response, frequency_response
from lockeysim.ofdm import pilot_values
from lockeysim.protocol import (
    GAMMA_PER_ROUND,
    Scheme,
    apply_compensation,
    build_environment,
    estimate_gamma,
    estimate_round_gamma,
    loopback_combine,
    measure_round,
    run_round,
)

CFG = build_config({})


def make_env(attacked=0, snr_db=None, n_units=30, stream=(1,), profiles=None, trials=None):
    return build_environment(
        CFG.ofdm,
        profiles or CFG.profiles,
        n_units,
        attacked,
        snr_db,
        stream,
        trials=trials,
    )


def identity_profiles():
    flat = TapProfile((0.0,), (0.0,))
    profiles = dict(CFG.profiles)
    profiles["alice_hf"] = flat
    profiles["bob_hf"] = flat
    return profiles


class TestMeasureRound:
    def test_perfect_reciprocity(self):
        # no jamming, identity filters, noiseless: both parties see the same
        env = make_env(profiles=identity_profiles())
        h_a1, h_b1 = measure_round(env, (2,))
        np.testing.assert_allclose(h_a1, h_b1, rtol=1e-12)

    def test_fingerprint_ratio_oracle(self):
        # with equal surface aggregates the estimate ratio is the filter ratio
        env = make_env()
        h_a1, h_b1 = measure_round(env, (3,))
        positions = env.ofdm.pilot_positions
        freqs = env.ofdm.subcarrier_freqs[positions]
        expected = (
            fingerprint_response(env.profiles["alice_hf"], freqs)
            / fingerprint_response(env.profiles["bob_hf"], freqs)
        )
        np.testing.assert_allclose(h_b1[positions] / h_a1[positions], expected, rtol=1e-9)

    def test_full_attack_difference_oracle(self):
        # identity filters, noiseless, every unit re-randomized: the pair
        # differs exactly by the cascaded response times the aggregate gap
        from lockeysim.ris import aggregate_phase, apply_jamming, random_ris_state
        from lockeysim._rng import substream

        env = make_env(attacked=30, profiles=identity_profiles())
        stream = (4,)
        h_a1, h_b1 = measure_round(env, stream)
        freqs = env.ofdm.subcarrier_freqs
        state_first = random_ris_state(30, substream(stream, 0))
        state_second = apply_jamming(state_first, env.attacked, substream(stream, 1))
        cascade = frequency_response(env._link(1), freqs) * frequency_response(env._link(2), freqs)
        expected = cascade * (aggregate_phase(state_second) - aggregate_phase(state_first))
        positions = env.ofdm.pilot_positions
        np.testing.assert_allclose(
            (h_a1 - h_b1)[positions], expected[positions], rtol=1e-9
        )


class TestLoopbackCombine:
    def test_all_unit_channels(self):
        # flat unit channels, identity filters, one surface unit, noiseless
        flat = TapProfile((0.0,), (0.0,))
        profiles = {k: flat for k in CFG.profiles}
        env = make_env(n_units=1, profiles=profiles)
        first = measure_round(env, (5,))
        h_a, h_b = loopback_combine(first, env, (6,))
        np.testing.assert_allclose(h_a, h_b, rtol=1e-12)

    def test_hardware_cancellation_any_fingerprints(self):
        # distinct filters, static channels, no jamming, noiseless:
        # the loop-back pair agrees to machine precision
        env = make_env()
        result = run_round(Scheme.LOOPBACK, env, None, (7,))
        scale = np.max(np.abs(result.key_source_bob))
        diff = np.max(np.abs(result.key_source_alice - result.key_source_bob))
        assert diff / scale < 1e-12

    def test_expansion_oracle(self):
        # noiseless general case: the loop-back estimate equals the product
        # of the peer's first-slot estimate and the fresh band-2 response
        from lockeysim.ris import aggregate_phase, apply_jamming, random_ris_state
        from lockeysim._rng import substream

        env = make_env(attacked=7)
        stream_t, stream_tau = (8,), (9,)
        h_a1, h_b1 = measure_round(env, stream_t)
        h_a, h_b = loopback_combine((h_a1, h_b1), env, stream_tau)

        freqs = env.ofdm.subcarrier_freqs
        direct = frequency_response(env._link(3), freqs)
        cascade = frequency_response(env._link(4), freqs) * frequency_response(env._link(5), freqs)
        state_first = random_ris_state(30, substream(stream_tau, 0))
        state_second = apply_jamming(state_first, env.attacked, substream(stream_tau, 1))
        fp_ba = fingerprint_response(env.profiles["bob_hf"], freqs)
        fp_ab = fingerprint_response(env.profiles["alice_hf"], freqs)
        expected_a = fp_ba * (direct + cascade * aggregate_phase(state_first)) * h_b1
        expected_b = fp_ab * (direct + cascade * aggregate_phase(state_second)) * h_a1
        positions = env.ofdm.pilot_positions
        np.testing.assert_allclose(h_a[positions], expected_a[positions], rtol=1e-9)
        np.testing.assert_allclose(h_b[positions], expected_b[positions], rtol=1e-9)


class TestGamma:
    def test_identity_history(self):
        rng = np.random.default_rng(0)
        h = rng.standard_normal((300, 4)) + 1j * rng.standard_normal((300, 4))
        np.testing.assert_allclose(estimate_gamma(h, h), np.ones(4))

    def test_scaling_history(self):
        rng = np.random.default_rng(1)
        h = rng.standard_normal((250, 4)) + 1j * rng.standard_normal((250, 4))
        np.testing.assert_allclose(estimate_gamma(h, 2.0 * h), 2.0 * np.ones(4))

    def test_closed_form_oracle(self):
        # model-driven samples: the windowed estimate converges to the
        # closed-form prediction scalar
        from lockeysim.analysis import ModelStats, gamma_analytic, sample_loopback_pairs

        stats = ModelStats(2.0, 3.0, 0.5, 0.5, 1.0, 1.0)
        x, y = sample_loopback_pairs(stats, 100_000, (10,), match_second_moment=False)
        gamma = estimate_gamma(x[:, None], y[:, None], min_rounds=1)[0]
        assert abs(gamma) == pytest.approx(gamma_analytic(stats), abs=0.02)

    def test_rejects_short_history(self):
        h = np.ones((10, 4), dtype=complex)
        with pytest.raises(ValueError, match="shorter"):
            estimate_gamma(h, h)

    def test_rejects_degenerate_history(self):
        h = np.zeros((300, 2), dtype=complex)
        with pytest.raises(ValueError, match="degenerate"):
            estimate_gamma(h, h)

    def test_residual_orthogonality(self):
        # normal equations: the windowed scalar leaves the residual
        # orthogonal to the reference side, per subcarrier
        rng = np.random.default_rng(2)
        h_a = rng.standard_normal((400, 8)) + 1j * rng.standard_normal((400, 8))
        h_b = 1.3 * h_a + 0.5 * (rng.standard_normal((400, 8)) + 1j * rng.standard_normal((400, 8)))
        gamma = estimate_gamma(h_a, h_b)
        cross = np.sum((gamma * h_a - h_b) * np.conj(h_a), axis=0)
        assert np.max(np.abs(cross)) / np.sum(np.abs(h_a) ** 2) < 1e-12

    def test_round_gamma_matches_pooled_fit(self):
        rng = np.random.default_rng(3)
        h_a = rng.standard_normal(13) + 1j * rng.standard_normal(13)
        h_b = rng.standard_normal(13) + 1j * rng.standard_normal(13)
        expected = np.sum(h_b * np.conj(h_a)) / np.sum(np.abs(h_a) ** 2)
        assert estimate_round_gamma(h_a, h_b) == pytest.approx(expected)


class TestApplyCompensation:
    def test_identity(self):
        h = np.arange(4, dtype=complex)
        np.testing.assert_array_equal(apply_compensation(h, 1.0), h)

    def test_zero(self):
        h = np.arange(4, dtype=complex)
        np.testing.assert_array_equal(apply_compensation(h, 0.0), np.zeros(4))

    def test_elementwise_oracle(self):
        rng = np.random.default_rng(4)
        h = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        gamma = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        np.testing.assert_allclose(apply_compensation(h, gamma), gamma * h)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            apply_compensation(np.ones(4, dtype=complex), np.ones(3, dtype=complex))


class TestRunRound:
    def test_non_loopback_perfect_conditions(self):
        env = make_env(profiles=identity_profiles())
        result = run_round(Scheme.NON_LOOPBACK, env, None, (11,))
        np.testing.assert_allclose(result.key_source_alice, result.key_source_bob, rtol=1e-12)

    def test_lockey_requires_gamma(self):
        env = make_env()
        with pytest.raises(ValueError, match="gamma"):
            run_round(Scheme.LOCKEY, env, None, (12,))

    def test_lockey_rejects_unknown_policy(self):
        env = make_env()
        with pytest.raises(ValueError, match="policy"):
            run_round(Scheme.LOCKEY, env, "sometimes", (12,))

    def test_determinism(self):
        env = make_env(attacked=5, snr_db=10.0)
        r1 = run_round(Scheme.LOCKEY, env, GAMMA_PER_ROUND, (13,))
        r2 = run_round(Scheme.LOCKEY, env, GAMMA_PER_ROUND, (13,))
        np.testing.assert_array_equal(r1.key_source_alice, r2.key_source_alice)
        np.testing.assert_array_equal(r1.key_source_bob, r2.key_source_bob)
        np.testing.assert_array_equal(r1.gamma_used, r2.gamma_used)

    def test_lockey_improves_on_loopback_under_jamming(self):
        # same environment draws: compensated key sources correlate better
        from lockeysim.analysis import correlation

        n = 200
        cfg = CFG
        locked, plain = [], []
        for i in range(n):
            env = build_environment(
                cfg.ofdm, cfg.profiles, 30, 10, 15.0, (14, i)
            )
            r_lb = run_round(Scheme.LOOPBACK, env, None, (15, i))
            r_lk = run_round(Scheme.LOCKEY, env, GAMMA_PER_ROUND, (15, i))
            plain.append((pilot_values(r_lb.key_source_alice, cfg.ofdm),
                          pilot_values(r_lb.key_source_bob, cfg.ofdm)))
            locked.append((pilot_values(r_lk.key_source_alice, cfg.ofdm),
                           pilot_values(r_lk.key_source_bob, cfg.ofdm)))
        rho_plain = abs(correlation(
            np.concatenate([a for a, _ in plain]), np.concatenate([b for _, b in plain])))
        rho_locked = abs(correlation(
            np.concatenate([a for a, _ in locked]), np.concatenate([b for _, b in locked])))
        assert rho_locked > rho_plain

    def test_batched_round_gamma_is_fitted_per_row(self):
        # 64 trials: the per-round scalars have the length of a subcarrier
        # vector, so only their (trials, 1) shape keeps them per row
        env = make_env(attacked=5, snr_db=20.0, trials=64)
        plain = run_round(Scheme.LOOPBACK, env, None, (22,))
        locked = run_round(Scheme.LOCKEY, env, GAMMA_PER_ROUND, (22,))
        positions = env.ofdm.pilot_positions
        for row in (0, 63):
            gamma = estimate_round_gamma(
                plain.key_source_alice[row], plain.key_source_bob[row], positions)
            np.testing.assert_allclose(locked.gamma_used[row], gamma, rtol=1e-12)
            np.testing.assert_allclose(
                locked.key_source_alice[row], gamma * plain.key_source_alice[row], rtol=1e-12)

    def test_gamma_used_recorded_for_lockey_only(self):
        env = make_env(attacked=5, snr_db=20.0)
        assert run_round(Scheme.LOOPBACK, env, None, (16,)).gamma_used is None
        lk = run_round(Scheme.LOCKEY, env, GAMMA_PER_ROUND, (16,))
        assert lk.gamma_used is not None
        assert lk.gamma_used.shape == lk.key_source_alice.shape


class TestLoopbackConvergence:
    def test_correlation_approaches_one_without_jamming(self):
        # matched filter powers, no attack: at 40 dB the loop-back pair is
        # essentially noise-free and the pooled correlation exceeds 0.99
        from lockeysim.analysis import correlation

        profiles = dict(CFG.profiles)
        profiles["bob_hf"] = profiles["alice_hf"]  # equal direction filters
        xs, ys = [], []
        for i in range(150):
            env = build_environment(
                CFG.ofdm, profiles, 30, 0, 40.0, (20, i),
            )
            result = run_round(Scheme.LOOPBACK, env, None, (21, i))
            xs.append(pilot_values(result.key_source_alice, CFG.ofdm))
            ys.append(pilot_values(result.key_source_bob, CFG.ofdm))
        rho = abs(correlation(np.concatenate(xs), np.concatenate(ys)))
        assert rho > 0.99


def swapped_environment(env):
    """The environment with the two parties' direction filters exchanged."""
    profiles = dict(env.profiles, alice_hf=env.profiles["bob_hf"], bob_hf=env.profiles["alice_hf"])
    return replace(env, profiles=profiles)


class TestLabelSwapSymmetry:
    def test_measure_round_swaps_exactly(self):
        env = make_env(attacked=5, snr_db=10.0)
        h_a1, h_b1 = measure_round(env, (17,))
        s_a1, s_b1 = measure_round(swapped_environment(env), (17,), swap_roles=True)
        np.testing.assert_array_equal(s_a1, h_b1)
        np.testing.assert_array_equal(s_b1, h_a1)

    def test_full_round_swaps_exactly(self):
        env = make_env(attacked=5, snr_db=10.0)
        normal = run_round(Scheme.LOOPBACK, env, None, (18,))
        swapped = run_round(Scheme.LOOPBACK, swapped_environment(env), None, (18,), swap_roles=True)
        np.testing.assert_array_equal(swapped.key_source_alice, normal.key_source_bob)
        np.testing.assert_array_equal(swapped.key_source_bob, normal.key_source_alice)

    def test_batched_round_swaps_exactly(self):
        env = make_env(attacked=5, snr_db=10.0, trials=16)
        for scheme in (Scheme.NON_LOOPBACK, Scheme.LOOPBACK):
            normal = run_round(scheme, env, None, (20,))
            swapped = run_round(scheme, swapped_environment(env), None, (20,), swap_roles=True)
            assert normal.key_source_alice.shape == (16, 64)
            np.testing.assert_array_equal(swapped.key_source_alice, normal.key_source_bob)
            np.testing.assert_array_equal(swapped.key_source_bob, normal.key_source_alice)

    def test_lockey_swap_compensates_the_swapped_side(self):
        env = make_env(attacked=5, snr_db=10.0)
        normal = run_round(Scheme.LOOPBACK, env, None, (19,))
        swapped = run_round(
            Scheme.LOCKEY, swapped_environment(env), GAMMA_PER_ROUND, (19,), swap_roles=True
        )
        # the swapped run predicts the original alice-side estimate from the
        # original bob-side estimate
        gamma = estimate_round_gamma(
            normal.key_source_bob, normal.key_source_alice, env.ofdm.pilot_positions
        )
        np.testing.assert_allclose(
            swapped.key_source_alice, gamma * normal.key_source_bob, rtol=1e-10
        )
        np.testing.assert_array_equal(swapped.key_source_bob, normal.key_source_alice)


@st.composite
def filter_profiles(draw):
    """A hardware filter of 1-4 taps within 3 us and -20..5 dB."""
    n_taps = draw(st.integers(1, 4))
    delays_ms = sorted(draw(st.lists(st.floats(0.0, 3e-3), min_size=n_taps - 1, max_size=n_taps - 1)))
    powers_db = draw(st.lists(st.floats(-20.0, 5.0), min_size=n_taps, max_size=n_taps))
    return TapProfile((0.0, *delays_ms), tuple(powers_db))


STREAM_KEYS = st.integers(0, 2 ** 32 - 1)
TRIALS = st.one_of(st.none(), st.integers(1, 4))


class TestProtocolProperties:
    @settings(max_examples=25, deadline=None)
    @given(alice_hf=filter_profiles(), bob_hf=filter_profiles(), n_units=st.integers(1, 40),
           key=STREAM_KEYS, trials=TRIALS)
    def test_loopback_cancels_any_filter_pair(self, alice_hf, bob_hf, n_units, key, trials):
        profiles = dict(CFG.profiles, alice_hf=alice_hf, bob_hf=bob_hf)
        env = make_env(n_units=n_units, stream=(key,), profiles=profiles, trials=trials)
        result = run_round(Scheme.LOOPBACK, env, None, (key, 1))
        gap = np.max(np.abs(result.key_source_alice - result.key_source_bob), axis=-1)
        assert np.all(gap / np.max(np.abs(result.key_source_bob), axis=-1) < 1e-12)

    @pytest.mark.parametrize("scheme", list(Scheme))
    @settings(max_examples=10, deadline=None)
    @given(data=st.data(), n_units=st.integers(1, 40),
           snr_db=st.one_of(st.none(), st.floats(-10.0, 40.0)), key=STREAM_KEYS, trials=TRIALS)
    def test_label_swap_exchanges_the_sides(self, scheme, data, n_units, snr_db, key, trials):
        attacked = data.draw(st.integers(0, n_units), label="attacked")
        env = make_env(attacked, snr_db, n_units, stream=(key,), trials=trials)
        # compensation always predicts the Alice-labelled side, so the
        # swapped lockey run is compared with the loop-back pair it compensates
        baseline = Scheme.LOOPBACK if scheme is Scheme.LOCKEY else scheme
        normal = run_round(baseline, env, None, (key, 1))
        gamma = GAMMA_PER_ROUND if scheme is Scheme.LOCKEY else None
        swapped = run_round(scheme, swapped_environment(env), gamma, (key, 1), swap_roles=True)
        alice, bob = normal.key_source_bob, normal.key_source_alice
        if scheme is Scheme.LOCKEY:
            alice = apply_compensation(alice, estimate_round_gamma(alice, bob, env.ofdm.pilot_positions)[..., None])
        np.testing.assert_array_equal(swapped.key_source_alice, alice)
        np.testing.assert_array_equal(swapped.key_source_bob, bob)
