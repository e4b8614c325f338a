import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lockeysim._rng import substream
from lockeysim.config import build_config
from lockeysim.fading import TapProfile, add_awgn, fingerprint_response, frequency_response, make_fading_process
from lockeysim.protocol import (
    Environment,
    Scheme,
    estimate_gamma,
    loopback_combine,
    measure_round,
    run_round,
)
from lockeysim.ris import surface_aggregates

CFG = build_config({})


def make_env(attacked=0, snr_db=None, n_units=30, stream=(1,), profiles=None, trials=None):
    return Environment(
        CFG.ofdm,
        profiles or CFG.profiles,
        n_units,
        attacked,
        snr_db,
        stream,
        trials=trials,
    )


def air_response(env, slot, link, freqs):
    """Response of link `link` (0 ``alice_bob``, 1 ``alice_ris``, 2 ``ris_bob``)
    in slot `slot`, drawn from the key ``(env.stream, 0, 3*slot + link)``."""
    name = ("alice_bob", "alice_ris", "ris_bob")[link]
    gains = make_fading_process(env.profiles[name], substream(env.stream, 0, 3 * slot + link), env.trials)
    return frequency_response(env.profiles[name], gains, freqs)


def slot_stream(env, slot):
    """Key of slot `slot`'s surface aggregates; its probes' noise is at children 2 and 3."""
    return substream(env.stream, 1, slot)


def pooled_gamma(h_a, h_b):
    """Least-squares scalar predicting `h_b` from `h_a` over the last axis, one per row."""
    return np.sum(h_b * np.conj(h_a), axis=-1) / np.sum(np.abs(h_a) ** 2, axis=-1)


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
        h_a1, h_b1 = measure_round(env)
        np.testing.assert_allclose(h_a1, h_b1, rtol=1e-12)

    def test_fingerprint_ratio_oracle(self):
        # with equal surface aggregates the estimate ratio is the filter ratio
        env = make_env()
        h_a1, h_b1 = measure_round(env)
        freqs = env.ofdm.pilot_freqs
        expected = (
            fingerprint_response(env.profiles["alice_hf"], freqs)
            / fingerprint_response(env.profiles["bob_hf"], freqs)
        )
        np.testing.assert_allclose(h_b1 / h_a1, expected, rtol=1e-9)

    def test_full_attack_difference_oracle(self):
        # identity filters, noiseless, every unit re-randomized: the pair
        # differs exactly by the cascaded response times the aggregate gap
        env = make_env(attacked=30, profiles=identity_profiles())
        h_a1, h_b1 = measure_round(env)
        freqs = env.ofdm.pilot_freqs
        phi_first, phi_second = surface_aggregates(30, env.attacked, slot_stream(env, 0))
        cascade = air_response(env, 0, 1, freqs) * air_response(env, 0, 2, freqs)
        expected = cascade * (phi_second - phi_first)
        np.testing.assert_allclose(h_a1 - h_b1, expected, rtol=1e-9)

    @pytest.mark.parametrize("n_units, attacked, message", [
        (30, 31, "attacked must lie in"),
        (30, -1, "attacked must lie in"),
        (0, 0, "n_units must be >= 1"),
    ])
    def test_invalid_surface_raises_before_any_estimate(self, n_units, attacked, message):
        # the surface's own range check runs on the first slot's draw
        with pytest.raises(ValueError, match=message):
            measure_round(make_env(attacked=attacked, n_units=n_units))


class TestLoopbackCombine:
    def test_all_unit_channels(self):
        # flat unit channels, identity filters, one surface unit, noiseless
        flat = TapProfile((0.0,), (0.0,))
        profiles = {k: flat for k in CFG.profiles}
        env = make_env(n_units=1, profiles=profiles)
        first = measure_round(env)
        h_a, h_b = loopback_combine(first, env)
        np.testing.assert_allclose(h_a, h_b, rtol=1e-12)

    def test_hardware_cancellation_any_fingerprints(self):
        # distinct filters, static channels, no jamming, noiseless:
        # the loop-back pair agrees to machine precision
        env = make_env()
        alice, bob = run_round(env)[0][Scheme.LOOPBACK]
        scale = np.max(np.abs(bob))
        diff = np.max(np.abs(alice - bob))
        assert diff / scale < 1e-12

    def test_expansion_oracle(self):
        # noiseless general case: the loop-back estimate equals the product
        # of the peer's first-slot estimate and the fresh band-2 response
        env = make_env(attacked=7)
        h_a1, h_b1 = measure_round(env)
        h_a, h_b = loopback_combine((h_a1, h_b1), env)

        freqs = env.ofdm.pilot_freqs
        direct = air_response(env, 1, 0, freqs)
        cascade = air_response(env, 1, 1, freqs) * air_response(env, 1, 2, freqs)
        phi_first, phi_second = surface_aggregates(30, env.attacked, slot_stream(env, 1))
        fp_ba = fingerprint_response(env.profiles["bob_hf"], freqs)
        fp_ab = fingerprint_response(env.profiles["alice_hf"], freqs)
        expected_a = fp_ba * (direct + cascade * phi_first) * h_b1
        expected_b = fp_ab * (direct + cascade * phi_second) * h_a1
        np.testing.assert_allclose(h_a, expected_a, rtol=1e-9)
        np.testing.assert_allclose(h_b, expected_b, rtol=1e-9)


class TestPilotGrid:
    """Subcarriers are independent, so probing only the pilot subcarriers
    gives exactly the pilot columns of a full-width computation."""

    def test_noiseless_rounds_equal_full_width_products_at_the_pilots(self):
        trials = 6
        env = make_env(attacked=7, trials=trials)
        h_a1, h_b1 = measure_round(env)
        h_a, h_b = loopback_combine((h_a1, h_b1), env)

        freqs = env.ofdm.subcarrier_freqs
        fp_alice = fingerprint_response(env.profiles["alice_hf"], freqs)
        fp_bob = fingerprint_response(env.profiles["bob_hf"], freqs)

        def slot_channels(slot):
            # full-width channel of each probe of a slot: first, then jammed
            direct = air_response(env, slot, 0, freqs)
            cascade = air_response(env, slot, 1, freqs) * air_response(env, slot, 2, freqs)
            aggregates = surface_aggregates(env.n_units, env.attacked, slot_stream(env, slot), trials)
            return tuple(direct + cascade * phi[:, None] for phi in aggregates)

        # slot 1: Alice probes first; slot 2: Bob loops back first
        air_1, air_2 = slot_channels(0)
        full_b1, full_a1 = fp_alice * air_1, fp_bob * air_2
        air_1, air_2 = slot_channels(1)
        full_a, full_b = fp_bob * air_1 * full_b1, fp_alice * air_2 * full_a1

        positions = env.ofdm.pilot_positions
        for got, full in ((h_a1, full_a1), (h_b1, full_b1), (h_a, full_a), (h_b, full_b)):
            assert full.shape == (trials, env.ofdm.symbol_length)
            np.testing.assert_allclose(got, full[:, positions], rtol=1e-12)

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_key_sources_hold_one_column_per_pilot(self, scheme):
        env = make_env(attacked=5, snr_db=10.0, trials=9)
        alice, bob = run_round(env)[0][scheme]
        shape = (9, CFG.ofdm.pilot_positions.size)
        assert alice.shape == bob.shape == shape

    def test_measured_noise_follows_each_probes_pilot_grid_power(self):
        # `measured` references each probe's SNR to its own mean received
        # power over the pilot subcarriers; rows of low and of high power
        # both see noise of exactly that variance
        snr_db = 10.0
        env = Environment(CFG.ofdm, CFG.profiles, 30, 5, snr_db, (26,), noise_ref=None, trials=4000)
        noisy = measure_round(env)
        clean = measure_round(replace(env, snr_db=None))
        for got, want in zip(noisy, clean):
            # an estimate is the received probe, so its power is the received power
            expected_var = np.mean(np.abs(want) ** 2, axis=-1) * 10.0 ** (-snr_db / 10.0)
            ratio = np.mean(np.abs(got - want) ** 2, axis=-1) / expected_var
            weak = expected_var < np.median(expected_var)
            assert np.mean(ratio[weak]) == pytest.approx(1.0, rel=0.05)
            assert np.mean(ratio[~weak]) == pytest.approx(1.0, rel=0.05)


class TestProbeNoise:
    """With the unit reference, an estimate is its noiseless value plus the
    probe's own `add_awgn` draw: unrotated, of variance ``10**(-snr/10)``,
    from the stream of its probe: child 2 of the slot's key for the first
    probe of a slot, child 3 for the second."""

    SNR_DB = 10.0

    @staticmethod
    def unit_noise(shape, snr_db, stream, index):
        return add_awgn(np.zeros(shape, dtype=complex), snr_db, substream(stream, index), ref_power=1.0)

    @pytest.mark.parametrize("trials", [None, 2000])
    def test_first_slot_noise_is_each_probes_own_draw(self, trials):
        env = make_env(attacked=5, snr_db=self.SNR_DB, trials=trials)
        stream = slot_stream(env, 0)
        noisy = measure_round(env)
        clean = measure_round(replace(env, snr_db=None))
        # Alice probes first, so Bob's estimate carries the first probe's noise
        for got, want, index in zip(noisy, clean, (3, 2)):
            draw = self.unit_noise(want.shape, self.SNR_DB, stream, index)
            np.testing.assert_allclose(got - want, draw, rtol=0, atol=1e-12)
            if trials:
                assert np.mean(np.abs(got - want) ** 2) == pytest.approx(10.0 ** (-self.SNR_DB / 10.0), rel=0.05)

    def test_second_slot_noise_is_each_probes_own_draw(self):
        env = make_env(attacked=5, snr_db=self.SNR_DB, trials=50)
        first = measure_round(replace(env, snr_db=None))
        stream = slot_stream(env, 1)
        noisy = loopback_combine(first, env)
        clean = loopback_combine(first, replace(env, snr_db=None))
        # Bob loops back first, so Alice's estimate carries the first probe's noise
        for got, want, index in zip(noisy, clean, (2, 3)):
            draw = self.unit_noise(want.shape, self.SNR_DB, stream, index)
            np.testing.assert_allclose(got - want, draw, rtol=0, atol=1e-12)


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
        # without a given gamma, run_round fits one scalar across the
        # round's pilot subcarriers
        sources, gamma_used = run_round(make_env(attacked=5, snr_db=10.0))
        h_a, h_b = sources[Scheme.LOOPBACK]
        assert gamma_used.shape == (1,)
        assert gamma_used[0] == pytest.approx(pooled_gamma(h_a, h_b))


class TestApplyCompensation:
    """A given gamma scales Alice's loop-back estimate in `run_round`."""

    @staticmethod
    def compensate(gamma):
        sources, _ = run_round(make_env(attacked=5, snr_db=10.0), gamma)
        return sources[Scheme.LOCKEY][0], sources[Scheme.LOOPBACK][0]

    def test_identity(self):
        locked, plain = self.compensate(1.0)
        np.testing.assert_array_equal(locked, plain)

    def test_zero(self):
        locked, plain = self.compensate(0.0)
        np.testing.assert_array_equal(locked, np.zeros(plain.shape))

    def test_elementwise_oracle(self):
        rng = np.random.default_rng(4)
        n = CFG.ofdm.pilot_positions.size
        gamma = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        locked, plain = self.compensate(gamma)
        np.testing.assert_allclose(locked, gamma * plain)

    def test_rejects_shape_mismatch(self):
        # a gamma that does not broadcast to the estimate shape, or that
        # would widen it, is rejected with both shapes named
        n = CFG.ofdm.pilot_positions.size
        for shape in ((3,), (2, n)):
            with pytest.raises(ValueError, match=rf"{re.escape(str(shape))}.*\({n},\)"):
                self.compensate(np.ones(shape, dtype=complex))


class TestRunRound:
    def test_non_loopback_perfect_conditions(self):
        env = make_env(profiles=identity_profiles())
        alice, bob = run_round(env)[0][Scheme.NON_LOOPBACK]
        np.testing.assert_allclose(alice, bob, rtol=1e-12)

    @pytest.mark.parametrize("trials", [None, 7])
    def test_schemes_read_one_round(self, trials):
        # the plain pair is the first slot and the loop-back pair is the
        # second slot of the same round, element for element
        env = make_env(attacked=5, snr_db=10.0, trials=trials)
        sources, _ = run_round(env)
        first = measure_round(env)
        product = loopback_combine(first, env)
        for got, want in zip((sources[Scheme.NON_LOOPBACK], sources[Scheme.LOOPBACK]), (first, product)):
            for got_side, want_side in zip(got, want):
                np.testing.assert_array_equal(got_side, want_side)
        np.testing.assert_array_equal(sources[Scheme.LOCKEY][1], product[1])

    def test_every_draw_has_its_own_key(self, monkeypatch):
        # the two slots share no link, surface or noise draw, and every key
        # lies below the environment's stream
        from lockeysim import _rng, fading, ris

        built = []
        for module in (fading, ris):
            monkeypatch.setattr(module, "as_rng", lambda stream: built.append(stream) or _rng.as_rng(stream))
        env = make_env(attacked=5, snr_db=10.0, stream=(31, 4))
        run_round(env)
        assert len(built) == len(set(built)) == 6 + 2 * (2 + 2)
        assert all(key[:2] == env.stream for key in built)

    def test_determinism(self):
        env = make_env(attacked=5, snr_db=10.0)
        s1, g1 = run_round(env)
        s2, g2 = run_round(env)
        for scheme in Scheme:
            np.testing.assert_array_equal(s1[scheme][0], s2[scheme][0])
            np.testing.assert_array_equal(s1[scheme][1], s2[scheme][1])
        np.testing.assert_array_equal(g1, g2)

    def test_lockey_improves_on_loopback_under_jamming(self):
        # same environment draws: compensated key sources correlate better
        from lockeysim.analysis import correlation

        n = 200
        cfg = CFG
        locked, plain = [], []
        for i in range(n):
            sources, _ = run_round(Environment(cfg.ofdm, cfg.profiles, 30, 10, 15.0, (14, i)))
            plain.append(sources[Scheme.LOOPBACK])
            locked.append(sources[Scheme.LOCKEY])
        rho_plain = abs(correlation(
            np.concatenate([a for a, _ in plain]), np.concatenate([b for _, b in plain])))
        rho_locked = abs(correlation(
            np.concatenate([a for a, _ in locked]), np.concatenate([b for _, b in locked])))
        assert rho_locked > rho_plain

    def test_batched_round_gamma_is_fitted_per_row(self):
        # one trial per pilot subcarrier: the per-round scalars have the
        # length of a key source row, so only their (trials, 1) shape keeps
        # them per row
        trials = CFG.ofdm.pilot_positions.size
        env = make_env(attacked=5, snr_db=20.0, trials=trials)
        sources, gamma_used = run_round(env)
        plain, locked = sources[Scheme.LOOPBACK], sources[Scheme.LOCKEY]
        for row in (0, trials - 1):
            gamma = pooled_gamma(plain[0][row], plain[1][row])
            np.testing.assert_allclose(gamma_used[row], gamma, rtol=1e-12)
            np.testing.assert_allclose(locked[0][row], gamma * plain[0][row], rtol=1e-12)

    def test_gamma_used_recorded_for_lockey_only(self):
        # the recorded gamma is the one the compensated side was scaled by:
        # a given value as it is, the per-round fit otherwise
        env = make_env(attacked=5, snr_db=20.0)
        given = np.linspace(0.5, 1.5, CFG.ofdm.pilot_positions.size)
        sources, gamma_used = run_round(env, given)
        assert gamma_used is given
        np.testing.assert_array_equal(sources[Scheme.LOCKEY][0], given * sources[Scheme.LOOPBACK][0])
        sources, gamma_used = run_round(env)
        alice = sources[Scheme.LOCKEY][0]
        assert np.broadcast_shapes(gamma_used.shape, alice.shape) == alice.shape
        np.testing.assert_array_equal(alice, gamma_used * sources[Scheme.LOOPBACK][0])


class TestLoopbackConvergence:
    def test_correlation_approaches_one_without_jamming(self):
        # matched filter powers, no attack: at 40 dB the loop-back pair is
        # essentially noise-free and the pooled correlation exceeds 0.99
        from lockeysim.analysis import correlation

        profiles = dict(CFG.profiles)
        profiles["bob_hf"] = profiles["alice_hf"]  # equal direction filters
        xs, ys = [], []
        for i in range(150):
            alice, bob = run_round(Environment(CFG.ofdm, profiles, 30, 0, 40.0, (20, i)))[0][Scheme.LOOPBACK]
            xs.append(alice)
            ys.append(bob)
        rho = abs(correlation(np.concatenate(xs), np.concatenate(ys)))
        assert rho > 0.99


def swapped_environment(env):
    """The environment with the two parties' direction filters exchanged."""
    profiles = dict(env.profiles, alice_hf=env.profiles["bob_hf"], bob_hf=env.profiles["alice_hf"])
    return replace(env, profiles=profiles)


class TestLabelSwapSymmetry:
    def test_measure_round_swaps_exactly(self):
        env = make_env(attacked=5, snr_db=10.0)
        h_a1, h_b1 = measure_round(env)
        s_a1, s_b1 = measure_round(swapped_environment(env), swap_roles=True)
        np.testing.assert_array_equal(s_a1, h_b1)
        np.testing.assert_array_equal(s_b1, h_a1)

    def test_full_round_swaps_exactly(self):
        env = make_env(attacked=5, snr_db=10.0)
        normal = run_round(env)[0][Scheme.LOOPBACK]
        swapped = run_round(swapped_environment(env), swap_roles=True)[0][Scheme.LOOPBACK]
        np.testing.assert_array_equal(swapped[0], normal[1])
        np.testing.assert_array_equal(swapped[1], normal[0])

    def test_batched_round_swaps_exactly(self):
        env = make_env(attacked=5, snr_db=10.0, trials=16)
        normal_sources, _ = run_round(env)
        swapped_sources, _ = run_round(swapped_environment(env), swap_roles=True)
        for scheme in (Scheme.NON_LOOPBACK, Scheme.LOOPBACK):
            normal, swapped = normal_sources[scheme], swapped_sources[scheme]
            assert normal[0].shape == (16, env.ofdm.pilot_positions.size)
            np.testing.assert_array_equal(swapped[0], normal[1])
            np.testing.assert_array_equal(swapped[1], normal[0])

    def test_lockey_swap_compensates_the_swapped_side(self):
        env = make_env(attacked=5, snr_db=10.0)
        normal_alice, normal_bob = run_round(env)[0][Scheme.LOOPBACK]
        swapped_alice, swapped_bob = run_round(swapped_environment(env), swap_roles=True)[0][Scheme.LOCKEY]
        # the swapped run predicts the original alice-side estimate from the
        # original bob-side estimate
        gamma = pooled_gamma(normal_bob, normal_alice)
        np.testing.assert_allclose(swapped_alice, gamma * normal_bob, rtol=1e-10)
        np.testing.assert_array_equal(swapped_bob, normal_alice)


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
        alice, bob = run_round(env)[0][Scheme.LOOPBACK]
        gap = np.max(np.abs(alice - bob), axis=-1)
        assert np.all(gap / np.max(np.abs(bob), axis=-1) < 1e-12)

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
        bob, alice = run_round(env)[0][baseline]
        swapped = run_round(swapped_environment(env), swap_roles=True)[0][scheme]
        if scheme is Scheme.LOCKEY:
            alice = pooled_gamma(alice, bob)[..., None] * alice
        np.testing.assert_array_equal(swapped[0], alice)
        np.testing.assert_array_equal(swapped[1], bob)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), n_units=st.integers(1, 40),
           snr_db=st.one_of(st.none(), st.floats(-10.0, 40.0)), key=STREAM_KEYS, trials=TRIALS)
    def test_round_gamma_satisfies_the_normal_equations(self, data, n_units, snr_db, key, trials):
        # the per-round scalar leaves the compensated residual orthogonal to
        # Alice's loop-back estimate, summed over the round's subcarriers
        attacked = data.draw(st.integers(0, n_units), label="attacked")
        sources, gamma = run_round(make_env(attacked, snr_db, n_units, stream=(key,), trials=trials))
        h_a, h_b = sources[Scheme.LOOPBACK]
        cross = np.sum((sources[Scheme.LOCKEY][0] - h_b) * np.conj(h_a), axis=-1)
        power = np.sum(np.abs(h_a) ** 2, axis=-1)
        assert np.all(np.abs(cross) <= 1e-12 * np.abs(gamma[..., 0]) * power)
