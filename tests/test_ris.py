import numpy as np
import pytest

from lockeysim.ris import (
    JammerConfig,
    RisState,
    aggregate_phase,
    apply_jamming,
    cascaded_gain,
    random_ris_state,
)


class TestRisState:
    def test_rejects_zero_units(self):
        with pytest.raises(ValueError):
            random_ris_state(0, (1,))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            RisState(3, np.ones(2), np.zeros(3))

    def test_rejects_bad_on_off(self):
        with pytest.raises(ValueError):
            RisState(2, np.array([0, 2]), np.array([1.0, 1.0]))


class TestRandomState:
    def test_default_surface(self):
        state = random_ris_state(30, (5,))
        assert state.n_units == 30
        assert np.all(state.on_off == 1)
        assert np.all((state.phases >= 0.0) & (state.phases < 2.0 * np.pi))

    def test_single_element(self):
        state = random_ris_state(1, (5,))
        assert state.phases.shape == (1,)

    def test_uniform_phase_mean(self):
        # mean of unit phasors over uniform phases vanishes
        state = random_ris_state(100_000, (6,))
        mean = np.mean(np.exp(1j * state.phases))
        assert abs(mean) < 0.02

    def test_deterministic(self):
        np.testing.assert_array_equal(
            random_ris_state(16, (9, 1)).phases, random_ris_state(16, (9, 1)).phases
        )


class TestAggregatePhase:
    def test_all_off_is_zero(self):
        state = RisState(4, np.zeros(4), np.full(4, 1.0))
        assert aggregate_phase(state) == 0

    def test_single_unit_small_phase(self):
        state = RisState(1, np.ones(1), np.array([1e-12]))
        assert aggregate_phase(state) == pytest.approx(1.0, abs=1e-9)

    def test_direct_sum_oracle(self):
        state = random_ris_state(30, (7,))
        expected = sum(
            w * np.exp(1j * p) for w, p in zip(state.on_off, state.phases)
        )
        assert aggregate_phase(state) == pytest.approx(expected)

    def test_triangle_inequality(self):
        for i in range(50):
            state = random_ris_state(30, (8, i))
            assert abs(aggregate_phase(state)) <= np.sum(state.on_off) + 1e-12


class TestApplyJamming:
    def test_no_attack_identity(self):
        state = random_ris_state(30, (10,))
        jammed = apply_jamming(state, JammerConfig(0), (11,))
        assert jammed is state
        assert aggregate_phase(jammed) == aggregate_phase(state)

    def test_exactly_k_entries_change(self):
        state = random_ris_state(30, (12,))
        jammed = apply_jamming(state, JammerConfig(20), (13,))
        assert np.count_nonzero(jammed.phases != state.phases) == 20
        np.testing.assert_array_equal(jammed.on_off, state.on_off)

    def test_batched_rows_each_lose_exactly_k(self):
        state = random_ris_state(30, (21,), trials=50)
        jammed = apply_jamming(state, JammerConfig(7), (22,))
        assert jammed.phases.shape == (50, 30)
        np.testing.assert_array_equal(np.count_nonzero(jammed.phases != state.phases, axis=1), 7)
        np.testing.assert_allclose(
            aggregate_phase(jammed), np.sum(np.exp(1j * jammed.phases), axis=1)
        )

    def test_rejects_too_many_attacked(self):
        state = random_ris_state(30, (14,))
        with pytest.raises(ValueError):
            apply_jamming(state, JammerConfig(31), (15,))

    def test_full_attack_decorrelates_aggregates(self):
        n = 100_000
        up = np.empty(n, dtype=complex)
        down = np.empty(n, dtype=complex)
        for i in range(n):
            state = random_ris_state(30, (16, i))
            up[i] = aggregate_phase(state)
            down[i] = aggregate_phase(apply_jamming(state, JammerConfig(30), (17, i)))
        rho = np.mean(up * np.conj(down)) / (
            np.sqrt(np.mean(np.abs(up) ** 2)) * np.sqrt(np.mean(np.abs(down) ** 2))
        )
        assert abs(rho) < 0.02

    def test_aggregate_mean_vanishes_over_rerandomization(self):
        n = 100_000
        total = 0j
        for i in range(n):
            total += aggregate_phase(random_ris_state(1, (18, i)))
        assert abs(total / n) < 0.02


class TestCascadedGain:
    def test_all_off_zero_gain(self):
        state = RisState(4, np.zeros(4), np.full(4, 2.0))
        out = cascaded_gain(np.ones(8), np.ones(8), state)
        np.testing.assert_array_equal(out, np.zeros(8))

    def test_unit_everything(self):
        state = RisState(1, np.ones(1), np.array([1e-15]))
        out = cascaded_gain(np.ones(4), np.ones(4), state)
        np.testing.assert_allclose(out, np.ones(4))

    def test_elementwise_oracle(self):
        rng = np.random.default_rng(0)
        h_in = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        h_out = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        state = random_ris_state(30, (19,))
        phi = aggregate_phase(state)
        np.testing.assert_allclose(
            cascaded_gain(h_in, h_out, state), h_in * h_out * phi
        )

    def test_rejects_length_mismatch(self):
        state = random_ris_state(2, (20,))
        with pytest.raises(ValueError):
            cascaded_gain(np.ones(3), np.ones(4), state)
