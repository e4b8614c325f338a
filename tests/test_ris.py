import numpy as np
import pytest

from lockeysim.ris import (
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

    def test_phase_interval_is_half_open(self):
        # the interval random_ris_state draws from: 0 is a phase, 2*pi is not
        assert RisState(np.array([0.0, 1.0])).phases[0] == 0.0
        with pytest.raises(ValueError, match=r"\[0, 2\*pi\)"):
            RisState(np.array([1.0, 2.0 * np.pi]))


class TestRandomState:
    def test_default_surface(self):
        state = random_ris_state(30, (5,))
        assert state.n_units == 30
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
    def test_single_unit_small_phase(self):
        state = RisState(np.array([1e-12]))
        assert aggregate_phase(state) == pytest.approx(1.0, abs=1e-9)

    def test_direct_sum_oracle(self):
        state = random_ris_state(30, (7,))
        expected = sum(np.exp(1j * p) for p in state.phases)
        assert aggregate_phase(state) == pytest.approx(expected)

    def test_triangle_inequality(self):
        for i in range(50):
            state = random_ris_state(30, (8, i))
            assert abs(aggregate_phase(state)) <= state.n_units + 1e-12

    def test_batch_equals_complex_exponential_sum(self):
        state = random_ris_state(30, (9,), trials=200)
        np.testing.assert_array_equal(aggregate_phase(state), np.sum(np.exp(1j * state.phases), axis=-1))


class TestApplyJamming:
    def test_no_attack_identity(self):
        state = random_ris_state(30, (10,))
        jammed = apply_jamming(state, 0, (11,))
        assert jammed is state
        assert aggregate_phase(jammed) == aggregate_phase(state)

    def test_exactly_k_entries_change(self):
        state = random_ris_state(30, (12,))
        jammed = apply_jamming(state, 20, (13,))
        assert np.count_nonzero(jammed.phases != state.phases) == 20

    def test_batched_rows_each_lose_exactly_k(self):
        state = random_ris_state(30, (21,), trials=50)
        jammed = apply_jamming(state, 7, (22,))
        assert jammed.phases.shape == (50, 30)
        np.testing.assert_array_equal(np.count_nonzero(jammed.phases != state.phases, axis=1), 7)
        np.testing.assert_allclose(
            aggregate_phase(jammed), np.sum(np.exp(1j * jammed.phases), axis=1)
        )

    def test_rejects_too_many_attacked(self):
        state = random_ris_state(30, (14,))
        with pytest.raises(ValueError):
            apply_jamming(state, 31, (15,))

    def test_rejects_negative_attacked(self):
        # a slice to -1 would silently attack all units but one
        state = random_ris_state(30, (14,))
        with pytest.raises(ValueError, match="attacked"):
            apply_jamming(state, -1, (15,))

    def test_full_attack_decorrelates_aggregates(self):
        state = random_ris_state(30, (16,), trials=100_000)
        up = aggregate_phase(state)
        down = aggregate_phase(apply_jamming(state, 30, (17,)))
        rho = np.mean(up * np.conj(down)) / (
            np.sqrt(np.mean(np.abs(up) ** 2)) * np.sqrt(np.mean(np.abs(down) ** 2))
        )
        assert abs(rho) < 0.02

    def test_aggregate_mean_vanishes_over_rerandomization(self):
        aggregates = aggregate_phase(random_ris_state(1, (18,), trials=100_000))
        assert abs(np.mean(aggregates)) < 0.02


class TestCascadedGain:
    def test_unit_everything(self):
        state = RisState(np.array([1e-15]))
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
