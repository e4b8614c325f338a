import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lockeysim import ris
from lockeysim._rng import as_rng, batch_shape, substream
from lockeysim.ris import surface_aggregates

EPS = np.finfo(float).eps


def drawn_phases(n_units, attacked, stream, trials=None):
    """The draws `surface_aggregates` documents, rebuilt from its two
    sub-streams: the first probe's phases, then the second probe's, where
    exactly `attacked` units of each row carry a fresh phase."""
    first = as_rng(substream(stream, 0)).uniform(0.0, 2.0 * np.pi, size=batch_shape(trials, n_units))
    second = first.copy()
    if attacked:
        rng = as_rng(substream(stream, 1))
        units = np.argsort(rng.random(first.shape), axis=-1)[..., :attacked]
        np.put_along_axis(second, units, rng.uniform(0.0, 2.0 * np.pi, size=units.shape), axis=-1)
    return first, second


def phasor_sum(phases):
    return np.sum(np.exp(1j * phases), axis=-1)


class TestPhasors:
    """The half-angle helper behind every unit phasor of the package."""

    def test_matches_complex_exponential(self):
        edges = [0.0, np.nextafter(np.pi, 0.0), np.pi, np.nextafter(2.0 * np.pi, 0.0)]
        phases = np.concatenate([np.random.default_rng(40).uniform(0.0, 2.0 * np.pi, 1_000_000), edges])
        phasors = ris._phasors(phases.copy())
        assert phasors.dtype == complex and phasors.shape == phases.shape
        assert np.max(np.abs(phasors - np.exp(1j * phases))) <= 4 * EPS
        assert np.max(np.abs(np.abs(phasors) - 1.0)) <= 4 * EPS
        assert phasors[-4] == 1.0 and phasors[-2].real == -1.0

    def test_writes_into_out(self):
        edges = [0.0, np.pi, np.nextafter(2.0 * np.pi, 0.0)]
        phases = np.concatenate([np.random.default_rng(41).uniform(0.0, 2.0 * np.pi, 1_000), edges])
        out = np.empty(phases.shape, dtype=complex)
        assert ris._phasors(phases.copy(), out) is out
        assert np.array_equal(out, ris._phasors(phases.copy()))


class TestRisState:
    """A surface has at least one unit."""

    def test_rejects_zero_units(self):
        with pytest.raises(ValueError, match="n_units must be >= 1"):
            surface_aggregates(0, 0, (1,))


class TestRandomState:
    """The first probe's configuration: N i.i.d. uniform phases."""

    def test_default_surface(self):
        phi_first, phi_second = surface_aggregates(30, 5, (5,))
        assert np.ndim(phi_first) == np.ndim(phi_second) == 0
        assert abs(phi_first) <= 30 and abs(phi_second) <= 30

    def test_single_element(self):
        # one unit: each aggregate is that unit's phasor
        for attacked in (0, 1):
            for phi in surface_aggregates(1, attacked, (5, attacked)):
                assert abs(phi) == pytest.approx(1.0, abs=1e-15)

    def test_uniform_phase_mean(self):
        # mean of unit phasors over uniform phases vanishes
        phi_first, _ = surface_aggregates(100_000, 0, (6,))
        assert abs(phi_first) / 100_000 < 0.02

    def test_deterministic(self):
        a = surface_aggregates(16, 4, (9, 1), trials=3)
        b = surface_aggregates(16, 4, (9, 1), trials=3)
        c = surface_aggregates(16, 4, (9, 2), trials=3)
        for x, y, z in zip(a, b, c):
            np.testing.assert_array_equal(x, y)
            assert not np.any(x == z)


class TestAggregatePhase:
    """Each aggregate is the phasor sum of a configuration's phases."""

    def test_direct_sum_oracle(self):
        got = surface_aggregates(30, 12, (7,))
        for phi, phases in zip(got, drawn_phases(30, 12, (7,))):
            assert phi == pytest.approx(sum(np.exp(1j * p) for p in phases))

    def test_triangle_inequality(self):
        for i in range(50):
            for phi in surface_aggregates(30, 10, (8, i)):
                assert abs(phi) <= 30 + 1e-12

    def test_batch_equals_complex_exponential_sum(self):
        # each of the 30 half-angle phasors lies within 4 eps of exp(1j * phase)
        got = surface_aggregates(30, 9, (9,), trials=200)
        for phi, phases in zip(got, drawn_phases(30, 9, (9,), trials=200)):
            assert phi.shape == (200,)
            np.testing.assert_allclose(phi, phasor_sum(phases), rtol=0, atol=30 * 4 * EPS)


class TestApplyJamming:
    """The second probe's configuration: `attacked` units redrawn."""

    def test_no_attack_identity(self, monkeypatch):
        # no attacked unit: one Generator, and the same aggregate twice
        built = []
        monkeypatch.setattr(ris, "as_rng", lambda stream: built.append(stream) or as_rng(stream))
        phi_first, phi_second = surface_aggregates(30, 0, (10,), trials=4)
        assert phi_second is phi_first
        assert built == [substream((10,), 0)]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n_units=st.integers(1, 40),
           trials=st.none() | st.integers(1, 6), stream=st.integers(0, 2 ** 31))
    def test_exactly_k_entries_change(self, data, n_units, trials, stream):
        attacked = data.draw(st.integers(0, n_units), label="attacked")
        first, second = drawn_phases(n_units, attacked, stream, trials)
        np.testing.assert_array_equal(np.count_nonzero(first != second, axis=-1), attacked)
        phi_first, phi_second = surface_aggregates(n_units, attacked, stream, trials)
        assert np.shape(phi_first) == np.shape(phi_second) == batch_shape(trials)
        np.testing.assert_allclose(phi_first, phasor_sum(first), rtol=0, atol=1e-12 * n_units)
        np.testing.assert_allclose(phi_second, phasor_sum(second), rtol=0, atol=1e-12 * n_units)

    def test_batched_rows_each_lose_exactly_k(self):
        # each row gets its own attacked subset
        phi_first, phi_second = surface_aggregates(30, 7, (22,), trials=50)
        first, second = drawn_phases(30, 7, (22,), trials=50)
        changed = first != second
        np.testing.assert_array_equal(np.count_nonzero(changed, axis=1), 7)
        assert len({tuple(np.flatnonzero(row)) for row in changed}) > 1
        gained = np.where(changed, np.exp(1j * second) - np.exp(1j * first), 0.0)
        np.testing.assert_allclose(phi_second - phi_first, np.sum(gained, axis=1), rtol=0, atol=1e-12)

    def test_rejects_too_many_attacked(self):
        with pytest.raises(ValueError, match=r"attacked must lie in \[0, 30\]"):
            surface_aggregates(30, 31, (15,))

    def test_rejects_negative_attacked(self):
        # a slice to -1 would silently attack all units but one
        with pytest.raises(ValueError, match=r"attacked must lie in \[0, 30\]"):
            surface_aggregates(30, -1, (15,))

    def test_full_attack_decorrelates_aggregates(self):
        up, down = surface_aggregates(30, 30, (16,), trials=100_000)
        rho = np.mean(up * np.conj(down)) / (
            np.sqrt(np.mean(np.abs(up) ** 2)) * np.sqrt(np.mean(np.abs(down) ** 2))
        )
        assert abs(rho) < 0.02

    def test_aggregate_mean_vanishes_over_rerandomization(self):
        for aggregates in surface_aggregates(1, 1, (18,), trials=100_000):
            assert abs(np.mean(aggregates)) < 0.02


class TestMoments:
    """Moments of the aggregate pair that the cell-level closed forms need.

    Phi = sum of N i.i.d. uniform unit phasors has E|Phi|^2 = N and
    E|Phi|^4 = 2N^2 - N; the N - k units the attacker leaves alone are all
    that Phi1 and Phi2 share, so E[Phi2 * conj(Phi1)] = N - k, and E[Phi]
    = 0.  Over 100,000 trials the standard errors are about 0.3 % of
    E|Phi|^2, 0.7 % of E|Phi|^4, 0.003 N for the cross moment and at most
    0.001 N for the mean; every tolerance below is about six standard
    errors.
    """

    TRIALS = 100_000

    @pytest.mark.parametrize("n_units, attacked", [(30, 5), (30, 20), (10, 5)])
    def test_moments(self, n_units, attacked):
        phi_first, phi_second = surface_aggregates(n_units, attacked, (30, n_units, attacked), self.TRIALS)
        cross = np.mean(phi_second * np.conj(phi_first))
        assert abs(cross - (n_units - attacked)) < 0.02 * n_units
        for phi in (phi_first, phi_second):
            power = np.abs(phi) ** 2
            assert abs(np.mean(phi)) < 0.006 * n_units
            assert np.mean(power) == pytest.approx(n_units, rel=0.02)
            assert np.mean(power ** 2) == pytest.approx(2 * n_units ** 2 - n_units, rel=0.04)
