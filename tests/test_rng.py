import numpy as np
import pytest

from lockeysim._rng import _cartesian_normal, _complex_normal, _phasors, as_rng

EPS = np.finfo(float).eps

#: Key components around the 32-bit word boundaries SeedSequence splits at.
COMPONENTS = (0, 1, 2**32 - 1, 2**32, 2**40 + 7, 2**64 + 5, 2**100 + 3)

KEYS = [c for c in COMPONENTS] + [(c,) for c in COMPONENTS] + [COMPONENTS, (7, 2**64 + 5, 0, 3), ()]


@pytest.mark.parametrize("key", KEYS)
def test_as_rng_is_default_rng_of_the_key(key):
    # the word-array seeding hashes to numpy's own pool for the key
    ours = as_rng(key)
    numpy_own = np.random.default_rng(np.random.SeedSequence(key))
    np.testing.assert_array_equal(ours.bit_generator.seed_seq.pool, numpy_own.bit_generator.seed_seq.pool)
    np.testing.assert_array_equal(ours.random(8), numpy_own.random(8))
    np.testing.assert_array_equal(ours.standard_normal(8), numpy_own.standard_normal(8))


@pytest.mark.parametrize("key", [-1, (3, -1), (2**64 + 5, -(2**40))])
def test_negative_component_raises_value_error(key):
    with pytest.raises(ValueError, match="non-negative"):
        as_rng(key)


@pytest.mark.parametrize("stream", [np.random.default_rng(0), 1.5, "7"])
def test_non_key_stream_raises_type_error(stream):
    with pytest.raises(TypeError):
        as_rng(stream)


class TestPhasors:
    """The tangent-phasor kernel behind every unit phasor and polar Gaussian."""

    def test_matches_complex_exponential(self):
        edges = [0.0, np.nextafter(np.pi, 0.0), np.pi, np.nextafter(2.0 * np.pi, 0.0)]
        phases = np.concatenate([np.random.default_rng(40).uniform(0.0, 2.0 * np.pi, 1_000_000), edges])
        phasors = _phasors(np.tan(phases * 0.5), np.empty(phases.shape, dtype=complex), 2.0)
        assert phasors.dtype == complex and phasors.shape == phases.shape
        assert np.max(np.abs(phasors - np.exp(1j * phases))) <= 4 * EPS
        assert np.max(np.abs(np.abs(phasors) - 1.0)) <= 4 * EPS
        assert phasors[-4] == 1.0 and phasors[-2].real == -1.0

    def test_writes_into_out(self):
        # a polar draw written into `out` is its amplitude times the phasor of its phase
        out = np.full(100_000, np.nan, dtype=complex)
        assert _complex_normal(np.random.default_rng(41), 2.5, 100_000, out=out) is out
        rng = np.random.default_rng(41)
        phases, amplitudes = 2.0 * np.pi * rng.random(100_000), np.sqrt(2.5 * rng.standard_exponential(100_000))
        assert np.max(np.abs(out - amplitudes * np.exp(1j * phases)) / amplitudes) <= 4 * EPS


class TestDrawsBitForBit:
    """Each draw gives exactly the values of the arithmetic it replaced."""

    @pytest.mark.parametrize("var", [0.5, 1.0, 4.0])
    def test_complex_normal(self, var):
        rng = np.random.default_rng(217)
        t = rng.random(1_000)
        np.tan(np.multiply(t, np.pi, out=t), out=t)
        r = rng.standard_exponential(1_000)
        np.sqrt(np.multiply(r, 4.0 * var, out=r), out=r)
        z = np.empty(1_000, dtype=complex)
        np.multiply(t, t, out=z.real)
        z.real += 1.0
        np.divide(r, z.real, out=z.real)
        np.multiply(t, z.real, out=z.imag)
        r *= 0.5
        z.real -= r
        assert np.array_equal(_complex_normal(np.random.default_rng(217), var, 1_000), z)

    @pytest.mark.parametrize("std", [0.3, np.array([1.0, 0.5, 0.25, 0.125, 0.0625])], ids=["scalar", "broadcast"])
    def test_cartesian_normal(self, std):
        expected = np.random.default_rng(219).standard_normal((4, 5, 2)).view(complex)[..., 0] * std
        drawn = _cartesian_normal(np.random.default_rng(219), (4, 5), std)
        assert drawn.shape == (4, 5) and np.array_equal(drawn, expected)
