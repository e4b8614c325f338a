import numpy as np
import pytest

from lockeysim._rng import as_rng

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
