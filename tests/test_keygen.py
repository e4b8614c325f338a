import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lockeysim import keygen
from lockeysim.analysis import DegenerateSampleError
from lockeysim.keygen import (
    GRAY2_CODES,
    compute_thresholds,
    csk,
    quantize_gray2,
)


@st.composite
def _magnitude_blocks(draw):
    """A (n, ...) float block, 1-D to 3-D, each column plain, tied, holding
    zeros, holding infinities or holding NaN."""
    n = draw(st.integers(4, 2000))
    tail = draw(st.lists(st.integers(1, 4), max_size=2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.rayleigh(size=(n, *tail))
    columns = values.reshape(n, -1)
    for j in range(columns.shape[1]):
        kind = draw(st.sampled_from(("plain", "plain", "ties", "zeros", "inf", "nan")))
        hits = rng.random(n) < draw(st.floats(0.0, 0.5))
        if kind == "ties":
            columns[:, j] = rng.choice([0.0, 0.5, 1.0, 2.0, 3.0], size=n)
        elif kind == "zeros":
            columns[hits, j] = 0.0
        elif kind == "inf":
            columns[hits, j] = rng.choice([-np.inf, np.inf], size=np.count_nonzero(hits))
        elif kind == "nan":
            columns[hits, j] = np.nan
    return values


class TestThresholds:
    def test_percentile_oracle(self):
        np.testing.assert_allclose(
            compute_thresholds([1.0, 2.0, 3.0, 4.0]), [1.75, 2.5, 3.25]
        )

    def test_rejects_constant_block(self):
        with pytest.raises(ValueError, match="degenerate"):
            compute_thresholds(np.ones(100))

    def test_block_columns_match_column_loop(self):
        # a (trials, subcarriers) block quantizes each column on its own,
        # bit-identical to quantizing the columns one at a time
        rng = np.random.default_rng(6)
        for trials in (4, 5, 50, 1000):
            block = rng.rayleigh(size=(trials, 13)) * rng.uniform(0.1, 10.0, size=13)
            thresholds = compute_thresholds(block)
            assert thresholds.shape == (3, 13)
            bits = quantize_gray2(block, thresholds).reshape(trials, 13, 2)
            for j in range(13):
                column = block[:, j]
                np.testing.assert_array_equal(thresholds[:, j], compute_thresholds(column))
                expected = quantize_gray2(column, compute_thresholds(column))
                np.testing.assert_array_equal(bits[:, j, :].ravel(), expected)

    def test_stacked_blocks_match_block_loop(self):
        # a (trials, blocks, subcarriers) stack gives each block the
        # thresholds and the bits, bit for bit, of the block quantized alone
        rng = np.random.default_rng(8)
        for trials in (4, 5, 50, 1000):
            stack = rng.rayleigh(size=(trials, 5, 13)) * rng.uniform(0.1, 10.0, size=(5, 13))
            thresholds = compute_thresholds(stack)
            assert thresholds.shape == (3, 5, 13)
            bits = quantize_gray2(stack, thresholds).reshape(trials, 5, 26)
            for b in range(5):
                block = np.ascontiguousarray(stack[:, b])
                alone = compute_thresholds(block)
                np.testing.assert_array_equal(thresholds[:, b].view(np.uint64), alone.view(np.uint64))
                np.testing.assert_array_equal(bits[:, b].ravel(), quantize_gray2(block, alone))

    def test_rejects_block_with_one_constant_column(self):
        block = np.random.default_rng(7).rayleigh(size=(100, 4))
        block[:, 2] = 1.0
        with pytest.raises(ValueError, match="degenerate"):
            compute_thresholds(block)

    def test_rejects_tiny_block(self):
        with pytest.raises(ValueError):
            compute_thresholds([1.0, 2.0, 3.0])

    @settings(max_examples=40, deadline=None)
    @given(values=_magnitude_blocks())
    def test_bitwise_numpy_percentile(self, values):
        # inf - inf inside the interpolation warns; the values are compared
        with np.errstate(invalid="ignore"):
            expected = np.percentile(values, [25.0, 50.0, 75.0], axis=0)
            # the cut points themselves, NaN and inf columns included
            with mock.patch.object(keygen, "_increasing", lambda thresholds: True):
                got = compute_thresholds(values)
            assert got.shape == expected.shape
            nan = np.isnan(expected)
            np.testing.assert_array_equal(np.isnan(got), nan)
            np.testing.assert_array_equal(got[~nan].view(np.uint64), expected[~nan].view(np.uint64))
            # and the same block is accepted exactly where numpy's are distinct
            if np.all((expected[0] < expected[1]) & (expected[1] < expected[2])):
                np.testing.assert_array_equal(compute_thresholds(values).view(np.uint64), expected.view(np.uint64))
            else:
                with pytest.raises(DegenerateSampleError):
                    compute_thresholds(values)


class TestQuantize:
    def test_level_midpoints_map_to_gray_sequence(self):
        thresholds = np.array([1.0, 2.0, 3.0])
        values = np.array([0.5, 1.5, 2.5, 3.5])
        bits = quantize_gray2(values, thresholds)
        np.testing.assert_array_equal(bits, [0, 0, 0, 1, 1, 1, 1, 0])

    def test_gray_adjacency(self):
        for a, b in zip(GRAY2_CODES, GRAY2_CODES[1:]):
            assert sum(x != y for x, y in zip(a, b)) == 1

    def test_identical_inputs_identical_streams(self):
        rng = np.random.default_rng(0)
        values = rng.rayleigh(size=1000)
        thresholds = compute_thresholds(values)
        a = quantize_gray2(values, thresholds)
        b = quantize_gray2(values.copy(), thresholds)
        np.testing.assert_array_equal(a, b)
        assert csk(0.0, a, b).kdr == 0.0

    def test_quartile_balance(self):
        rng = np.random.default_rng(1)
        values = rng.uniform(size=100_000)
        symbols = quantize_gray2(values, compute_thresholds(values)).reshape(-1, 2)
        codes, counts = np.unique(symbols, axis=0, return_counts=True)
        assert len(codes) == 4
        np.testing.assert_allclose(counts / len(symbols), 0.25, atol=0.01)

    @settings(max_examples=30, deadline=None)
    @given(scale=st.floats(1e-3, 1e3), trials=st.integers(4, 300), columns=st.integers(1, 13),
           seed=st.integers(0, 2**32 - 1))
    def test_scale_invariance(self, scale, trials, columns, seed):
        # each party's own quartiles follow a common positive scaling of its
        # magnitudes, so the bits of every (trials, columns) block are kept
        values = np.random.default_rng(seed).rayleigh(size=(trials, columns))
        a = quantize_gray2(values, compute_thresholds(values))
        scaled = scale * values
        b = quantize_gray2(scaled, compute_thresholds(scaled))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("shape", [(50,), (50, 13), (50, 5, 13), (1000, 5, 13)])
    def test_matches_level_count_reference(self, shape):
        # the comparison form writes the bits of the documented table,
        # including for NaN values and values sitting exactly on a cut point
        values = np.random.default_rng(sum(shape)).rayleigh(size=shape)
        thresholds = compute_thresholds(values)
        flat = values.reshape(shape[0], -1)
        flat[:3] = thresholds.reshape(3, -1)
        flat[3:6] = np.nextafter(thresholds.reshape(3, -1), -np.inf)
        flat[6] = np.nan
        reference = np.asarray(GRAY2_CODES, dtype=np.uint8)[np.sum(values >= thresholds[:, None], axis=0)]
        bits = quantize_gray2(values, thresholds)
        assert bits.dtype == np.uint8
        np.testing.assert_array_equal(bits, reference.ravel())
        assert set(map(tuple, bits.reshape(-1, 2)[: 6 * flat.shape[1]])) == set(GRAY2_CODES)

    def test_rejects_bad_thresholds(self):
        with pytest.raises(ValueError):
            quantize_gray2(np.ones(4), np.array([1.0, 1.0, 2.0]))

    def test_bitstream_length_invariant(self):
        # two bits per value, flat, whatever the block's shape
        for values, thresholds in ((np.array([0.1, 0.9]), np.array([0.25, 0.5, 0.75])),
                                   (np.ones((5, 3)), np.tile([[0.5], [1.5], [2.5]], 3))):
            bits = quantize_gray2(values, thresholds)
            assert bits.shape == (2 * values.size,)
            assert bits.dtype == np.uint8


class TestKdr:
    """The disagreement ratio `csk` reports with the rates."""

    def test_identical(self):
        bits = np.array([0, 1, 1, 0], dtype=np.uint8)
        assert csk(0.5, bits, bits).kdr == 0.0

    def test_complementary(self):
        bits = np.array([0, 1, 1, 0], dtype=np.uint8)
        assert csk(0.5, bits, 1 - bits).kdr == 1.0

    def test_single_flip(self):
        a = np.zeros(128, dtype=np.uint8)
        b = a.copy()
        b[17] = 1
        assert csk(0.5, a, b).kdr == pytest.approx(1.0 / 128.0)

    def test_symmetric(self):
        rng = np.random.default_rng(3)
        a = rng.integers(0, 2, 998).astype(np.uint8)
        b = rng.integers(0, 2, 998).astype(np.uint8)
        assert csk(0.5, a, b).kdr == csk(0.5, b, a).kdr

    def test_rejects_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            csk(0.5, np.zeros(3, dtype=np.uint8), np.zeros(4, dtype=np.uint8))


class TestCsk:
    def test_independent_streams_baseline(self):
        # chance agreement: each of the 2 bits per subcarrier agrees with
        # probability 1/2, so the bit-rate metric sits near 1 bit/subcarrier
        rng = np.random.default_rng(4)
        n = 50_000
        a = rng.integers(0, 2, 2 * n).astype(np.uint8)
        b = rng.integers(0, 2, 2 * n).astype(np.uint8)
        metrics = csk(0.0, a, b)
        assert metrics.csk_information == 0.0
        assert metrics.csk_bit_rate == pytest.approx(1.0, abs=0.02)

    def test_information_estimate_at_rho_09(self):
        a = np.zeros(8, dtype=np.uint8)
        metrics = csk(0.9, a, a)
        assert metrics.csk_information == pytest.approx(-math.log2(0.19), abs=1e-12)
        assert metrics.csk_information == pytest.approx(2.3959, abs=1e-4)

    def test_perfect_agreement_two_bits_per_subcarrier(self):
        a = np.ones(128, dtype=np.uint8)
        metrics = csk(0.5, a, a)
        assert metrics.csk_bit_rate == pytest.approx(2.0)
        assert metrics.kdr == 0.0

    def test_correlation_at_one_is_capped_and_flagged(self):
        a = np.ones(8, dtype=np.uint8)
        metrics = csk(1.0, a, a)
        assert metrics.information_capped
        assert metrics.csk_information == 10.0

    def test_monotone_in_correlation(self):
        a = np.ones(8, dtype=np.uint8)
        rates = [csk(r, a, a).csk_information for r in np.linspace(0.0, 0.99, 25)]
        assert all(x <= y for x, y in zip(rates, rates[1:]))

    def test_rejects_odd_bit_count(self):
        # two bits per subcarrier use: an odd count is no whole number of uses
        with pytest.raises(ValueError, match="odd count 3"):
            csk(0.1, np.ones(3, dtype=np.uint8), np.ones(3, dtype=np.uint8))

    def test_rejects_mismatched_or_empty_streams(self):
        with pytest.raises(ValueError, match="length"):
            csk(0.1, np.ones(2, dtype=np.uint8), np.ones(4, dtype=np.uint8))
        with pytest.raises(ValueError, match="empty"):
            csk(0.1, np.ones(0, dtype=np.uint8), np.ones(0, dtype=np.uint8))

    @given(pairs=st.integers(1, 64).flatmap(lambda n: st.tuples(*(st.binary(min_size=n, max_size=n),) * 2)))
    def test_bit_rate_is_a_function_of_kdr(self, pairs):
        # two bits per subcarrier use: the agreeing bits per use are 2 * (1 - kdr)
        a, b = (np.unpackbits(np.frombuffer(bits, dtype=np.uint8)) for bits in pairs)
        metrics = csk(0.5, a, b)
        assert metrics.kdr == np.count_nonzero(a != b) / a.size
        assert metrics.csk_bit_rate == pytest.approx(2.0 * (1.0 - metrics.kdr), rel=1e-12, abs=1e-12)
