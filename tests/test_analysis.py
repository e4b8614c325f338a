import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lockeysim import analysis
from lockeysim.analysis import (
    ModelStats,
    correlation,
    empirical_mse,
    gamma_analytic,
    mse_prediction,
    rho1_analytic,
    rho2_analytic,
    sample_first_round_pairs,
    sample_loopback_pairs,
)
from lockeysim.protocol import estimate_gamma


def cgauss(rng, n, var=1.0):
    return math.sqrt(var / 2.0) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


class TestModelStats:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ModelStats(-1.0, 1.0, 0.0, 0.0, 1.0, 1.0)

    @pytest.mark.parametrize("field", ["a", "b"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_mean(self, field, value):
        values = dict(g_a=0.5, g_b=0.5, a=0.2, b=0.2, var_arb=1.0, var_ab=1.0)
        values[field] = value
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            ModelStats(**values)

    def test_negative_mean_accepted(self):
        assert ModelStats(0.5, 0.5, -0.3, -0.2, 1.0, 1.0).a == -0.3

    def test_fourth_moments_are_squared_variances(self):
        stats = ModelStats(1.0, 1.0, 0.0, 0.0, 2.0, 3.0)
        assert stats.s4_arb == 4.0
        assert stats.s4_ab == 9.0


class TestCorrelation:
    def test_identical_zero_mean(self):
        rng = np.random.default_rng(0)
        x = cgauss(rng, 10_000)
        x -= np.mean(x)  # exactly zero-mean: the uncentered denominator matches
        assert correlation(x, x) == pytest.approx(1.0)

    def test_independent_samples(self):
        rng = np.random.default_rng(1)
        x, y = cgauss(rng, 100_000), cgauss(rng, 100_000)
        assert abs(correlation(x, y)) < 0.02

    def test_moment_ratio_oracle(self):
        # y = 2x + w with known variances: rho = 2 / (1 * sqrt(4 + var_w))
        rng = np.random.default_rng(2)
        x = cgauss(rng, 200_000)
        w = cgauss(rng, 200_000, var=1.0)
        y = 2.0 * x + w
        expected = 2.0 / math.sqrt(5.0)
        assert correlation(x, y).real == pytest.approx(expected, abs=0.01)

    def test_common_phase_rotation_invariance(self):
        rng = np.random.default_rng(3)
        x, y = cgauss(rng, 5_000), cgauss(rng, 5_000)
        rotated = correlation(x * np.exp(0.7j), y * np.exp(0.7j))
        assert rotated == pytest.approx(correlation(x, y))

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            correlation(np.zeros(4), np.zeros(4))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            correlation(np.ones(3), np.ones(4))

    def test_rejects_equal_sizes_of_different_shapes(self):
        # a transposed block would pair samples by flattened position
        a = np.arange(50 * 13, dtype=float).reshape(50, 13)
        with pytest.raises(ValueError, match=r"differ in shape: \(50, 13\) vs \(13, 50\)"):
            correlation(a, a.T)


class TestRho1:
    def test_direct_evaluation_point5(self):
        stats = ModelStats(1.0, 1.0, 0.3, 0.7, 0.0, 1.0)
        assert rho1_analytic(stats) == pytest.approx(0.5)

    def test_large_direct_variance_limit_reaches_g(self):
        # with equal means and filter powers the value tends to g, showing
        # the formula is not clamped to [0, 1]
        g = 1.7
        stats = ModelStats(g, g, 0.5, 0.5, 1.0, 1e9)
        assert rho1_analytic(stats) == pytest.approx(g, rel=1e-5)

    def test_monte_carlo_oracle_three_regimes(self):
        regimes = [
            ModelStats(1.0, 1.0, 0.0, 0.0, 2.0, 1.0),
            ModelStats(0.8, 0.9, 0.6, 0.4, 1.5, 1.0),
            ModelStats(1.0, 1.0, 0.8, 0.8, 2.0, 1.0),
        ]
        for i, stats in enumerate(regimes):
            predicted = rho1_analytic(stats)
            assert 0.0 <= predicted <= 1.0
            x, y = sample_first_round_pairs(stats, 100_000, (200, i))
            assert correlation(x, y).real == pytest.approx(predicted, abs=0.02)


class TestRho2:
    def test_direct_evaluation_one(self):
        stats = ModelStats(1.0, 1.0, 0.4, 0.9, 0.0, 1.0)
        assert rho2_analytic(stats) == pytest.approx(1.0)

    def test_direct_evaluation_unclamped(self):
        # formula value above 1 for strong filters; reported as-is
        stats = ModelStats(2.0, 3.0, 0.5, 0.5, 1.0, 1.0)
        expected = (6.0 * (0.0625 + 1.0) + 1.0) / (math.sqrt(3.5) * math.sqrt(4.75))
        assert rho2_analytic(stats) == pytest.approx(expected)
        assert rho2_analytic(stats) == pytest.approx(1.809, abs=5e-4)

    def test_monte_carlo_oracle(self):
        stats = ModelStats(0.9, 0.9, 0.5, 0.5, 1.2, 0.9)
        predicted = rho2_analytic(stats)
        assert predicted <= 1.0
        x, y = sample_loopback_pairs(stats, 100_000, (201,))
        assert correlation(x, y).real == pytest.approx(predicted, abs=0.03)


class TestMsePrediction:
    def test_zero_predictor(self):
        stats = ModelStats(1.5, 2.0, 0.5, 0.25, 1.2, 0.7)
        expected = 2.0 * (0.0625 * stats.s4_arb + stats.s4_ab) + 1.0
        assert mse_prediction(0.0, stats) == pytest.approx(expected)

    def test_optimum_beats_neighbours(self):
        stats = ModelStats(2.0, 3.0, 0.5, 0.5, 1.0, 1.0)
        g = gamma_analytic(stats)
        at_opt = mse_prediction(g, stats)
        assert at_opt < mse_prediction(0.9 * g, stats)
        assert at_opt < mse_prediction(1.1 * g, stats)

    def test_finite_difference_derivative_zero_at_optimum(self):
        stats = ModelStats(2.0, 3.0, 0.5, 0.5, 1.0, 1.0)
        g = gamma_analytic(stats)
        h = 1e-6 * max(g, 1.0)
        derivative = (mse_prediction(g + h, stats) - mse_prediction(g - h, stats)) / (2 * h)
        scale = abs(mse_prediction(g, stats)) + abs(g)
        assert abs(derivative) / scale < 1e-6

    def test_strict_convexity(self):
        stats = ModelStats(1.0, 1.0, 0.3, 0.6, 1.0, 2.0)
        g = gamma_analytic(stats)
        for other in np.linspace(0.0, 3.0 * g, 17):
            if other != pytest.approx(g):
                assert mse_prediction(other, stats) > mse_prediction(g, stats)


class TestGammaAnalytic:
    def test_no_cascade_equal_filters_is_one(self):
        for s4 in (0.3, 1.0, 7.0):
            stats = ModelStats(1.0, 1.0, 0.9, 0.1, 0.0, math.sqrt(s4))
            assert gamma_analytic(stats) == pytest.approx(1.0)

    def test_direct_evaluation(self):
        stats = ModelStats(2.0, 3.0, 0.5, 0.5, 1.0, 1.0)
        assert gamma_analytic(stats) == pytest.approx(7.375 / 3.5)
        assert gamma_analytic(stats) == pytest.approx(2.1071, abs=5e-5)

    def test_grid_argmin_oracle(self):
        stats = ModelStats(1.3, 0.7, 0.4, 0.6, 1.1, 0.8)
        g = gamma_analytic(stats)
        grid = np.arange(0.0, 3.0 * g, 1e-3)
        values = [mse_prediction(x, stats) for x in grid]
        assert grid[int(np.argmin(values))] == pytest.approx(g, abs=1e-3)


class TestEmpiricalMse:
    def test_identical_pairs(self):
        x = np.ones(10, dtype=complex)
        assert empirical_mse(x, x).mse == 0.0

    def test_constant_offset(self):
        x = np.zeros(10, dtype=complex)
        result = empirical_mse(x + (1 + 2j), x)
        assert result.mse == pytest.approx(5.0)

    def test_matches_closed_form_at_optimum(self):
        stats = ModelStats(0.9, 0.9, 0.5, 0.5, 1.2, 0.9)
        g = gamma_analytic(stats)
        x, y = sample_loopback_pairs(stats, 100_000, (202,))
        measured = empirical_mse(g * x, y).mse
        assert measured == pytest.approx(mse_prediction(g, stats), rel=0.03)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            empirical_mse(np.array([]), np.array([]))

    def test_rejects_equal_sizes_of_different_shapes(self):
        a = np.arange(50 * 13, dtype=float).reshape(50, 13)
        with pytest.raises(ValueError, match=r"differ in shape: \(50, 13\) vs \(13, 50\)"):
            empirical_mse(a, a.T)


def two_pass_correlation(xs, ys):
    """The correlation as formed from full-length temporaries, for reference."""
    xs, ys = np.ravel(xs), np.ravel(ys)
    denom = math.sqrt(np.mean(np.abs(xs) ** 2)) * math.sqrt(np.mean(np.abs(ys) ** 2))
    return (np.mean(xs * np.conj(ys)) - np.mean(xs) * np.conj(np.mean(ys))) / denom


def two_pass_gamma(h_a, h_b):
    return np.sum(h_b * np.conj(h_a), axis=0) / np.sum(np.abs(h_a) ** 2, axis=0)


class TestOnePassMoments:
    """`correlation`, `empirical_mse` and `estimate_gamma` sum in one pass
    without full-length temporaries; only the summation order differs from
    the two-pass formulas, which bounds the gap far below 1e-12 relative."""

    @staticmethod
    def pair(shape, seed):
        rng = np.random.default_rng(seed)
        x = cgauss(rng, int(np.prod(shape))).reshape(shape) + (0.3 - 0.2j)
        return x, 1.3 * x + 0.8 * cgauss(rng, x.size).reshape(shape)

    @pytest.fixture(scope="class")
    def samples(self):
        """1 M contiguous samples, 500 k strided ones, and (200, 13) histories."""
        x, y = self.pair(1_000_000, 50)
        return {"contiguous": (x, y), "strided": (x[::2], y[1::2]), "history": self.pair((200, 13), 51)}

    @pytest.mark.parametrize("case", ["contiguous", "strided", "history"])
    def test_correlation_and_error_power(self, samples, case):
        x, y = samples[case]
        want = two_pass_correlation(x, y)
        assert abs(correlation(x, y) - want) <= 1e-12 * abs(want)
        want = np.mean(np.abs(x - y) ** 2)
        assert empirical_mse(x, y).mse == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("case", ["contiguous", "strided", "history"])
    def test_gamma(self, samples, case):
        h_a, h_b = samples[case]
        if h_a.ndim == 1:  # one subcarrier, as the gamma oracle passes it
            h_a, h_b = h_a[:, None], h_b[:, None]
        got = estimate_gamma(h_a, h_b)
        np.testing.assert_allclose(got, two_pass_gamma(h_a, h_b), rtol=1e-12, atol=0)

    def test_strided_history(self):
        h_a, h_b = self.pair((200, 26), 52)
        np.testing.assert_allclose(estimate_gamma(h_a[:, ::2], h_b[:, 1::2]),
                                   two_pass_gamma(h_a[:, ::2], h_b[:, 1::2]), rtol=1e-12, atol=0)

    def test_errors_are_unchanged(self):
        ones = np.ones(8, dtype=complex)
        with pytest.raises(ValueError, match="sample sets differ in length: 4 vs 3"):
            correlation(ones[::2], ones[:3])
        with pytest.raises(ValueError, match="need at least 2 samples"):
            correlation(ones[:1], ones[:1])
        with pytest.raises(analysis.DegenerateSampleError, match="zero second moment"):
            correlation(np.zeros(8)[::2], ones[::2])
        with pytest.raises(ValueError, match="sample counts differ"):
            empirical_mse(ones[::2], ones)
        with pytest.raises(ValueError, match="empty sample set"):
            empirical_mse(ones[:0], ones[:0])
        with pytest.raises(ValueError, match="differ in shape"):
            estimate_gamma(np.ones((4, 2)), np.ones((4, 3)), min_rounds=1)
        with pytest.raises(ValueError, match="shorter than the minimum 5"):
            estimate_gamma(np.ones((4, 2)), np.ones((4, 2)), min_rounds=5)
        history = np.ones((4, 6), dtype=complex)
        history[:, 2] = 0.0
        with pytest.raises(analysis.DegenerateSampleError, match="all-zero reference"):
            estimate_gamma(history[:, ::2], history[:, 1::2], min_rounds=1)


class TestMomentSums:
    """`analysis._moment_sums` against plain numpy sums, on both sides of
    each block boundary, for strided inputs and 2-D histories."""

    B = analysis._SUM_BLOCK
    TERMS = "xx yy xy x y dd"

    @staticmethod
    def reference(x, y):
        return [np.sum(np.abs(x) ** 2, axis=0), np.sum(np.abs(y) ** 2, axis=0),
                np.sum(x * np.conj(y), axis=0), np.sum(x, axis=0), np.sum(y, axis=0),
                np.sum(np.abs(x - y) ** 2, axis=0)]

    @staticmethod
    def inputs(n, layout, seed=60):
        """A correlated pair with a mean, so no sum is a cancellation."""
        shape = {"contiguous": (n,), "strided": (2 * n,), "history": (n, 13)}[layout]
        x, y = TestOnePassMoments.pair(shape, seed)
        return (x[::2], y[1::2]) if layout == "strided" else (x, y)

    @pytest.mark.parametrize("layout", ["contiguous", "strided", "history"])
    @pytest.mark.parametrize("n", [2, B - 1, B, B + 1, 3 * B + 7])
    def test_matches_numpy(self, n, layout):
        x, y = self.inputs(n, layout)
        for got, want in zip(analysis._moment_sums(x, y, self.TERMS), self.reference(x, y)):
            assert np.shape(got) == np.shape(want)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_strided_history(self):
        x, y = TestOnePassMoments.pair((3 * self.B + 7, 26), 61)
        x, y = x[:, ::2], y[:, 1::2]
        for got, want in zip(analysis._moment_sums(x, y, self.TERMS), self.reference(x, y)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_terms_in_the_order_asked(self):
        x, y = self.inputs(100, "contiguous")
        _, _, _, sx, _, dd = analysis._moment_sums(x, y, self.TERMS)
        assert analysis._moment_sums(x, y, "dd x") == [dd, sx]

    @pytest.mark.parametrize("layout", ["contiguous", "history"])
    @pytest.mark.parametrize("n", [B - 1, 3 * B + 7])
    def test_same_bits_at_any_offset(self, n, layout):
        # the sums must not depend on where an array starts in memory, or a
        # sweep's rows could change with the heap layout of its worker count
        x, y = self.inputs(n, layout)
        sums = []
        for offset in range(4):
            buf_x = np.empty((n + 4, *x.shape[1:]), dtype=complex)
            buf_y = np.empty_like(buf_x)
            buf_x[offset:offset + n], buf_y[3 - offset:3 - offset + n] = x, y
            sums.append([np.asarray(s).tobytes() for s in
                         analysis._moment_sums(buf_x[offset:offset + n], buf_y[3 - offset:3 - offset + n],
                                               self.TERMS)])
        assert all(other == sums[0] for other in sums[1:])


def traced_peak(fn, *args, **kwargs):
    """``(result, bytes)``: what `fn` returns and the peak of the memory
    tracemalloc saw it allocate, above what was allocated before the call."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak - before


class TestTracedMemory:
    """Memory the samplers and reductions allocate, on one worker thread.

    A sampler block holds one complex scratch, the two float buffers of a
    Gaussian draw and, below full coupling, the filter phasors: three
    complex arrays of `SAMPLE_BLOCK` samples.  The bound adds 64 KiB for the
    Generators and the small objects.  A reduction holds one block-sized
    scratch, whatever the input length."""

    N = 1_000_000

    @pytest.fixture(autouse=True)
    def one_worker(self, monkeypatch):
        monkeypatch.setattr(analysis, "_cpu_count", lambda: 1)

    @pytest.mark.parametrize("sampler, stats, kwargs", [
        (sample_first_round_pairs, ModelStats(0.8, 0.9, 0.6, 0.4, 1.5, 1.0), {}),
        (sample_loopback_pairs, ModelStats(0.9, 0.8, 0.6, 0.4, 1.2, 0.9), {}),
        (sample_loopback_pairs, ModelStats(2.0, 3.0, 0.5, 0.5, 1.0, 1.0), {"match_second_moment": False}),
    ])
    def test_sampler_holds_three_blocks_above_its_outputs(self, sampler, stats, kwargs):
        (x, y), peak = traced_peak(sampler, stats, 4 * analysis.SAMPLE_BLOCK + 7, (230,), **kwargs)
        assert peak - x.nbytes - y.nbytes <= 3 * 16 * analysis.SAMPLE_BLOCK + 64 * 1024

    @pytest.fixture(scope="class")
    def samples(self):
        return TestOnePassMoments.pair(self.N, 62)

    @pytest.mark.parametrize("reduction", [
        correlation, empirical_mse, lambda x, y: estimate_gamma(x[:, None], y[:, None], min_rounds=1),
    ], ids=["correlation", "empirical_mse", "estimate_gamma"])
    def test_reduction_peaks_under_one_megabyte(self, samples, reduction):
        _, peak = traced_peak(reduction, *samples)
        assert peak < 2 ** 20


class TestComplexNormal:
    """The polar draw behind every sampler Gaussian has the law of a circular
    complex Gaussian: an Exp(1) power times `var`, and a uniform phase
    independent of it.  Each bound is at least 6 standard errors."""

    M = 200_000

    @pytest.mark.parametrize("var", [0.5, 1.0, 4.0])
    def test_law(self, var):
        m = self.M
        z = analysis._complex_normal(np.random.default_rng(215), var, m)
        assert z.dtype == complex and z.shape == (m,)
        power = np.abs(z) ** 2 / var
        assert abs(np.mean(power) - 1.0) < 6.0 / math.sqrt(m)
        assert abs(np.mean(z * z)) / var < 6.0 / math.sqrt(m)
        assert abs(np.mean(power ** 2) - 2.0) < 6.0 * math.sqrt(20.0 / m)
        deciles = np.arange(1, 10) / 10.0
        q = -np.log1p(-deciles)  # the Exp(1) quantiles
        cdf = np.searchsorted(np.sort(power), q, side="right") / m
        assert np.max(np.abs(cdf - deciles)) < 3.0 / math.sqrt(m)
        phase = z / np.abs(z)
        assert abs(np.mean(phase)) < 6.0 / math.sqrt(m)
        assert abs(np.mean(phase * phase)) < 6.0 / math.sqrt(m)

    def test_out_equals_allocating_draw(self):
        out = np.empty(1_000, dtype=complex)
        drawn = analysis._complex_normal(np.random.default_rng(216), 2.5, 1_000, out=out)
        assert drawn is out
        assert np.array_equal(out, analysis._complex_normal(np.random.default_rng(216), 2.5, 1_000))


class TestSamplers:
    def test_first_round_moments(self):
        stats = ModelStats(0.8, 0.9, 0.6, 0.4, 1.5, 1.0)
        x, y = sample_first_round_pairs(stats, 200_000, (203,))
        assert np.mean(np.abs(x) ** 2) == pytest.approx(
            stats.g_a * (0.36 * 1.5 + 1.0) + 1.0, rel=0.02)
        assert np.mean(np.abs(y) ** 2) == pytest.approx(
            stats.g_b * (0.16 * 1.5 + 1.0) + 1.0, rel=0.02)
        cross = np.mean(x * np.conj(y))
        assert cross.real == pytest.approx(
            stats.g_a * stats.g_b * (0.24 * 1.5 + 1.0), rel=0.03)
        assert abs(cross.imag) < 0.05

    def test_first_round_rejects_unrealizable_filters(self):
        with pytest.raises(ValueError):
            sample_first_round_pairs(ModelStats(2.0, 3.0, 0.5, 0.5, 1.0, 1.0), 100, (204,))

    def test_loopback_cross_moment_without_power_matching(self):
        # deterministic-gain variant realizes the two moments the prediction
        # scalar depends on, for any filter powers
        stats = ModelStats(2.0, 3.0, 0.5, 0.5, 1.0, 1.0)
        x, y = sample_loopback_pairs(stats, 300_000, (205,), match_second_moment=False)
        num = stats.g_a * stats.g_b * (0.0625 + 1.0) + 1.0
        den = stats.g_a * (0.25 + 1.0) + 1.0
        assert np.mean(y * np.conj(x)).real == pytest.approx(num, rel=0.03)
        assert np.mean(np.abs(x) ** 2) == pytest.approx(den, rel=0.02)

    def test_loopback_rejects_unrealizable_mean_correlation(self):
        with pytest.raises(ValueError):
            sample_loopback_pairs(ModelStats(1.0, 1.0, 2.0, 0.9, 1.0, 1.0), 100, (206,))

    # filter coupling sqrt(g_a*g_b) below 1, and at 1 with equal and unequal powers
    COUPLINGS = [ModelStats(0.8, 0.9, 0.6, 0.4, 1.5, 1.0), ModelStats(1.0, 1.0, 0.8, 0.8, 2.0, 1.0),
                 ModelStats(0.5, 2.0, 0.6, 0.4, 1.5, 1.0)]

    @staticmethod
    def _check_moments(x, y, power_x, power_y, cross):
        n = len(x)
        assert np.mean(np.abs(x) ** 2) == pytest.approx(power_x, rel=0.02)
        assert np.mean(np.abs(y) ** 2) == pytest.approx(power_y, rel=0.02)
        assert np.mean(x * np.conj(y)) == pytest.approx(cross, rel=0.03, abs=0.03)
        # circular pair: the pseudo-moments vanish to within a few standard errors
        for pseudo, scale in ((x * y, power_x * power_y), (x * x, power_x ** 2), (y * y, power_y ** 2)):
            assert abs(np.mean(pseudo)) < 6.0 * math.sqrt(scale / n)

    @pytest.mark.parametrize("stats", COUPLINGS)
    def test_first_round_second_moments_and_circularity(self, stats):
        x, y = sample_first_round_pairs(stats, 200_000, (207,))
        a, b = stats.a, stats.b
        self._check_moments(x, y,
                            stats.g_a * (a * a * stats.var_arb + stats.var_ab) + 1.0,
                            stats.g_b * (b * b * stats.var_arb + stats.var_ab) + 1.0,
                            stats.g_a * stats.g_b * (a * b * stats.var_arb + stats.var_ab))

    @pytest.mark.parametrize("stats", COUPLINGS)
    def test_loopback_second_moments_and_circularity(self, stats):
        x, y = sample_loopback_pairs(stats, 200_000, (208,))
        a, b, s4c, s4d = stats.a, stats.b, stats.var_arb ** 2, stats.var_ab ** 2
        self._check_moments(x, y,
                            stats.g_a * (a * a * s4c + s4d) + 1.0,
                            stats.g_b * (b * b * s4c + s4d) + 1.0,
                            stats.g_a * stats.g_b * (a * a * b * b * s4c + s4d) + 1.0)

    @pytest.mark.parametrize("stats, match, per_block", [
        (COUPLINGS[0], True, 1), (COUPLINGS[1], True, 0), (COUPLINGS[2], True, 0),
        (COUPLINGS[0], False, 0), (ModelStats(2.0, 3.0, 0.5, 0.5, 1.0, 1.0), False, 0),
    ])
    def test_one_filter_phasor_per_sample_below_full_coupling(self, monkeypatch, stats, match, per_block):
        calls = []
        unit_phasors = analysis._unit_phasors

        def counted(rng, m):
            calls.append(m)
            return unit_phasors(rng, m)

        monkeypatch.setattr(analysis, "_unit_phasors", counted)
        n = 3 * analysis.SAMPLE_BLOCK + 7
        sample_loopback_pairs(stats, n, (209,), match_second_moment=match)
        assert sum(calls) == per_block * n and len(calls) == per_block * 4
        if match:
            calls.clear()
            sample_first_round_pairs(stats, n, (210,))
            assert sum(calls) == per_block * n and len(calls) == per_block * 4


class TestBlockSampler:
    B = analysis.SAMPLE_BLOCK
    FEASIBLE = ModelStats(0.9, 0.8, 0.6, 0.4, 1.2, 0.9)
    STRONG = ModelStats(2.0, 3.0, 0.5, 0.5, 1.0, 1.0)

    def _draw_all(self, n, key):
        return (*sample_first_round_pairs(self.FEASIBLE, n, (key, 0)),
                *sample_loopback_pairs(self.FEASIBLE, n, (key, 1)),
                *sample_loopback_pairs(self.STRONG, n, (key, 2), match_second_moment=False))

    @pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 3 * B + 7])
    @settings(max_examples=3, deadline=None)
    @given(key=st.integers(0, 2 ** 32 - 1))
    def test_values_do_not_depend_on_pool_size(self, n, key):
        draws = []
        for workers in (1, 2, 3):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(analysis, "_cpu_count", lambda: workers)
                draws.append(self._draw_all(n, key))
        assert all(a.shape == (n,) for a in draws[0])
        for other in draws[1:]:
            assert all(np.array_equal(a, b) for a, b in zip(draws[0], other))

    @pytest.mark.parametrize("cpus, n, tasks", [(2, 3 * B + 7, 2), (3, B + 1, 2), (2, 1, 1), (2, 0, 1)])
    def test_one_pool_task_per_thread(self, monkeypatch, cpus, n, tasks):
        # a task per block would put a pool future per block on the heap
        # while the outputs are live; one per thread keeps that fixed
        calls, run_indexed = [], analysis.run_indexed
        monkeypatch.setattr(analysis, "run_indexed",
                            lambda fn, count, workers: calls.append((count, workers)) or run_indexed(fn, count, workers))
        monkeypatch.setattr(analysis, "_cpu_count", lambda: cpus)
        self._draw_all(n, 12)
        assert calls == [(tasks, tasks)] * 3

    def test_generators_built_on_the_main_thread(self, monkeypatch):
        built, fill_threads = [], set()
        as_rng, complex_normal = analysis.as_rng, analysis._complex_normal

        def main_thread_as_rng(stream):
            assert threading.current_thread() is threading.main_thread()
            built.append(stream)
            return as_rng(stream)

        def recorded_complex_normal(*args):
            fill_threads.add(threading.current_thread())
            return complex_normal(*args)

        monkeypatch.setattr(analysis, "as_rng", main_thread_as_rng)
        monkeypatch.setattr(analysis, "_complex_normal", recorded_complex_normal)
        monkeypatch.setattr(analysis, "_cpu_count", lambda: 2)
        self._draw_all(3 * self.B + 7, 11)
        assert len(built) == 3 * 4
        assert fill_threads and threading.main_thread() not in fill_threads

    def test_unrealizable_stats_rejected_before_any_draw(self, monkeypatch):
        built = []
        monkeypatch.setattr(analysis, "as_rng", built.append)
        with pytest.raises(ValueError):
            sample_first_round_pairs(self.STRONG, 100, (12,))
        with pytest.raises(ValueError):
            sample_loopback_pairs(ModelStats(1.0, 1.0, 2.0, 0.9, 1.0, 1.0), 100, (13,))
        assert built == []

    @pytest.mark.parametrize("sampler", [sample_first_round_pairs, sample_loopback_pairs])
    def test_negative_count_rejected(self, sampler):
        with pytest.raises(ValueError):
            sampler(self.FEASIBLE, -1, (14,))

    def test_generator_stream_rejected(self):
        with pytest.raises(TypeError):
            sample_first_round_pairs(self.FEASIBLE, 10, np.random.default_rng(0))
