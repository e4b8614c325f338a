"""Closed-form performance predictions and their Monte-Carlo counterparts.

The Gaussian channel model behind the closed forms: sub-channels are
zero-mean circular complex Gaussians, the surface aggregates enter through
their statistical means ``a`` (uplink) and ``b`` (downlink), the two
direction filters enter through their mean squared magnitudes ``g_a`` and
``g_b`` with cross-moment ``g_a * g_b``, and the noise variance is pinned
at 1.  The formulas are implemented verbatim, including the uncentered
second-moment denominators of the correlation coefficients; the resulting
values can exceed 1 for some parameter sets and are never clamped, so the
samplers below refuse parameter sets whose moments no joint distribution
can realize.  The samplers draw no filter phase that the law of their
output does not depend on (see `_filters`).
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._rng import Stream, _complex_normal, _unit_phasors, as_rng, run_indexed, substream

#: Noise variance assumed by every closed form.
NOISE_VAR = 1.0


class DegenerateSampleError(ValueError):
    """A sample block no statistic can be formed from, such as one of zero
    power or with tied quartiles.

    It describes the drawn data, not the program: a sweep records it as a
    flagged row, where any other error propagates.
    """


@dataclass(frozen=True)
class ModelStats:
    """Statistical parameters feeding the closed-form predictions.

    g_a, g_b : mean squared magnitudes of the two direction filters
    a, b     : statistical means of the uplink / downlink surface aggregate
    var_arb  : variance of the cascaded link per subcarrier
    var_ab   : variance of the direct link per subcarrier

    The fourth-moment terms used by the loop-back formulas are the squares
    of the per-link variances, which is how the variance of a product of
    two independent zero-mean links comes out.
    """

    g_a: float
    g_b: float
    a: float
    b: float
    var_arb: float
    var_ab: float

    def __post_init__(self):
        for name in ("g_a", "g_b", "a", "b", "var_arb", "var_ab"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            if value < 0 and name not in ("a", "b"):
                raise ValueError(f"{name} must be >= 0, got {value}")

    @property
    def s4_arb(self) -> float:
        return self.var_arb ** 2

    @property
    def s4_ab(self) -> float:
        return self.var_ab ** 2

    @functools.cached_property
    def _quad_coeffs(self):
        """Coefficients (A, B, C) of the prediction error power A*g^2 - 2*C*g + B."""
        s4c, s4d = self.s4_arb, self.s4_ab
        a_term = self.g_a * (self.a ** 2 * s4c + s4d) + NOISE_VAR
        b_term = self.g_b * (self.b ** 2 * s4c + s4d) + NOISE_VAR
        c_term = self.g_a * self.g_b * (self.a ** 2 * self.b ** 2 * s4c + s4d) + NOISE_VAR
        return a_term, b_term, c_term


#: Rows per block of `_moment_sums`: two one-column blocks and the scratch
#: (768 KiB) stay in cache, and np.einsum's fixed cost (4 us a call) stays small.
_SUM_BLOCK = 16_384


def _power(a):
    """``sum(|a|**2)`` along the first axis, read through a float view of `a`."""
    f = a[..., None].view(float)
    return np.einsum("i...k,i...k->...", f, f)


_SUMS = {
    "xx": lambda x, y, s: _power(x),
    "yy": lambda x, y, s: _power(y),
    "xy": lambda x, y, s: np.einsum("i...->...", np.multiply(x, np.conjugate(y, out=s), out=s)),
    "x": lambda x, y, s: np.einsum("i...->...", x),
    "y": lambda x, y, s: np.einsum("i...->...", y),
    "dd": lambda x, y, s: _power(np.subtract(x, y, out=s)),
}


def _moment_sums(x: np.ndarray, y: np.ndarray, terms: str) -> list:
    """Sums along the first axis of two equal-shape complex arrays, any
    strides, one per name in `terms`: ``xx`` is ``sum(|x|**2)``, ``yy``
    ``sum(|y|**2)``, ``xy`` ``sum(x * conj(y))``, ``x`` and ``y`` the plain
    sums and ``dd`` ``sum(|x - y|**2)``.

    One pass on the calling thread in blocks of `_SUM_BLOCK` rows, each
    read while in cache; one block-sized scratch is the only temporary.
    np.einsum sums in an order set by the block length alone, not by the
    memory alignment (and calls no BLAS), so the sums are the same for any
    worker count."""
    sums = [_SUMS[name] for name in terms.split()]
    totals = [0.0] * len(sums)
    scratch = np.empty((min(len(x), _SUM_BLOCK), *x.shape[1:]), dtype=complex)
    for start in range(0, len(x), _SUM_BLOCK):
        xb, yb = x[start:start + _SUM_BLOCK], y[start:start + _SUM_BLOCK]
        s = scratch[: len(xb)]
        for k, block_sum in enumerate(sums):
            totals[k] += block_sum(xb, yb, s)
    return totals


def correlation(xs, ys) -> complex:
    """Correlation coefficient of two complex sample sets of one shape.

    Computed as ``(E[X Y*] - E[X] E[Y*]) / (sqrt(E[|X|^2]) sqrt(E[|Y|^2]))``.
    Note the denominator uses raw second moments, not centered variances;
    for zero-mean inputs this is the ordinary complex correlation
    coefficient and ``correlation(x, x) == 1``.
    """
    xs = np.asarray(xs, dtype=complex)
    ys = np.asarray(ys, dtype=complex)
    if xs.size != ys.size:
        raise ValueError(f"sample sets differ in length: {xs.size} vs {ys.size}")
    if xs.size < 2:
        raise ValueError("need at least 2 samples")
    if xs.shape != ys.shape:  # equal sizes, but the samples would pair by flattened position
        raise ValueError(f"sample sets differ in shape: {xs.shape} vs {ys.shape}")
    n = xs.size
    sxx, syy, sxy, sx, sy = _moment_sums(xs.reshape(-1), ys.reshape(-1), "xx yy xy x y")
    denom = math.sqrt(sxx / n) * math.sqrt(syy / n)
    if denom == 0.0:
        raise DegenerateSampleError("degenerate samples: zero second moment")
    num = complex(sxy) / n - complex(sx) / n * complex(sy).conjugate() / n
    return complex(num / denom)


def rho1_analytic(stats: ModelStats) -> float:
    """Predicted correlation of the first probing round's paired estimates."""
    num = stats.g_a * stats.g_b * (stats.a * stats.b * stats.var_arb + stats.var_ab)
    den_a = math.sqrt(stats.g_a * (stats.a ** 2 * stats.var_arb + stats.var_ab) + NOISE_VAR)
    den_b = math.sqrt(stats.g_b * (stats.b ** 2 * stats.var_arb + stats.var_ab) + NOISE_VAR)
    return num / (den_a * den_b)


def rho2_analytic(stats: ModelStats) -> float:
    """Predicted correlation of the loop-back pair, before compensation."""
    a_term, b_term, c_term = stats._quad_coeffs
    return c_term / (math.sqrt(a_term) * math.sqrt(b_term))


def mse_prediction(gamma, stats: ModelStats):
    """Mean squared prediction error when scaling one loop-back side by `gamma`.

    An array of scalars gives the error power of each, elementwise.
    """
    a_term, b_term, c_term = stats._quad_coeffs
    return gamma ** 2 * a_term + b_term - 2.0 * gamma * c_term


def gamma_analytic(stats: ModelStats) -> float:
    """Prediction scalar minimizing the mean squared error.

    The error power is a strictly convex quadratic in the scalar (its
    leading coefficient is at least the noise variance), so the stationary
    point is the unique minimizer.
    """
    a_term, _, c_term = stats._quad_coeffs
    return c_term / a_term


@dataclass(frozen=True)
class PredictionError:
    """Mean squared magnitude of the errors of a prediction."""

    mse: float


def empirical_mse(predicted, actual) -> PredictionError:
    """Mean squared error between a predicted and a measured sample set of one shape."""
    predicted = np.asarray(predicted, dtype=complex)
    actual = np.asarray(actual, dtype=complex)
    if predicted.size != actual.size:
        raise ValueError("predicted and actual sample counts differ")
    if predicted.size == 0:
        raise ValueError("empty sample set")
    if predicted.shape != actual.shape:
        raise ValueError(f"predicted and actual differ in shape: {predicted.shape} vs {actual.shape}")
    (error_power,) = _moment_sums(predicted.reshape(-1), actual.reshape(-1), "dd")
    return PredictionError(float(error_power) / predicted.size)


# ---------------------------------------------------------------------------
# Model-driven samplers.  These build the Gaussian model structurally
# (filters x (mean-weighted shared randomness + shared direct link) + noise)
# and let the moments emerge, so they stay independent of the closed forms
# they are checked against.  The first filter is a constant and the second
# draws one phasor per sample, none when the pair is fully coupled.
#
# A sampler fills its output in blocks of SAMPLE_BLOCK samples.  Block i
# draws from its own sub-stream ``(stream, i)``, so the values depend only on
# the stream key and the sample count, never on how many threads fill the
# blocks.  The outputs, then every block's Generator, are built on the
# calling thread before any block is handed out; one task per pool thread
# fills every `workers`-th block with the private helpers below and numpy,
# which releases the interpreter lock for the draws and the arithmetic.  So
# the call's small allocations (Generators, a future per task, not per block)
# cannot split the heap gap that earlier outputs left: peak memory is steady.
# ---------------------------------------------------------------------------

#: Samples per sampler block.  A block's temporaries are three complex
#: arrays of this length (1.5 MiB), so its passes run from a core's cache, and
#: its Generator (about 20 us) is negligible against its draw (about 3 ms).
#: On a 2-CPU host 16,384 and 65,536 timed the same within run-to-run noise.
#: Changing it changes every sampler value.
SAMPLE_BLOCK = 32_768


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity set where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _fill_blocks(n: int, stream: Stream, fill):
    """Complex arrays ``x, y`` of `n` samples, filled block by block.

    ``fill(rng, x_block, y_block)`` writes one block from that block's own
    Generator.  `run_indexed` runs one task per thread, one thread per CPU
    this process may use, capped at the block count.
    """
    if n < 0:
        raise ValueError(f"need a sample count >= 0, got {n}")
    starts = range(0, n, SAMPLE_BLOCK)
    x = np.empty(n, dtype=complex)
    y = np.empty(n, dtype=complex)
    rngs = [as_rng(substream(stream, i)) for i in range(len(starts))]
    workers = max(1, min(_cpu_count(), len(starts)))

    def run(w):
        for i in range(w, len(starts), workers):
            block = slice(starts[i], starts[i] + SAMPLE_BLOCK)
            fill(rngs[i], x[block], y[block])

    run_indexed(run, workers, workers)
    return x, y


def _filter_coupling(stats: ModelStats) -> float:
    """Coupling ``c = sqrt(g_a*g_b)`` of the filter pair; only realizable for c <= 1."""
    c = math.sqrt(stats.g_a * stats.g_b)
    if c > 1.0 + 1e-12:
        raise ValueError(
            "filter cross moment g_a*g_b exceeds the Cauchy-Schwarz bound "
            f"sqrt(g_a*g_b); need g_a*g_b <= 1, got {stats.g_a * stats.g_b:.4g}"
        )
    return min(c, 1.0)


def _filters(stats: ModelStats, c: Optional[float], rng, m: int):
    """Filter pair ``(f_a, f_b)`` of `m` samples: `f_a` a scalar, `f_b` a
    scalar or an array.

    For a coupling `c` of `_filter_coupling` the filters are
    ``f_a = sqrt(g_a)`` and ``f_b = sqrt(g_b) * (c + sqrt(1 - c**2) * psi)``
    with a unit phasor ``psi`` of uniform phase, drawn only when ``c < 1``:
    E|F_a|^2 = g_a, E|F_b|^2 = g_b and E[F_a conj(F_b)] = g_a * g_b.  For
    ``c = None`` they are the deterministic gains ``sqrt(g_a)`` and
    ``sqrt(g_a) * g_b``.

    A common uniform phase ``theta`` on both filters, ``(theta*f_a,
    theta*f_b)``, would not change any sampler's law, so none is drawn.  The
    filters multiply ``V_a, V_b`` (``a*u + w`` and ``b*u + w``, or
    ``a*u_x + w`` and ``b*u_y + w``), which are jointly circular Gaussian
    and independent of the filter phases and of the noises.  Hence
    ``(theta*V_a, theta*V_b, psi*conj(theta))`` has the law of ``(V_a, V_b,
    psi)``, and ``x = theta*f_a*V_a + n_x``, ``y = theta*f_b*V_b + n_y``
    keep exactly their joint distribution without ``theta``.
    """
    f_a = math.sqrt(stats.g_a)
    if c is None:
        return f_a, f_a * stats.g_b
    if c == 1.0:
        return f_a, math.sqrt(stats.g_b)
    f_b = _unit_phasors(rng, m)
    f_b *= math.sqrt(stats.g_b * (1.0 - c ** 2))
    f_b += math.sqrt(stats.g_b) * c
    return f_a, f_b


# A fill draws each Gaussian into one complex scratch, folding a real
# coefficient into the variance where it can, and combines it straight into
# the output slices.  Besides its output a block holds three complex arrays'
# worth of its length: the scratch, the two float buffers of a draw and,
# below full coupling, the filter phasors.
def _fill_first_round(stats: ModelStats, c: float, rng, x, y):
    m = len(x)
    f_a, f_b = _filters(stats, c, rng, m)
    s = _complex_normal(rng, stats.var_arb, m)  # u, shared
    np.multiply(s, f_a * stats.a, out=x)
    np.multiply(s, stats.b, out=y)
    _complex_normal(rng, stats.var_ab, m, s)  # w, shared
    y += s
    y *= f_b
    s *= f_a
    x += s
    for out in (x, y):
        out += _complex_normal(rng, NOISE_VAR, m, s)


def _fill_loopback(stats: ModelStats, c: Optional[float], rng, x, y):
    # u_y = rho*u_x + sqrt(1 - rho**2)*u_perp with rho = a*b: y sees b*b*(a*u_x)
    m = len(x)
    f_a, f_b = _filters(stats, c, rng, m)
    s = _complex_normal(rng, stats.a ** 2 * stats.s4_arb, m)  # a*u_x
    np.multiply(s, f_a, out=x)
    np.multiply(s, stats.b ** 2, out=y)
    y += _complex_normal(rng, stats.b ** 2 * (1.0 - (stats.a * stats.b) ** 2) * stats.s4_arb, m, s)
    _complex_normal(rng, stats.s4_ab, m, s)  # w, shared
    y += s
    y *= f_b
    s *= f_a
    x += s
    _complex_normal(rng, NOISE_VAR, m, s)  # one noise term, shared by both sides
    x += s
    y += s


def sample_first_round_pairs(stats: ModelStats, n: int, stream: Stream):
    """Paired estimates of the first probing round under the Gaussian model.

    Both sides share the cascaded randomness U and the direct link W; the
    surface aggregates are represented by their means.  Requires
    ``g_a * g_b <= 1`` so that the filter cross moment is realizable, which
    is exactly the regime where the closed-form correlation lies in [0, 1].

    The samples are drawn in blocks keyed ``(stream, block)``.  The values
    depend only on the key and `n`, not on the number of threads.
    """
    c = _filter_coupling(stats)
    return _fill_blocks(n, stream, functools.partial(_fill_first_round, stats, c))


def sample_loopback_pairs(stats: ModelStats, n: int, stream: Stream, match_second_moment: bool = True):
    """Paired loop-back estimates under the Gaussian model.

    The product structure of the loop-back makes the effective per-link
    variances the squared originals, the shared randomness of the two
    cascaded products correlate with coefficient ``a*b``, and the noise
    contribution appear as a shared unit-variance term.

    With ``match_second_moment=True`` (default) the filters are drawn so
    that all three second moments match the closed forms; this needs
    ``g_a * g_b <= 1``.  With ``False`` the filters are the deterministic
    gains ``sqrt(g_a)`` and ``sqrt(g_a) * g_b``: the cross moment and the
    first side's power still match for any g values (which is all the
    prediction-scalar estimate depends on), while the second side's power
    is allowed to drift.

    `stream` is drawn in blocks as in `sample_first_round_pairs`.
    """
    if abs(stats.a * stats.b) > 1.0:
        raise ValueError("need |a*b| <= 1 for a realizable shared-randomness correlation")
    c = _filter_coupling(stats) if match_second_moment else None
    return _fill_blocks(n, stream, functools.partial(_fill_loopback, stats, c))
