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

from ._rng import Stream, as_rng, substream
from .ris import _phasors

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
        for name in ("g_a", "g_b", "var_arb", "var_ab"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")

    @property
    def s4_arb(self) -> float:
        return self.var_arb ** 2

    @property
    def s4_ab(self) -> float:
        return self.var_ab ** 2


#: Rows per block of `_cross_sum`: its one reused buffer is 256 KiB per
#: column, so it stays in cache instead of costing a full-length product.
_SUM_BLOCK = 16_384


def _cross_sum(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``sum(x * conj(y))`` along the first axis of two equal-shape complex
    arrays, any strides; ``_cross_sum(z, z).real`` is ``sum(|z|**2)``.

    One pass in blocks of `_SUM_BLOCK` rows through one reused buffer, so
    no temporary the size of the inputs is made.  It calls no BLAS routine,
    whose sums change with its thread count.
    """
    rows = len(x)
    block = np.empty((min(rows, _SUM_BLOCK), *x.shape[1:]), dtype=complex)
    total = np.zeros(x.shape[1:], dtype=complex)
    for start in range(0, rows, _SUM_BLOCK):
        stop = min(start + _SUM_BLOCK, rows)
        product = np.conjugate(y[start:stop], out=block[: stop - start])
        product *= x[start:stop]
        total += product.sum(axis=0)
    return total


def correlation(xs, ys) -> complex:
    """Correlation coefficient of two complex sample sets.

    Computed as ``(E[X Y*] - E[X] E[Y*]) / (sqrt(E[|X|^2]) sqrt(E[|Y|^2]))``.
    Note the denominator uses raw second moments, not centered variances;
    for zero-mean inputs this is the ordinary complex correlation
    coefficient and ``correlation(x, x) == 1``.
    """
    xs = np.asarray(xs, dtype=complex).reshape(-1)
    ys = np.asarray(ys, dtype=complex).reshape(-1)
    if xs.size != ys.size:
        raise ValueError(f"sample sets differ in length: {xs.size} vs {ys.size}")
    if xs.size < 2:
        raise ValueError("need at least 2 samples")
    n = xs.size
    denom = math.sqrt(_cross_sum(xs, xs).real / n) * math.sqrt(_cross_sum(ys, ys).real / n)
    if denom == 0.0:
        raise DegenerateSampleError("degenerate samples: zero second moment")
    num = complex(_cross_sum(xs, ys)) / n - np.mean(xs) * np.conj(np.mean(ys))
    return complex(num / denom)


def rho1_analytic(stats: ModelStats) -> float:
    """Predicted correlation of the first probing round's paired estimates."""
    num = stats.g_a * stats.g_b * (stats.a * stats.b * stats.var_arb + stats.var_ab)
    den_a = math.sqrt(stats.g_a * (stats.a ** 2 * stats.var_arb + stats.var_ab) + NOISE_VAR)
    den_b = math.sqrt(stats.g_b * (stats.b ** 2 * stats.var_arb + stats.var_ab) + NOISE_VAR)
    return num / (den_a * den_b)


def rho2_analytic(stats: ModelStats) -> float:
    """Predicted correlation of the loop-back pair, before compensation."""
    a_term, b_term, c_term = _quad_coeffs(stats)
    return c_term / (math.sqrt(a_term) * math.sqrt(b_term))


def _quad_coeffs(stats: ModelStats):
    """Coefficients (A, B, C) of the prediction error power A*g^2 - 2*C*g + B."""
    s4c, s4d = stats.s4_arb, stats.s4_ab
    a_term = stats.g_a * (stats.a ** 2 * s4c + s4d) + NOISE_VAR
    b_term = stats.g_b * (stats.b ** 2 * s4c + s4d) + NOISE_VAR
    c_term = stats.g_a * stats.g_b * (stats.a ** 2 * stats.b ** 2 * s4c + s4d) + NOISE_VAR
    return a_term, b_term, c_term


def mse_prediction(gamma, stats: ModelStats):
    """Mean squared prediction error when scaling one loop-back side by `gamma`.

    An array of scalars gives the error power of each, elementwise.
    """
    a_term, b_term, c_term = _quad_coeffs(stats)
    return gamma ** 2 * a_term + b_term - 2.0 * gamma * c_term


def gamma_analytic(stats: ModelStats) -> float:
    """Prediction scalar minimizing the mean squared error.

    The error power is a strictly convex quadratic in the scalar (its
    leading coefficient is at least the noise variance), so the stationary
    point is the unique minimizer.
    """
    a_term, _, c_term = _quad_coeffs(stats)
    return c_term / a_term


@dataclass(frozen=True)
class PredictionError:
    """Mean squared magnitude of the errors of a prediction."""

    mse: float


def empirical_mse(predicted, actual) -> PredictionError:
    """Mean squared error between a predicted and an actually measured sample set."""
    predicted = np.asarray(predicted, dtype=complex).reshape(-1)
    actual = np.asarray(actual, dtype=complex).reshape(-1)
    if predicted.size != actual.size:
        raise ValueError("predicted and actual sample counts differ")
    if predicted.size == 0:
        raise ValueError("empty sample set")
    errors = predicted - actual
    return PredictionError(float(_cross_sum(errors, errors).real) / errors.size)


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
# blocks.  Every block's Generator is built on the calling thread before any
# block is handed out; the pool threads run only the private helpers below
# and numpy, which releases the interpreter lock for the draws and the
# arithmetic.
# ---------------------------------------------------------------------------

#: Samples per sampler block.  It bounds a block's temporaries to about
#: 1 MiB each, a few per thread, instead of full-length arrays, while the
#: Generator built per block (about 20 us) stays negligible against the
#: block's draw (about 20 ms).  Between 16,384 and 262,144 the sampling
#: time barely changes and peak memory grows with the size.  Changing it
#: changes every sampler value.
SAMPLE_BLOCK = 65_536


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity set where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _fill_blocks(n: int, stream: Stream, fill):
    """Complex arrays ``x, y`` of `n` samples, filled block by block.

    ``fill(rng, x_block, y_block)`` writes one block from that block's own
    Generator.  The blocks run on a thread pool as large as the CPUs this
    process may use, capped at the block count; a single worker runs them
    inline.
    """
    if n < 0:
        raise ValueError(f"need a sample count >= 0, got {n}")
    starts = range(0, n, SAMPLE_BLOCK)
    rngs = [as_rng(substream(stream, i)) for i in range(len(starts))]
    x = np.empty(n, dtype=complex)
    y = np.empty(n, dtype=complex)

    def run(i):
        block = slice(starts[i], starts[i] + SAMPLE_BLOCK)
        fill(rngs[i], x[block], y[block])

    workers = min(_cpu_count(), len(starts))
    if workers <= 1:
        for i in range(len(starts)):
            run(i)
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run, range(len(starts))))
    return x, y


def _complex_normal(rng, var: float, m: int, out=None) -> np.ndarray:
    """`m` circular complex Gaussians of variance `var` from one real draw,
    written into the complex array `out` when one is given."""
    z = rng.standard_normal(2 * m, out=None if out is None else out.view(np.float64))
    z *= math.sqrt(var / 2.0)
    return z.view(complex)


def _unit_phasors(rng, m: int) -> np.ndarray:
    """`m` unit phasors of uniform phase: one ``uniform(0, 2*pi, m)`` draw,
    turned into phasors by the surface's half-angle helper `ris._phasors`."""
    return _phasors(rng.uniform(0.0, 2.0 * np.pi, m))


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


def _add_filtered(out, f, coef: float, u, w):
    """``out += f * (coef*u + w)``, computed in place of `u`."""
    u *= coef
    u += w
    u *= f
    out += u


# The fills draw the noise straight into the output and combine in place:
# besides its output a block holds at most five arrays of its length, which
# keeps the memory the pool threads leave allocated small.
def _fill_first_round(stats: ModelStats, c: float, rng, x, y):
    m = len(x)
    f_a, f_b = _filters(stats, c, rng, m)
    u = _complex_normal(rng, stats.var_arb, m)
    w = _complex_normal(rng, stats.var_ab, m)
    _complex_normal(rng, NOISE_VAR, m, x)
    _complex_normal(rng, NOISE_VAR, m, y)
    _add_filtered(x, f_a, stats.a, u.copy(), w)
    _add_filtered(y, f_b, stats.b, u, w)


def _fill_loopback(stats: ModelStats, c: Optional[float], rng, x, y):
    m = len(x)
    f_a, f_b = _filters(stats, c, rng, m)
    rho_u = stats.a * stats.b
    u_x = _complex_normal(rng, stats.s4_arb, m)
    u_y = _complex_normal(rng, stats.s4_arb, m)
    u_y *= math.sqrt(1.0 - rho_u ** 2)
    u_y += rho_u * u_x
    w = _complex_normal(rng, stats.s4_ab, m)
    _complex_normal(rng, NOISE_VAR, m, x)
    y[:] = x  # one noise term, shared by both sides
    _add_filtered(x, f_a, stats.a, u_x, w)
    _add_filtered(y, f_b, stats.b, u_y, w)


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
