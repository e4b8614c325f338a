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
can realize.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._rng import Stream, as_rng

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


def correlation(xs, ys) -> complex:
    """Correlation coefficient of two complex sample sets.

    Computed as ``(E[X Y*] - E[X] E[Y*]) / (sqrt(E[|X|^2]) sqrt(E[|Y|^2]))``.
    Note the denominator uses raw second moments, not centered variances;
    for zero-mean inputs this is the ordinary complex correlation
    coefficient and ``correlation(x, x) == 1``.
    """
    xs = np.asarray(xs, dtype=complex).ravel()
    ys = np.asarray(ys, dtype=complex).ravel()
    if xs.size != ys.size:
        raise ValueError(f"sample sets differ in length: {xs.size} vs {ys.size}")
    if xs.size < 2:
        raise ValueError("need at least 2 samples")
    denom = math.sqrt(float(np.mean(np.abs(xs) ** 2))) * math.sqrt(
        float(np.mean(np.abs(ys) ** 2))
    )
    if denom == 0.0:
        raise DegenerateSampleError("degenerate samples: zero second moment")
    num = np.mean(xs * np.conj(ys)) - np.mean(xs) * np.conj(np.mean(ys))
    return complex(num / denom)


def rho1_analytic(stats: ModelStats) -> float:
    """Predicted correlation of the first probing round's paired estimates."""
    num = stats.g_a * stats.g_b * (stats.a * stats.b * stats.var_arb + stats.var_ab)
    den_a = math.sqrt(stats.g_a * (stats.a ** 2 * stats.var_arb + stats.var_ab) + NOISE_VAR)
    den_b = math.sqrt(stats.g_b * (stats.b ** 2 * stats.var_arb + stats.var_ab) + NOISE_VAR)
    return num / (den_a * den_b)


def rho2_analytic(stats: ModelStats) -> float:
    """Predicted correlation of the loop-back pair, before compensation."""
    s4c, s4d = stats.s4_arb, stats.s4_ab
    num = stats.g_a * stats.g_b * (stats.a ** 2 * stats.b ** 2 * s4c + s4d) + NOISE_VAR
    den_a = math.sqrt(stats.g_a * (stats.a ** 2 * s4c + s4d) + NOISE_VAR)
    den_b = math.sqrt(stats.g_b * (stats.b ** 2 * s4c + s4d) + NOISE_VAR)
    return num / (den_a * den_b)


def _quad_coeffs(stats: ModelStats):
    """Coefficients (A, B, C) of the prediction error power A*g^2 - 2*C*g + B."""
    s4c, s4d = stats.s4_arb, stats.s4_ab
    a_term = stats.g_a * (stats.a ** 2 * s4c + s4d) + NOISE_VAR
    b_term = stats.g_b * (stats.b ** 2 * s4c + s4d) + NOISE_VAR
    c_term = stats.g_a * stats.g_b * (stats.a ** 2 * stats.b ** 2 * s4c + s4d) + NOISE_VAR
    return a_term, b_term, c_term


def mse_prediction(gamma: float, stats: ModelStats) -> float:
    """Mean squared prediction error when scaling one loop-back side by `gamma`."""
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
    """Per-sample prediction errors and their mean squared magnitude."""

    errors: np.ndarray
    mse: float


def empirical_mse(predicted, actual) -> PredictionError:
    """Errors between a predicted and an actually measured sample set."""
    predicted = np.asarray(predicted, dtype=complex).ravel()
    actual = np.asarray(actual, dtype=complex).ravel()
    if predicted.size != actual.size:
        raise ValueError("predicted and actual sample counts differ")
    if predicted.size == 0:
        raise ValueError("empty sample set")
    errors = predicted - actual
    return PredictionError(errors, float(np.mean(np.abs(errors) ** 2)))


# ---------------------------------------------------------------------------
# Model-driven samplers.  These build the Gaussian model structurally
# (filters x (mean-weighted shared randomness + shared direct link) + noise)
# and let the moments emerge, so they stay independent of the closed forms
# they are checked against.
# ---------------------------------------------------------------------------


def _complex_normal(rng, var: float, n: int) -> np.ndarray:
    return math.sqrt(var / 2.0) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


def _correlated_filters(stats: ModelStats, rng, n: int):
    """Random filter pairs with E|F_a|^2 = g_a, E|F_b|^2 = g_b and cross
    moment E[F_a conj(F_b)] = g_a * g_b.  Only realizable for g_a*g_b <= 1."""
    c = math.sqrt(stats.g_a * stats.g_b)
    if c > 1.0 + 1e-12:
        raise ValueError(
            "filter cross moment g_a*g_b exceeds the Cauchy-Schwarz bound "
            f"sqrt(g_a*g_b); need g_a*g_b <= 1, got {stats.g_a * stats.g_b:.4g}"
        )
    c = min(c, 1.0)
    theta = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))
    psi = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))
    f_a = math.sqrt(stats.g_a) * theta
    f_b = math.sqrt(stats.g_b) * (c * theta + math.sqrt(1.0 - c ** 2) * psi)
    return f_a, f_b


def sample_first_round_pairs(stats: ModelStats, n: int, stream: Stream):
    """Paired estimates of the first probing round under the Gaussian model.

    Both sides share the cascaded randomness U and the direct link W; the
    surface aggregates are represented by their means.  Requires
    ``g_a * g_b <= 1`` so that the filter cross moment is realizable, which
    is exactly the regime where the closed-form correlation lies in [0, 1].
    """
    rng = as_rng(stream)
    f_a, f_b = _correlated_filters(stats, rng, n)
    u = _complex_normal(rng, stats.var_arb, n)
    w = _complex_normal(rng, stats.var_ab, n)
    x = f_a * (stats.a * u + w) + _complex_normal(rng, NOISE_VAR, n)
    y = f_b * (stats.b * u + w) + _complex_normal(rng, NOISE_VAR, n)
    return x, y


def sample_loopback_pairs(stats: ModelStats, n: int, stream: Stream, match_second_moment: bool = True):
    """Paired loop-back estimates under the Gaussian model.

    The product structure of the loop-back makes the effective per-link
    variances the squared originals, the shared randomness of the two
    cascaded products correlate with coefficient ``a*b``, and the noise
    contribution appear as a shared unit-variance term.

    With ``match_second_moment=True`` (default) the filters are drawn so
    that all three second moments match the closed forms; this needs
    ``g_a * g_b <= 1``.  With ``False`` the filters are the deterministic
    gains ``sqrt(g_a)`` and ``g_a*g_b/sqrt(g_a)``: the cross moment and the
    first side's power still match for any g values (which is all the
    prediction-scalar estimate depends on), while the second side's power
    is allowed to drift.
    """
    rho_u = stats.a * stats.b
    if abs(rho_u) > 1.0:
        raise ValueError("need |a*b| <= 1 for a realizable shared-randomness correlation")
    rng = as_rng(stream)
    if match_second_moment:
        f_a, f_b = _correlated_filters(stats, rng, n)
    else:
        f_a = math.sqrt(stats.g_a)
        f_b = stats.g_a * stats.g_b / f_a
    u_x = _complex_normal(rng, stats.s4_arb, n)
    u_y = rho_u * u_x + math.sqrt(1.0 - rho_u ** 2) * _complex_normal(rng, stats.s4_arb, n)
    w = _complex_normal(rng, stats.s4_ab, n)
    noise = _complex_normal(rng, NOISE_VAR, n)
    x = f_a * (stats.a * u_x + w) + noise
    y = f_b * (stats.b * u_y + w) + noise
    return x, y
