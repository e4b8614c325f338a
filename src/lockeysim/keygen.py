"""Quantization of channel estimates into key bits and the key metrics.

Estimate magnitudes are cut into four levels at the empirical quartiles of
each party's own measurement block and encoded with the 2-bit Gray order
00, 01, 11, 10, so neighbouring levels differ in exactly one bit and a
boundary-adjacent measurement costs at most one bit error.  Quartile
thresholds make quantization invariant to a common scale factor.  A 2-D
block of ``(trials, subcarriers)`` is quantized column by column, each
column against its own thresholds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import DegenerateSampleError

#: Gray code of each quantization level, as constant bit pairs.
GRAY2_CODES = ((0, 0), (0, 1), (1, 1), (1, 0))

#: Cap on the information-rate estimate when correlation reaches 1.
INFO_RATE_CAP = 10.0


@dataclass(frozen=True)
class KeyMetrics:
    """Key-rate and disagreement summary of one measurement block.

    csk_bit_rate : agreeing key bits per subcarrier use (direct reading of
        the rate definition, disagreeing bits discarded); with two bits per
        subcarrier use it is ``2 * (1 - kdr)``, a function of `kdr`
    csk_information : Gaussian information estimate -log2(1 - rho^2) per
        subcarrier use, a function of the correlation it is given
    kdr : fraction of mismatched bits before reconciliation
    """

    csk_bit_rate: float
    csk_information: float
    kdr: float
    information_capped: bool = False

    def __post_init__(self):
        if not (0.0 <= self.kdr <= 1.0):
            raise ValueError("kdr must lie in [0, 1]")
        if self.csk_bit_rate < 0 or self.csk_information < 0:
            raise ValueError("key rates must be >= 0")


def _increasing(thresholds: np.ndarray) -> bool:
    return bool(np.all((thresholds[0] < thresholds[1]) & (thresholds[1] < thresholds[2])))


def compute_thresholds(values) -> np.ndarray:
    """Empirical 25/50/75-percentile cut points of a magnitude block.

    Each party computes thresholds from its own block, which keeps the bit
    mapping invariant under a common positive scaling of the magnitudes.
    Percentiles use linear interpolation, so samples {1,2,3,4} give cut
    points (1.75, 2.5, 3.25).  A 2-D block gets a ``(3, columns)`` array,
    the cut points of each column.
    """
    values = np.atleast_1d(np.asarray(values, dtype=float))
    if values.shape[0] < 4:
        raise ValueError("need at least 4 samples to place quartile thresholds")
    thresholds = np.percentile(values, [25.0, 50.0, 75.0], axis=0)
    if not _increasing(thresholds):
        raise DegenerateSampleError("degenerate sample block: quartile thresholds are not distinct")
    return thresholds


def quantize_gray2(values, thresholds) -> np.ndarray:
    """Quantize magnitudes into Gray-coded 2-bit words.

    `thresholds` are the three strictly increasing level cut points (per
    column for a 2-D block, as `compute_thresholds` gives them); values map
    to levels 0..3 and levels to the Gray codes 00, 01, 11, 10.  Returns
    the ``uint8`` bits in row order, two per value.
    """
    values = np.atleast_1d(np.asarray(values, dtype=float))
    thresholds = np.asarray(thresholds, dtype=float)
    if thresholds.shape != (3, *values.shape[1:]):
        raise ValueError("exactly 3 thresholds required per column")
    if not _increasing(thresholds):
        raise ValueError("thresholds must be strictly increasing")
    levels = np.sum(values >= thresholds[:, None], axis=0)
    codes = np.asarray(GRAY2_CODES, dtype=np.uint8)
    return codes[levels].ravel()


def _disagreeing(bits_a, bits_b) -> tuple:
    """Number of positions where the two bit streams disagree, and their length."""
    a, b = np.asarray(bits_a), np.asarray(bits_b)
    if a.size != b.size:
        raise ValueError(f"bit streams differ in length: {a.size} vs {b.size}")
    if a.size == 0:
        raise ValueError("empty bit streams")
    return int(np.count_nonzero(a != b)), a.size


def kdr(bits_a, bits_b) -> float:
    """Fraction of positions where the two bit streams disagree."""
    disagreeing, size = _disagreeing(bits_a, bits_b)
    return disagreeing / size


def csk(rho_hat: float, bits_a, bits_b, subcarriers_used: int) -> KeyMetrics:
    """Key-rate metrics of a measurement block.

    Two rates are reported: the number of agreeing bit positions per
    subcarrier use, and the information estimate ``-log2(1 - rho_hat^2)``.
    The bit rate and the disagreement ratio come from one comparison of the
    streams.  A correlation magnitude at or above 1 caps the information
    estimate at ``INFO_RATE_CAP`` and sets the flag.
    """
    if subcarriers_used <= 0:
        raise ValueError("subcarriers_used must be > 0")
    disagreeing, size = _disagreeing(bits_a, bits_b)
    rho_mag = abs(rho_hat)
    capped = rho_mag >= 1.0
    if capped:
        information = INFO_RATE_CAP
    else:
        information = min(-math.log2(1.0 - rho_mag ** 2), INFO_RATE_CAP)
        capped = information >= INFO_RATE_CAP
    return KeyMetrics((size - disagreeing) / subcarriers_used, information, disagreeing / size, capped)
