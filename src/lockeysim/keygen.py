"""Quantization of channel estimates into key bits and the key metrics.

Estimate magnitudes are cut into four levels at the empirical quartiles of
each party's own measurement block and encoded with the 2-bit Gray order
00, 01, 11, 10, so neighbouring levels differ in exactly one bit and a
boundary-adjacent measurement costs at most one bit error.  With cut
points t0 < t1 < t2 a value v's two bits are ``v >= t1`` and ``(v >= t0)
!= (v >= t2)``: three comparisons, no level count.  Quartile
thresholds make quantization invariant to a common scale factor.  A block
of ``(trials, ...)`` samples, such as ``(trials, subcarriers)`` or a
``(trials, blocks, subcarriers)`` stack, is quantized column by column
along its first axis, each column against its own thresholds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import DegenerateSampleError

#: Gray code of each quantization level, as bit pairs (`quantize_gray2` compares).
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


def _increasing(thresholds: np.ndarray) -> bool:
    return bool(np.all((thresholds[0] < thresholds[1]) & (thresholds[1] < thresholds[2])))


def compute_thresholds(values) -> np.ndarray:
    """Empirical 25/50/75-percentile cut points of a magnitude block.

    Each party computes thresholds from its own block, which keeps the bit
    mapping invariant under a common positive scaling of the magnitudes.
    The percentiles are numpy's ``linear`` method, bit for bit: quartile q
    of n samples lies at position ``q * (n - 1)`` of the sorted block,
    interpolated between its two neighbours, so samples {1,2,3,4} give cut
    points (1.75, 2.5, 3.25).  A block of shape ``(n, *rest)`` gets a
    ``(3, *rest)`` array, the cut points of each column along the first
    axis, from one sort of the block; each column's are those it gets alone.
    """
    values = np.atleast_1d(np.asarray(values, dtype=float))
    n = values.shape[0]
    if n < 4:
        raise ValueError("need at least 4 samples to place quartile thresholds")
    ordered = np.sort(values, axis=0)
    thresholds = np.empty((3, *values.shape[1:]))
    for i, q in enumerate((0.25, 0.5, 0.75)):
        # exact for these q; below n - 1, so both neighbours exist
        position = q * (n - 1)
        below = int(position)
        weight = position - below
        low, high = ordered[below], ordered[below + 1]
        step = high - low
        # numpy's lerp, which interpolates from the nearer neighbour
        thresholds[i] = low + step * weight if weight < 0.5 else high - step * (1.0 - weight)
    # a column holding NaN sorts it last and gets NaN cut points, as in numpy
    np.copyto(thresholds, ordered[-1], where=np.isnan(ordered[-1]))
    if not _increasing(thresholds):
        raise DegenerateSampleError("degenerate sample block: quartile thresholds are not distinct")
    return thresholds


def quantize_gray2(values, thresholds) -> np.ndarray:
    """Quantize magnitudes into Gray-coded 2-bit words.

    `thresholds` are the three strictly increasing level cut points (per
    column for a block of shape ``(n, *rest)``, a ``(3, *rest)`` array as
    `compute_thresholds` gives it); values map to levels 0..3 and levels to
    the Gray codes of `GRAY2_CODES`, written as the comparisons ``v >= t1``
    and ``(v >= t0) != (v >= t2)`` (a NaN value gets level 0's code).
    Returns the ``uint8`` bits in row order, two per value.
    """
    values = np.atleast_1d(np.asarray(values, dtype=float))
    thresholds = np.asarray(thresholds, dtype=float)
    if thresholds.shape != (3, *values.shape[1:]):
        raise ValueError("exactly 3 thresholds required per column")
    if not _increasing(thresholds):
        raise ValueError("thresholds must be strictly increasing")
    bits = np.empty((*values.shape, 2), dtype=np.uint8)
    np.greater_equal(values, thresholds[1], out=bits[..., 0])
    np.not_equal(values >= thresholds[0], values >= thresholds[2], out=bits[..., 1])
    return bits.ravel()


def _disagreeing(bits_a, bits_b) -> tuple:
    """Number of positions where the two bit streams disagree, and their length."""
    a, b = np.asarray(bits_a), np.asarray(bits_b)
    if a.size != b.size:
        raise ValueError(f"bit streams differ in length: {a.size} vs {b.size}")
    if a.size == 0:
        raise ValueError("empty bit streams")
    return int(np.count_nonzero(a != b)), a.size


def csk(rho_hat: float, bits_a, bits_b) -> KeyMetrics:
    """Key-rate metrics of a measurement block.

    Two rates are reported: the number of agreeing bit positions per
    subcarrier use, and the information estimate ``-log2(1 - rho_hat^2)``.
    The bit rate and the disagreement ratio come from one comparison of the
    streams; each subcarrier use carries two bits, so an odd bit count is
    rejected.  A correlation magnitude at or above 1 caps the information
    estimate at ``INFO_RATE_CAP`` and sets the flag.
    """
    disagreeing, size = _disagreeing(bits_a, bits_b)
    if size % 2:
        raise ValueError(f"bit streams hold two bits per subcarrier use, got an odd count {size}")
    rho_mag = abs(rho_hat)
    capped = rho_mag >= 1.0
    if capped:
        information = INFO_RATE_CAP
    else:
        information = min(-math.log2(1.0 - rho_mag ** 2), INFO_RATE_CAP)
        capped = information >= INFO_RATE_CAP
    return KeyMetrics((size - disagreeing) / (size // 2), information, disagreeing / size, capped)
