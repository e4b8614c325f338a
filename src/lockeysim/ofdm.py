"""OFDM pilot generation, probing, and least-squares channel estimation.

Everything happens in the frequency domain.  The cyclic prefix (16 samples
at the 960 kHz occupied bandwidth, i.e. 16.7 us) exceeds the bundled delay
spreads, so each subcarrier sees a purely multiplicative channel and no
time-domain convolution is simulated.  Every function also works on a batch
of symbols, one trial per row along a leading axis.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._rng import Stream, as_rng, batch_shape
from .fading import add_awgn

_QPSK = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2.0)


@dataclass(frozen=True)
class OfdmConfig:
    """Waveform parameters of the probing signal."""

    symbol_length: int = 64
    subcarrier_spacing_hz: float = 15e3
    pilot_interval: int = 5

    def __post_init__(self):
        if self.symbol_length < 1:
            raise ValueError("symbol_length must be >= 1")
        if self.pilot_interval < 1:
            raise ValueError("pilot_interval must be >= 1")

    @property
    def subcarrier_freqs(self) -> np.ndarray:
        """Baseband subcarrier offsets in Hz.

        The carrier frequencies only select which fading realization a band
        uses; they do not enter the per-subcarrier math.
        """
        return np.arange(self.symbol_length) * self.subcarrier_spacing_hz

    @property
    def pilot_positions(self) -> np.ndarray:
        """Subcarrier indices that carry a directly usable estimate."""
        return np.arange(0, self.symbol_length, self.pilot_interval)


def generate_pilot(config: OfdmConfig, stream: Stream, trials: Optional[int] = None) -> np.ndarray:
    """Unit-magnitude QPSK pilot symbols, one per subcarrier (and per trial).

    Both parties know the pilot, so the same stream id must be used for
    every probe of a round.
    """
    rng = as_rng(stream)
    idx = rng.integers(0, 4, size=batch_shape(trials, config.symbol_length))
    return _QPSK[idx]


def probe(
    pilot,
    direct,
    cascaded,
    fingerprint,
    snr_db: Optional[float],
    stream: Stream,
    ref_power: Optional[float] = 1.0,
) -> np.ndarray:
    """Received symbols after one probe through a composite channel.

    Per subcarrier k the output is
    ``fingerprint[k] * (direct[k] + cascaded[k]) * pilot[k] + noise[k]``.

    Noise follows the unit-reference convention by default (`ref_power`
    1.0): its variance is ``10**(-snr_db/10)`` independent of the channel
    realization, matching a model that pins the noise variance and lets the
    channel carry the gain.  Pass ``ref_power=None`` to reference the SNR to
    the mean received power instead.
    """
    pilot = np.asarray(pilot, dtype=complex)
    direct = np.asarray(direct, dtype=complex)
    cascaded = np.asarray(cascaded, dtype=complex)
    fingerprint = np.asarray(fingerprint, dtype=complex)
    if not (pilot.shape[-1:] == direct.shape[-1:] == cascaded.shape[-1:] == fingerprint.shape[-1:]):
        raise ValueError("pilot, direct, cascaded and fingerprint must share one length")
    clean = fingerprint * (direct + cascaded) * pilot
    return add_awgn(clean, snr_db, stream, ref_power=ref_power)


def ls_estimate(received, pilot, config: OfdmConfig) -> np.ndarray:
    """Least-squares channel estimate from one received probe.

    At pilot subcarriers the estimate is ``received / pilot``.  The
    remaining subcarriers are filled by linear interpolation between the
    nearest pilot estimates (edge subcarriers extend the nearest pilot).
    Only pilot positions carry independent information; key extraction uses
    those, interpolated values exist for error-curve plotting.
    """
    received = np.asarray(received, dtype=complex)
    pilot = np.asarray(pilot, dtype=complex)
    if received.shape != pilot.shape or received.shape[-1:] != (config.symbol_length,):
        raise ValueError("received and pilot must have length symbol_length")
    if np.any(pilot == 0):
        raise ValueError("pilot symbols must be non-zero")
    positions = config.pilot_positions
    at_pilots = received[..., positions] / pilot[..., positions]
    if positions.size == config.symbol_length:
        return at_pilots
    return at_pilots @ _interpolation_weights(config)


@functools.lru_cache(maxsize=16)
def _interpolation_weights(config: OfdmConfig) -> np.ndarray:
    """Read-only ``(pilots, symbol_length)`` linear-interpolation matrix.

    Column k holds the weights of subcarrier k on its two neighbouring
    pilots (a one-hot column at a pilot, the nearest pilot beyond the last
    one), the same line ``np.interp`` draws.  Cached by value: it depends
    only on the configuration.
    """
    positions = config.pilot_positions
    every = np.arange(config.symbol_length)
    weights = np.array([np.interp(every, positions, unit) for unit in np.eye(positions.size)], dtype=complex)
    weights.setflags(write=False)
    return weights


def pilot_values(csi: np.ndarray, config: OfdmConfig) -> np.ndarray:
    """Extract the pilot-subcarrier entries of an estimate."""
    return np.asarray(csi)[..., config.pilot_positions]
