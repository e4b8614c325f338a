"""OFDM pilot generation, probing, and least-squares channel estimation.

Everything happens in the frequency domain.  The cyclic prefix (16 samples
at the 960 kHz occupied bandwidth, i.e. 16.7 us) exceeds the bundled delay
spreads, so each subcarrier sees a purely multiplicative channel and no
time-domain convolution is simulated.  Subcarriers are therefore
independent of each other, and only the pilot subcarriers (every
`pilot_interval`-th of the `symbol_length`) carry an estimate a key is
extracted from: pilots, probes and estimates hold one entry per pilot
subcarrier, and the subcarriers between the pilots are never simulated.
Every function also works on a batch of symbols, one trial per row along a
leading axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._rng import Stream, as_rng, batch_shape
from .fading import add_awgn

_QPSK = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2.0)


@dataclass(frozen=True)
class OfdmConfig:
    """Waveform parameters of the probing signal.

    An out-of-range field raises `ConfigError` naming its configuration key,
    so a waveform is checked the same way whether it comes from a file or
    is built directly and passed to ``ExperimentConfig.with_overrides``.
    """

    symbol_length: int = 64
    subcarrier_spacing_hz: float = 15e3
    pilot_interval: int = 5

    def __post_init__(self):
        for key, value, valid, rule in (
            ("ofdm.symbol_length", self.symbol_length, self.symbol_length >= 1, ">= 1"),
            ("ofdm.subcarrier_spacing_khz", self.subcarrier_spacing_hz / 1e3,
             math.isfinite(self.subcarrier_spacing_hz) and self.subcarrier_spacing_hz >= 0, "finite and >= 0"),
            ("ofdm.pilot_interval", self.pilot_interval, self.pilot_interval >= 1, ">= 1"),
        ):
            if not valid:
                from .config import ConfigError  # config imports this module

                raise ConfigError(f"{key}: must be {rule}, got {value}")

    @property
    def subcarrier_freqs(self) -> np.ndarray:
        """Baseband subcarrier offsets in Hz.

        The carrier frequencies only select which fading realization a band
        uses; they do not enter the per-subcarrier math.
        """
        return np.arange(self.symbol_length) * self.subcarrier_spacing_hz

    @property
    def pilot_positions(self) -> np.ndarray:
        """Indices of the subcarriers that carry a pilot."""
        return np.arange(0, self.symbol_length, self.pilot_interval)

    @property
    def pilot_freqs(self) -> np.ndarray:
        """Baseband offsets in Hz of the pilot subcarriers, the grid every probe uses."""
        return self.subcarrier_freqs[self.pilot_positions]


def generate_pilot(config: OfdmConfig, stream: Stream, trials: Optional[int] = None) -> np.ndarray:
    """Unit-magnitude QPSK pilot symbols, one per pilot subcarrier (and per
    trial): shape ``([trials,] pilot_positions.size)``.

    Both parties know the pilot, so the same stream id must be used for
    every probe of a round.
    """
    rng = as_rng(stream)
    idx = rng.integers(0, 4, size=batch_shape(trials, config.pilot_positions.size))
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
    the mean received power over the probed subcarriers instead.
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
    """Least-squares channel estimate from one received probe:
    ``received / pilot`` on every pilot subcarrier.

    `received` and `pilot` hold one entry per pilot subcarrier along the
    last axis, ``config.pilot_positions.size`` of them.
    """
    received = np.asarray(received, dtype=complex)
    pilot = np.asarray(pilot, dtype=complex)
    if received.shape != pilot.shape or received.shape[-1:] != config.pilot_positions.shape:
        raise ValueError("received and pilot must have one entry per pilot subcarrier")
    if np.any(pilot == 0):
        raise ValueError("pilot symbols must be non-zero")
    return received / pilot
