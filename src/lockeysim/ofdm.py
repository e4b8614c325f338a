"""The OFDM probing grid.

Everything happens in the frequency domain.  The cyclic prefix (16 samples
at the 960 kHz occupied bandwidth, i.e. 16.7 us) exceeds the bundled delay
spreads, so each subcarrier sees a purely multiplicative channel and no
time-domain convolution is simulated.  Subcarriers are therefore
independent of each other, and only the pilot subcarriers (every
`pilot_interval`-th of the `symbol_length`) carry an estimate a key is
extracted from: every probe and estimate holds one entry per pilot
subcarrier, and the subcarriers between the pilots are never simulated.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

# Not used here.  perfbench's tracer test checks that its `as_rng` wrapper
# reaches every lockeysim namespace that imports it, this one included.
from ._rng import as_rng  # noqa: F401


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

    # The fields are immutable, so the pilot grid is built on first use and
    # kept on the instance.
    @functools.cached_property
    def pilot_freqs(self) -> np.ndarray:
        """Read-only baseband offsets in Hz of the pilot subcarriers, the grid
        every probe uses."""
        freqs = self.subcarrier_freqs[self.pilot_positions]
        freqs.setflags(write=False)
        return freqs

    @functools.cached_property
    def _pilot_grid(self) -> tuple:
        """`pilot_freqs` as the tuple the `fading` response caches are keyed by."""
        return tuple(self.pilot_freqs.tolist())
