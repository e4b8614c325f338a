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

    Each field is checked and normalized here, so a waveform is held to the
    same rules whether it comes from a file or is built directly and passed
    to ``ExperimentConfig.with_overrides``: `symbol_length` and
    `pilot_interval` are ints >= 1 (not bools), and the spacing is a finite
    number >= 0, stored as a float.  A violation raises `ConfigError` naming
    the configuration key.
    """

    symbol_length: int = 64
    subcarrier_spacing_hz: float = 15e3
    pilot_interval: int = 5

    def __post_init__(self):
        from .config import ConfigError, _integer, _is_number  # config imports this module

        for key in ("symbol_length", "pilot_interval"):
            object.__setattr__(self, key, _integer(getattr(self, key), f"ofdm.{key}", 1))
        spacing = self.subcarrier_spacing_hz
        if not (_is_number(spacing) and 0 <= spacing < math.inf):
            raise ConfigError(f"ofdm.subcarrier_spacing_khz: expected a finite number >= 0, "
                              f"got subcarrier_spacing_hz={spacing!r}")
        object.__setattr__(self, "subcarrier_spacing_hz", float(spacing))

    @property
    def subcarrier_freqs(self) -> np.ndarray:
        """Baseband subcarrier offsets in Hz.  No carrier frequency is
        modelled: each slot draws fresh taps, and "band 1/2" names the slot."""
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
