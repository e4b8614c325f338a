"""Tapped-delay-line fading, fixed hardware filters, and receiver noise.

The air channel between two radios is a set of delayed taps whose complex
gains fade independently (Rayleigh, sum-of-sinusoids Doppler evolution).
Hardware chains add a fixed multi-tap filter per transmission direction
that never changes over time.  Receiver noise is circular complex AWGN
with variance ``10**(-snr_db/10)`` relative to a reference power (unit
pilot power by default, so 0 dB means unit noise variance).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ._rng import Stream, as_rng, batch_shape

# Number of sinusoids per tap in the Doppler model.  Large enough that each
# tap gain is effectively complex Gaussian at any fixed time.
JAKES_OSCILLATORS = 32


@dataclass(frozen=True)
class TapProfile:
    """Multipath power-delay profile.

    Parameters
    ----------
    delays_ms : tuple of float
        Tap delays in milliseconds, non-decreasing, first tap at 0.
    powers_db : tuple of float
        Average power of each tap in dB.  Powers are NOT renormalized: the
        total channel power is the sum of the linearized tap powers, so the
        variance symbols used by the analysis module can be read directly
        off a profile.
    """

    delays_ms: tuple
    powers_db: tuple

    def __post_init__(self):
        delays = tuple(float(d) for d in self.delays_ms)
        powers = tuple(float(p) for p in self.powers_db)
        object.__setattr__(self, "delays_ms", delays)
        object.__setattr__(self, "powers_db", powers)
        if len(delays) == 0:
            raise ValueError("tap profile must contain at least one tap")
        if len(delays) != len(powers):
            raise ValueError(
                f"delays_ms has {len(delays)} entries but powers_db has {len(powers)}"
            )
        if not all(math.isfinite(d) for d in delays):
            raise ValueError("tap delays must be finite")
        if not all(math.isfinite(p) for p in powers):
            raise ValueError("tap powers must be finite")
        if delays[0] != 0.0:
            raise ValueError(f"first tap delay must be 0, got {delays[0]}")
        if any(b < a for a, b in zip(delays, delays[1:])):
            raise ValueError("tap delays must be non-decreasing")

    @property
    def n_taps(self) -> int:
        return len(self.delays_ms)

    @property
    def delays_s(self) -> np.ndarray:
        return np.asarray(self.delays_ms, dtype=float) * 1e-3

    @property
    def linear_powers(self) -> np.ndarray:
        """Per-tap average power on a linear scale."""
        return 10.0 ** (np.asarray(self.powers_db, dtype=float) / 10.0)

    @property
    def total_power(self) -> float:
        return float(np.sum(self.linear_powers))


def _us(values) -> tuple:
    """Express microsecond delay readings in the milliseconds the profile stores."""
    return tuple(v * 1e-3 for v in values)


# Bundled link and hardware-filter profiles.  The delay readings are
# microseconds: with 64 subcarriers at 15 kHz the cyclic prefix of 16
# samples spans 16.7 us, which covers the 2.82 us maximum excess delay and
# keeps the per-subcarrier channel purely multiplicative.  Millisecond-scale
# delays would exceed the prefix by five orders of magnitude.
ALICE_RIS_PROFILE = TapProfile(_us((0.0, 0.22, 0.50, 1.09, 1.78)), (0.0, -4.0, -5.2, -7.0, -1.9))
RIS_BOB_PROFILE = TapProfile(_us((0.0, 0.37, 0.50, 1.73, 2.82)), (0.0, -3.0, -5.2, -8.0, -12.2))
ALICE_BOB_PROFILE = TapProfile(_us((0.0, 0.11, 0.57, 1.90, 2.51)), (0.0, -2.2, -10.5, -6.6, -10.8))
ALICE_HF_PROFILE = TapProfile(_us((0.0, 0.13, 0.185)), (0.0, -4.0, -10.0))
BOB_HF_PROFILE = TapProfile(_us((0.0, 0.065, 0.185)), (0.0, -7.0, -10.0))

DEFAULT_PROFILES = {
    "alice_ris": ALICE_RIS_PROFILE,
    "ris_bob": RIS_BOB_PROFILE,
    "alice_bob": ALICE_BOB_PROFILE,
    "alice_hf": ALICE_HF_PROFILE,
    "bob_hf": BOB_HF_PROFILE,
}


@dataclass(frozen=True, eq=False)
class FadingProcess:
    """One realization of a time-evolving multipath channel, or one per trial.

    Each tap gain is a sum of ``JAKES_OSCILLATORS`` random-phase sinusoids
    whose frequencies are ``max_doppler * cos(angle)`` with random angles,
    scaled so the mean tap power equals the profile's linear power exactly.
    With ``max_doppler == 0`` every gain is constant in time.  A batched
    process carries independent realizations along a leading trial axis.
    Instances are immutable and safe to evaluate from concurrent workers.
    """

    profile: TapProfile
    max_doppler: float
    _amplitudes: np.ndarray = field(repr=False)   # (n_taps,)
    _angles: np.ndarray = field(repr=False)       # ([trials,] n_taps, M), arrival angles
    _phases: np.ndarray = field(repr=False)       # ([trials,] n_taps, M)

    @functools.cached_property
    def _rates(self) -> np.ndarray:
        """Oscillator frequencies in rad/s, computed on the first read at t > 0."""
        return 2.0 * np.pi * self.max_doppler * np.cos(self._angles)

    def gains(self, time_s: float) -> np.ndarray:
        """Complex tap gains ``([trials,] n_taps)`` at an absolute time in seconds."""
        if time_s < 0:
            raise ValueError("time must be non-negative")
        # at t = 0 the angles are the phases exactly, whatever the rates
        angle = self._phases if time_s == 0 else self._rates * time_s + self._phases
        # real cos/sin sums: half the temporary memory of a complex exp
        return self._amplitudes * (np.cos(angle).sum(axis=-1) + 1j * np.sin(angle).sum(axis=-1))


def make_fading_process(
    profile: TapProfile, max_doppler_hz: float, stream: Stream, trials: Optional[int] = None
) -> FadingProcess:
    """Draw a fading realization for `profile` with the given Doppler spread.

    With `trials`, draws that many independent realizations from the one
    stream.  Deterministic for a fixed stream id.  Raises ValueError for a
    negative Doppler; an invalid profile is rejected by TapProfile itself.
    """
    if not isinstance(profile, TapProfile):
        profile = TapProfile(*profile)
    if max_doppler_hz < 0:
        raise ValueError("max_doppler_hz must be >= 0")
    rng = as_rng(stream)
    m = JAKES_OSCILLATORS
    shape = batch_shape(trials, profile.n_taps, m)
    angles = rng.uniform(0.0, 2.0 * np.pi, size=shape)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=shape)
    amplitudes = np.sqrt(profile.linear_powers / m)
    return FadingProcess(profile, float(max_doppler_hz), amplitudes, angles, phases)


def _finite_freqs(subcarrier_freqs) -> tuple:
    freqs = np.asarray(subcarrier_freqs, dtype=float)
    if not np.all(np.isfinite(freqs)):
        raise ValueError("subcarrier frequencies must be finite")
    return tuple(freqs.ravel())


@functools.lru_cache(maxsize=64)
def _steering(profile: TapProfile, freqs: tuple) -> np.ndarray:
    """Read-only ``(n_taps, n_freqs)`` phase ramps ``exp(-2j*pi*f*delay)``.

    Cached by value: a profile and a frequency grid are constants of a
    configuration, and equal values share one matrix in every process.
    """
    steering = np.exp(-2j * np.pi * np.outer(profile.delays_s, freqs))
    steering.setflags(write=False)
    return steering


def frequency_response(process: FadingProcess, time_s: float, subcarrier_freqs) -> np.ndarray:
    """Per-subcarrier response ``([trials,] n_freqs)`` of the tapped-delay line at one instant.

    The response at frequency f is ``sum_l gain_l(t) * exp(-2j*pi*f*delay_l)``.
    """
    return process.gains(time_s) @ _steering(process.profile, _finite_freqs(subcarrier_freqs))


@dataclass(frozen=True)
class HardwareFingerprint:
    """Fixed multi-tap filter of one transmission direction.

    The tap amplitudes are the square roots of the profile's linear powers
    with zero phase, so the frequency response is a constant of the device
    pair and direction; it never varies with simulation time.
    """

    profile: TapProfile
    direction: str = ""


def fingerprint_response(fingerprint: HardwareFingerprint, subcarrier_freqs) -> np.ndarray:
    """Time-invariant per-subcarrier response of a hardware filter."""
    profile = fingerprint.profile
    return np.sqrt(profile.linear_powers) @ _steering(profile, _finite_freqs(subcarrier_freqs))


def add_awgn(signal, snr_db: Optional[float], stream: Stream, ref_power: Optional[float] = None):
    """Add circular complex white Gaussian noise at the requested SNR.

    Parameters
    ----------
    signal : complex array, one symbol per row along the last axis
    snr_db : float or None
        SNR in dB.  ``None`` (or ``+inf``) is the explicit noiseless flag and
        returns the signal unchanged, so exactness tests need no large-SNR
        approximation.
    stream : stream id
    ref_power : float, optional
        Power the SNR refers to.  ``None`` measures the mean power of each
        row of `signal` itself, so every trial of a batch is referenced to
        its own probe; passing ``1.0`` reproduces the unit-noise convention
        where 0 dB means noise variance exactly 1.
    """
    signal = np.asarray(signal, dtype=complex)
    if snr_db is None or math.isinf(snr_db):
        return signal.copy()
    if not math.isfinite(snr_db):
        raise ValueError("snr_db must be finite or the noiseless flag")
    if ref_power is None:
        ref_power = np.mean(np.abs(signal) ** 2, axis=-1, keepdims=True)
    noise_var = ref_power * 10.0 ** (-snr_db / 10.0)
    rng = as_rng(stream)
    noise = rng.standard_normal(signal.shape) + 1j * rng.standard_normal(signal.shape)
    return signal + np.sqrt(noise_var / 2.0) * noise
