"""Tapped-delay-line fading, fixed hardware filters, and receiver noise.

The air channel between two radios is a set of delayed taps whose complex
gains are independent circular complex Gaussian draws (Rayleigh fading),
each with the profile's power.  A realization is one static draw: no
Doppler evolution or channel aging is modelled, and a caller that needs the
channel of another coherence slot draws fresh independent taps.  Hardware
chains add a fixed multi-tap filter per transmission direction that never
changes over time.  Receiver noise is circular complex AWGN with variance
``10**(-snr_db/10)`` relative to a reference power (unit pilot power by
default, so 0 dB means unit noise variance).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._rng import Stream, _cartesian_normal, as_rng


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

    # The profile's fields are immutable, so the derived values below are
    # computed on first use and kept on the instance.
    @functools.cached_property
    def linear_powers(self) -> np.ndarray:
        """Read-only per-tap average power on a linear scale."""
        powers = 10.0 ** (np.asarray(self.powers_db, dtype=float) / 10.0)
        powers.setflags(write=False)
        return powers

    @functools.cached_property
    def total_power(self) -> float:
        return float(np.sum(self.linear_powers))

    @functools.cached_property
    def _component_std(self) -> np.ndarray:
        """Read-only standard deviation ``sqrt(power / 2)`` of the real and of
        the imaginary part of each tap gain."""
        std = np.sqrt(self.linear_powers / 2.0)
        std.setflags(write=False)
        return std


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


def make_fading_process(profile: TapProfile, stream: Stream, trials: int = 1) -> np.ndarray:
    """Draw ``(trials, n_taps)`` tap gains for `profile`: circular complex
    Gaussian with the profile's linear tap powers, independent across taps
    and trials (`trials` realizations from the one stream).  Deterministic
    for a fixed stream id; an invalid profile is rejected by TapProfile itself.
    """
    return _cartesian_normal(as_rng(stream), (trials, profile.n_taps), profile._component_std)


def _grid(subcarrier_freqs) -> tuple:
    """A frequency grid as the tuple the response caches are keyed by.  A
    tuple, such as ``OfdmConfig``'s cached pilot grid, is used as it is."""
    if type(subcarrier_freqs) is tuple:
        return subcarrier_freqs
    return tuple(np.asarray(subcarrier_freqs, dtype=float).ravel().tolist())


@functools.lru_cache(maxsize=64)
def _steering(profile: TapProfile, freqs: tuple) -> np.ndarray:
    """Read-only ``(n_taps, n_freqs)`` phase ramps ``exp(-2j*pi*f*delay)``.

    Cached by value: a profile and a frequency grid are constants of a
    configuration, and equal values share one matrix.  A grid is checked
    for finite frequencies when its matrix is built, so every grid is
    checked once and a non-finite one, never cached, is rejected each time.
    """
    freqs = np.asarray(freqs, dtype=float)
    if not np.all(np.isfinite(freqs)):
        raise ValueError("subcarrier frequencies must be finite")
    steering = np.exp(-2j * np.pi * np.outer(profile.delays_s, freqs))
    steering.setflags(write=False)
    return steering


def frequency_response(profile: TapProfile, gains, subcarrier_freqs) -> np.ndarray:
    """Per-subcarrier response ``(..., n_freqs)`` of the tapped-delay line
    with `profile`'s delays and the ``(..., n_taps)`` tap `gains`.

    The response at frequency f is ``sum_l gain_l * exp(-2j*pi*f*delay_l)``.
    """
    steering = _steering(profile, _grid(subcarrier_freqs))
    gains = np.asarray(gains)
    if gains.shape[-1:] != (profile.n_taps,):
        raise ValueError(f"gains of shape {gains.shape} do not hold the profile's {profile.n_taps} taps")
    # Not ``gains @ steering``: einsum without `optimize` calls no BLAS, which starts threads of its own.
    return np.einsum("...l,lf->...f", gains, steering)


def fingerprint_response(profile: TapProfile, subcarrier_freqs) -> np.ndarray:
    """Time-invariant per-subcarrier response of a hardware filter.

    The filter's tap amplitudes are the square roots of the profile's
    linear powers with zero phase, so the response is a constant of the
    device and transmission direction; it never varies with simulation time.
    It is cached by value like the steering matrix and returned read-only.
    """
    return _fingerprint(profile, _grid(subcarrier_freqs))


@functools.lru_cache(maxsize=64)
def _fingerprint(profile: TapProfile, freqs: tuple) -> np.ndarray:
    response = frequency_response(profile, np.sqrt(profile.linear_powers), freqs)
    response.setflags(write=False)
    return response


def add_awgn(signal, snr_db: Optional[float], stream: Stream, ref_power: Optional[float] = None):
    """Add circular complex white Gaussian noise at the requested SNR.

    Parameters
    ----------
    signal : complex array, one symbol per row along the last axis
    snr_db : float or None
        Finite SNR in dB.  ``None`` is the explicit noiseless flag and
        returns the signal unchanged, so exactness tests need no large-SNR
        approximation; an infinite or NaN value is rejected.
    stream : stream id
    ref_power : float, optional
        Power the SNR refers to.  ``None`` measures the mean power of each
        row of `signal` itself, so every trial of a batch is referenced to
        its own probe; passing ``1.0`` reproduces the unit-noise convention
        where 0 dB means noise variance exactly 1.
    """
    signal = np.asarray(signal, dtype=complex)
    if snr_db is None:
        return signal.copy()
    if not math.isfinite(snr_db):
        raise ValueError("snr_db must be finite or the noiseless flag")
    if ref_power is None:
        if signal.ndim == 0:
            raise ValueError("a 0-d signal has no row to measure its power over; pass ref_power")
        ref_power = np.mean(np.abs(signal) ** 2, axis=-1, keepdims=True)
    noise_var = ref_power * 10.0 ** (-snr_db / 10.0)
    noise = _cartesian_normal(as_rng(stream), signal.shape, np.sqrt(noise_var / 2.0))
    noise += signal
    return noise
