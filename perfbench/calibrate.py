"""Fixed calibration kernels that gauge the host's current speed.

On a shared host the same work can take 0.55 s or 1.2 s depending on what
the neighbours do, in phases that last seconds; the process's CPU time moves
with its wall time, so the slowdown is not time spent descheduled.  The
benchmark therefore brackets every timed repetition with one of these
kernels and reports times scaled to the kernel's reference duration:

    scaled = measured * REFERENCE_S[kernel] / kernel_seconds_around_it

Each kernel does a fixed amount of work that resembles one workload kind and
uses only numpy, never the package under test, so a change to the package
cannot move it.  The reference durations are round figures near the
kernels' times on an Intel Xeon VM with 2 vCPUs, Python 3.11 and numpy 2.4
(0.15-0.25 s); they only fix the unit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

#: Kernel duration, in seconds, that the scaled times are expressed against.
REFERENCE_S = {"interpreter": 0.25, "vector": 0.25}

_FREQS = np.arange(64) * 15e3
_PILOTS = np.arange(0, 64, 5)
_DELAYS = np.array([0.0, 0.11e-6, 0.57e-6, 1.9e-6, 2.51e-6])
_POWERS = 10.0 ** (np.array([0.0, -2.2, -10.5, -6.6, -10.8]) / 10.0)


@dataclass(frozen=True)
class _Channel:
    amplitudes: np.ndarray
    rates: np.ndarray
    phases: np.ndarray

    def __post_init__(self):
        if self.rates.shape != self.phases.shape:
            raise ValueError("shape mismatch")


def _stream(*key):
    return np.random.default_rng(np.random.SeedSequence(tuple(int(k) for k in key)))


def _channel(key):
    rng = _stream(*key)
    angles = rng.uniform(0.0, 2.0 * np.pi, size=(5, 32))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(5, 32))
    return _Channel(np.sqrt(_POWERS / 32), 2.0 * np.pi * 5.0 * np.cos(angles), phases)


def _response(channel, t):
    gains = channel.amplitudes * np.exp(1j * (channel.rates * t + channel.phases)).sum(axis=1)
    return np.exp(-2j * np.pi * np.outer(_FREQS, _DELAYS)) @ gains


def _estimate(clean, key):
    rng = _stream(*key)
    received = clean + np.sqrt(0.05) * (rng.standard_normal(64) + 1j * rng.standard_normal(64))
    at_pilots = received[_PILOTS]
    every = np.arange(64)
    return np.interp(every, _PILOTS, at_pilots.real) + 1j * np.interp(every, _PILOTS, at_pilots.imag)


def _interpreter(rounds=240):
    """Probing rounds in the style of the simulator's per-trial kernel.

    Each round draws six fading channels and two surface states from
    freshly hashed streams, evaluates band responses, probes and
    interpolates four estimates, and quantizes a block at the end: the
    same numpy calls on the same small arrays, through many small Python
    functions and frozen dataclasses.
    """
    alice = np.empty((rounds, _PILOTS.size))
    for r in range(rounds):
        channels = [_channel((7, r, i)) for i in range(6)]
        surface = _stream(7, r, 6).uniform(0.0, 2.0 * np.pi, size=30)
        jammed = surface.copy()
        rng = _stream(7, r, 7)
        jammed[rng.choice(30, size=5, replace=False)] = rng.uniform(0.0, 2.0 * np.pi, size=5)
        estimates = []
        for probe in range(4):
            direct, h_in, h_out = (_response(c, probe * 1e-3) for c in channels[3 * (probe // 2):][:3])
            phi = np.sum(np.exp(1j * (surface if probe % 2 == 0 else jammed)))
            estimates.append(_estimate(direct + h_in * h_out * phi, (7, r, 8 + probe)))
        alice[r] = np.abs(estimates[0] * estimates[2])[_PILOTS]
    for column in alice.T:
        np.digitize(column, np.percentile(column, [25.0, 50.0, 75.0]))
    return float(alice.sum())


def _vector(n=1_000_000, chunk=125_000, rounds=3):
    """A few passes over a million complex samples, like the oracle samplers.

    The samples are drawn in chunks so the kernel's own memory stays far
    below the oracle's and does not set the worker's peak resident memory.
    """
    rng = np.random.default_rng(np.random.SeedSequence((7, 0)))
    total = 0.0
    for _ in range(rounds * n // chunk):
        x = rng.standard_normal(chunk) + 1j * rng.standard_normal(chunk)
        y = 0.5 * x + rng.standard_normal(chunk) + 1j * rng.standard_normal(chunk)
        total += float(np.mean(x * np.conj(y)).real) + float(np.mean(np.abs(y) ** 2))
    return total


KERNELS = {"interpreter": _interpreter, "vector": _vector}

#: Kernel runs per measurement.  The host's speed also jitters at the
#: sub-second scale; one run's jitter would dominate the scaled time.
RUNS = 3


def measure(kernel: str, runs: int = RUNS) -> float:
    """Mean wall seconds of `runs` runs of `kernel`."""
    start = time.perf_counter()
    for _ in range(runs):
        KERNELS[kernel]()
    return (time.perf_counter() - start) / runs


def scale(seconds: float, kernel: str, kernel_seconds: float) -> float:
    """`seconds` expressed at the kernel's reference speed."""
    return seconds * REFERENCE_S[kernel] / kernel_seconds
