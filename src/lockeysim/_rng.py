"""Deterministic random-stream handling.

Every stochastic operation in this package takes a ``stream`` argument that
identifies an independent random stream.  A stream is an ``int`` or a
tuple of non-negative ints, hashed through ``numpy.random.SeedSequence``,
so distinct tuples give statistically independent streams.  Any other
object, a ``Generator`` included, raises a ``TypeError``, and a negative
component a ``ValueError``.

:func:`as_rng` hands ``SeedSequence`` the key already split into its
little-endian 32-bit words (a component of 0 is one word), as a ``uint32``
array.  That is the array numpy itself builds from a tuple key, so the
entropy pool, and every draw, is the one ``default_rng(SeedSequence(key))``
gives; building it here only skips numpy's per-component conversion, which
took most of the cost of a Generator.  A key whose components each fit in
one word is that array already and goes to ``np.array`` as it is; only a
key that overflows ``uint32`` (a wide or a negative component) is split.

Sub-streams are derived with :func:`substream` by appending indices to the
key tuple.  This never mutates parent state, so the same key always yields
the same stream regardless of evaluation order or parallelism.

Stochastic kernel functions take a ``trials`` count (1 by default) and draw
every trial of a block from the one stream, as a leading array axis of that
length; the number of streams, and of Generators built, does not grow with
the trial count.

The model samplers of :mod:`lockeysim.analysis` instead split a long draw
into fixed-size blocks, block ``i`` drawing from ``substream(stream, i)``.
Their Generators are built on the calling thread and the blocks filled by
:func:`run_indexed`, so the values depend on the key and the sample count
but not on the number of threads.

This module also makes every random value of the package from a Generator:
:func:`_unit_phasors` (surface units, filter phasors), :func:`_complex_normal`
(the samplers' Gaussians, polar form) and :func:`_cartesian_normal` (tap gains
and receiver noise, ``standard_normal`` pairs).  The first two share the
tangent-phasor kernel :func:`_phasors`.
"""

from __future__ import annotations

from typing import Callable, Sequence, Union

import numpy as np

Stream = Union[int, Sequence[int]]


def run_indexed(fn: Callable, count: int, workers: int) -> list:
    """``[fn(i) for i in range(count)]`` on ``min(workers, count)`` threads,
    inline for one.  Each ``fn(i)`` must draw only from streams keyed by its
    own index, so the values depend on the keys, never on the thread count."""
    workers = min(workers, count)
    if workers <= 1:
        return [fn(i) for i in range(count)]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(count)))


def _as_key(stream) -> tuple:
    if isinstance(stream, (int, np.integer)):
        return (int(stream),)
    if isinstance(stream, (tuple, list)):
        return tuple(int(k) for k in stream)
    raise TypeError(f"a stream is an int or a tuple of ints, not {type(stream).__name__}")


def substream(stream, *indices: int):
    """Derive an independent child stream key from `stream` and `indices`."""
    return _as_key(stream) + tuple(int(i) for i in indices)


def _words(key: tuple) -> list:
    """The little-endian 32-bit words of each key component, in key order."""
    words = []
    for component in key:
        if component < 0:
            raise ValueError(f"stream components must be non-negative, got {component}")
        words.append(component & 0xFFFFFFFF)
        component >>= 32
        while component:
            words.append(component & 0xFFFFFFFF)
            component >>= 32
    return words


def as_rng(stream) -> np.random.Generator:
    """Materialize a stream identifier into a numpy Generator."""
    key = _as_key(stream)
    try:
        entropy = np.array(key, dtype=np.uint32)
    except OverflowError:
        entropy = np.array(_words(key), dtype=np.uint32)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def _phasors(t: np.ndarray, out: np.ndarray, twice_amplitude) -> np.ndarray:
    """``twice_amplitude / 2 * exp(2j * arctan(t))``, written into the complex
    array `out` of the shape of the tangents `t` and returned.

    The phasor is ``(1 - t**2 + 2j*t) / (1 + t**2)``, formed as real part
    ``2 / (1 + t**2) - 1`` and imaginary part ``t * 2 / (1 + t**2)``, each
    scaled by half of `twice_amplitude`: the float 2.0 for unit phasors or
    an array of doubled amplitudes, which is halved in place.  NumPy's
    float64 ``tan`` is vectorized where ``cos`` and ``sin`` are scalar libm
    calls, so this costs about a fifth of writing both, while a unit phasor
    stays within 4 eps of ``exp(2j * half_angle)`` in value and in modulus,
    also at half-angles 0 and pi/2.
    """
    np.multiply(t, t, out=out.real)
    out.real += 1.0
    np.divide(twice_amplitude, out.real, out=out.real)
    np.multiply(t, out.real, out=out.imag)
    twice_amplitude *= 0.5
    out.real -= twice_amplitude
    return out


def _unit_phasors(rng: np.random.Generator, shape) -> np.ndarray:
    """Unit phasors of uniform phases from `rng`, drawn as ``uniform(0, pi,
    shape)`` half-angles: exactly the halves of ``uniform(0, 2*pi, shape)``."""
    t = rng.uniform(0.0, np.pi, shape)
    return _phasors(np.tan(t, out=t), np.empty(t.shape, dtype=complex), 2.0)


def _complex_normal(rng: np.random.Generator, var: float, m: int, out=None) -> np.ndarray:
    """`m` circular complex Gaussians of variance `var`, written into the
    complex array `out` when one is given.

    Drawn in polar form: the power ``|z|**2`` of such a Gaussian is `var`
    times a standard exponential E, and its phase is uniform and independent
    of it.  The phase's half-angle tangents and the doubled amplitudes
    ``2 * sqrt(var * E)`` go to :func:`_phasors`; these two float buffers of
    `m` values are the only temporaries.
    """
    t = rng.random(m)
    np.tan(np.multiply(t, np.pi, out=t), out=t)
    r = rng.standard_exponential(m)
    np.sqrt(np.multiply(r, 4.0 * var, out=r), out=r)
    return _phasors(t, np.empty(m, dtype=complex) if out is None else out, r)


def _cartesian_normal(rng: np.random.Generator, shape, std) -> np.ndarray:
    """Circular complex Gaussians of `shape`, the real and the imaginary part
    each of standard deviation `std` (a float or an array broadcasting to
    `shape`): ``standard_normal`` (re, im) pairs viewed as complex and
    scaled in place."""
    z = rng.standard_normal((*shape, 2)).view(complex)[..., 0]
    z *= std
    return z
