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
took most of the cost of a Generator.

Sub-streams are derived with :func:`substream` by appending indices to the
key tuple.  This never mutates parent state, so the same key always yields
the same stream regardless of evaluation order or parallelism.

Stochastic kernel functions take an optional ``trials`` count.  With it they
draw every trial of a block from the one stream, as a leading array axis
(see :func:`batch_shape`); the number of streams, and of Generators built,
does not grow with the trial count.

The model samplers of :mod:`lockeysim.analysis` instead split a long draw
into fixed-size blocks, block ``i`` drawing from ``substream(stream, i)``.
Their Generators are built on the calling thread and the blocks filled by
:func:`run_indexed`, so the values depend on the key and the sample count
but not on the number of threads.  A block draws its Gaussians and, only
where the filters are not fully coupled, one filter phasor per sample.  Each
circular Gaussian takes two draws from the block's Generator, a uniform
phase and then an exponential power (the polar form).  Another exact
method, such as two ``standard_normal`` draws, would give other values
of the same law; the trial kernel draws its Gaussians that way.
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


def batch_shape(trials, *shape) -> tuple:
    """Shape of a draw of `shape` per trial; ``trials=None`` draws it once."""
    return shape if trials is None else (int(trials), *shape)


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
    entropy = np.array(_words(_as_key(stream)), dtype=np.uint32)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
