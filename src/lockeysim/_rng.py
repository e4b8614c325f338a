"""Deterministic random-stream handling.

Every stochastic operation in this package takes a ``stream`` argument that
identifies an independent random stream.  A stream is an ``int`` or a
tuple of non-negative ints, hashed through ``numpy.random.SeedSequence``,
so distinct tuples give statistically independent streams.  Any other
object, a ``Generator`` included, raises a ``TypeError``.

Sub-streams are derived with :func:`substream` by appending indices to the
key tuple.  This never mutates parent state, so the same key always yields
the same stream regardless of evaluation order or parallelism.

Stochastic kernel functions take an optional ``trials`` count.  With it they
draw every trial of a block from the one stream, as a leading array axis
(see :func:`batch_shape`); the number of streams, and of Generators built,
does not grow with the trial count.

The model samplers of :mod:`lockeysim.analysis` instead split a long draw
into fixed-size blocks, block ``i`` drawing from ``substream(stream, i)``.
Their Generators are built on the calling thread and the blocks filled on
a thread pool, so the values depend on the key and the sample count but not
on the number of threads.  A block draws its Gaussians and, only where the
filters are not fully coupled, one filter phasor per sample.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

Stream = Union[int, Sequence[int]]


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


def as_rng(stream) -> np.random.Generator:
    """Materialize a stream identifier into a numpy Generator."""
    return np.random.default_rng(np.random.SeedSequence(_as_key(stream)))
