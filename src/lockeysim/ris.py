"""Aggregate reflection coefficients of a jammable reflecting surface.

A surface of N units applies per-unit phase shifts to the impinging wave.
Its contribution to the cascaded channel is the phasor sum
``Phi = sum_i exp(1j * phases[i])``, a single complex scalar that
multiplies the cascaded link on every subcarrier.  An attacker that controls
the surface re-randomizes some units between the uplink and the downlink
probe of a slot, so the two directions see different aggregates Phi1 and
Phi2.  `surface_aggregates` draws both for one slot, or one pair per trial
along a leading axis.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ._rng import Stream, as_rng, batch_shape, substream


def _phasors(half_angles: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """``exp(2j * half_angles)`` of a float64 array, which it overwrites,
    written into the complex array `out` of the same shape when one is given.

    With ``t = tan(half_angles)`` the phasor is ``(1 - t**2 + 2j*t) / (1 +
    t**2)``, formed as real part ``2 / (1 + t**2) - 1`` and imaginary part
    ``t * 2 / (1 + t**2)``.  NumPy's float64 ``tan`` is vectorized where
    ``cos`` and ``sin`` are scalar libm calls, so this costs about a fifth
    of writing both, while the result stays within 4 eps of
    ``exp(2j * half_angles)`` in value and in modulus, also at half-angles 0
    and pi/2.  `half_angles` is overwritten with ``t``: every caller drops
    the draw once it has its phasors, so the only allocation is the complex
    output, and none with `out`.
    """
    t = np.tan(half_angles, out=half_angles)
    phasors = np.empty(t.shape, dtype=complex) if out is None else out
    scale = phasors.real
    np.multiply(t, t, out=scale)
    scale += 1.0
    np.divide(2.0, scale, out=scale)
    np.multiply(t, scale, out=phasors.imag)
    scale -= 1.0
    return phasors


def _unit_phasors(rng, shape) -> np.ndarray:
    """Unit phasors of uniform phases from `rng`, drawn as ``uniform(0, pi,
    shape)`` half-angles: exactly the halves of ``uniform(0, 2*pi, shape)``."""
    return _phasors(rng.uniform(0.0, np.pi, shape))


def surface_aggregates(n_units: int, attacked: int, stream: Stream, trials: Optional[int] = None):
    """Aggregates ``(phi_first, phi_second)`` the two probes of a slot see.

    The first probe's phases are i.i.d. uniform on [0, 2*pi), drawn from
    ``substream(stream, 0)``.  Before the second probe exactly `attacked`
    units, chosen anew for each trial, get fresh uniform phases from
    ``substream(stream, 1)``: a uniform key per unit, the `attacked`
    smallest keys picking the units, then one phase per picked unit.  With
    ``attacked == 0`` nothing is redrawn and the first aggregate is returned
    twice.  Each aggregate is a complex scalar, or one per trial.
    """
    if n_units < 1:
        raise ValueError("n_units must be >= 1")
    if not 0 <= attacked <= n_units:
        raise ValueError(f"attacked must lie in [0, {n_units}] (the surface's units), got {attacked}")
    # the phasors are computed once; the attacked units are overwritten in place
    phasors = _unit_phasors(as_rng(substream(stream, 0)), batch_shape(trials, n_units))
    phi_first = np.sum(phasors, axis=-1)
    if attacked == 0:
        return phi_first, phi_first
    rng = as_rng(substream(stream, 1))
    units = np.argsort(rng.random(phasors.shape), axis=-1)[..., :attacked]
    index = units if trials is None else (np.arange(trials)[:, None], units)
    phasors[index] = _unit_phasors(rng, units.shape)
    return phi_first, np.sum(phasors, axis=-1)
