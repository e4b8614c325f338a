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

from ._rng import Stream, _unit_phasors, as_rng, batch_shape, substream


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
