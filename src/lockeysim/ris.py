"""Reflecting-surface state, its aggregate channel contribution, and jamming.

A surface of N units applies per-unit phase shifts to the impinging wave.
The aggregate contribution to the cascaded channel is the phasor sum
``Phi = sum_i exp(1j * phases[i])``, a single complex scalar that
multiplies the cascaded link on every subcarrier.  An attacker that controls
the surface re-randomizes some units between the uplink and the downlink
probe of a slot, so the two directions see different aggregates.
A batched state carries one configuration per trial along a leading axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._rng import Stream, as_rng, batch_shape


@dataclass(frozen=True, eq=False)
class RisState:
    """Phase shifts of every reflecting unit; all units reflect."""

    phases: np.ndarray   # ([trials,] N) in [0, 2*pi)

    def __post_init__(self):
        phases = np.asarray(self.phases, dtype=float)
        object.__setattr__(self, "phases", phases)
        if np.any(phases < 0.0) or np.any(phases >= 2.0 * np.pi):
            raise ValueError("phases must lie in [0, 2*pi)")

    @property
    def n_units(self) -> int:
        return self.phases.shape[-1]


def random_ris_state(n_units: int, stream: Stream, trials: Optional[int] = None) -> RisState:
    """Fresh configuration (one per trial with `trials`): phases i.i.d.
    uniform on [0, 2*pi)."""
    if n_units < 1:
        raise ValueError("n_units must be >= 1")
    rng = as_rng(stream)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=batch_shape(trials, n_units))
    return RisState(phases)


def aggregate_phase(state: RisState):
    """Aggregate reflection coefficient ``sum_i exp(1j*phases[i])``.

    A complex scalar, or one per trial for a batched state.  The phasor-sum
    convention is used because the aggregate acts as a complex channel
    multiplier; a plain sum of phase angles would not be a channel gain.
    """
    return np.sum(np.exp(1j * state.phases), axis=-1)


def apply_jamming(up_state: RisState, attacked: int, stream: Stream) -> RisState:
    """Downlink configuration after the attacker toyed with the surface.

    Exactly `attacked` randomly chosen units (chosen anew for each trial of
    a batched state) get fresh uniform phases; the remaining phases are
    untouched.  Deterministic for a fixed stream id.
    """
    if not 0 <= attacked <= up_state.n_units:
        raise ValueError(
            f"attacked must lie in [0, {up_state.n_units}] (the surface's units), got {attacked}"
        )
    if attacked == 0:
        return up_state
    rng = as_rng(stream)
    # the units with the `attacked` smallest uniform keys: a uniform subset per row
    units = np.argsort(rng.random(up_state.phases.shape), axis=-1)[..., :attacked]
    phases = up_state.phases.copy()
    np.put_along_axis(phases, units, rng.uniform(0.0, 2.0 * np.pi, size=units.shape), axis=-1)
    return RisState(phases)


def cascaded_gain(h_in, h_out, state: RisState) -> np.ndarray:
    """Per-subcarrier cascaded-link gain ``h_in * h_out * Phi``.

    `h_in` and `h_out` are the two sub-channel responses on either side of
    the surface; the product times the aggregate reflection coefficient is
    the contribution the surface adds to the end-to-end channel.  For a
    batched state each trial's aggregate scales that trial's row.
    """
    h_in = np.asarray(h_in, dtype=complex)
    h_out = np.asarray(h_out, dtype=complex)
    if h_in.shape != h_out.shape:
        raise ValueError(f"sub-channel shapes differ: {h_in.shape} vs {h_out.shape}")
    return h_in * h_out * aggregate_phase(state)[..., None]
