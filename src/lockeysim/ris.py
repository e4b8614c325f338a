"""Reflecting-surface state, its aggregate channel contribution, and jamming.

A surface of N units applies per-unit phase shifts to the impinging wave.
The aggregate contribution to the cascaded channel is the phasor sum
``Phi = sum_i on_off[i] * exp(1j * phases[i])``, a single complex scalar
that multiplies the cascaded link on every subcarrier.  An attacker that
controls the surface re-randomizes some units between the uplink and the
downlink probe of a slot, so the two directions see different aggregates.
A batched state carries one configuration per trial along a leading axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._rng import Stream, as_rng, batch_shape


@dataclass(frozen=True, eq=False)
class RisState:
    """On/off flags and phase shifts of every reflecting unit."""

    n_units: int
    on_off: np.ndarray   # ([trials,] N) of {0, 1}
    phases: np.ndarray   # ([trials,] N) in [0, 2*pi)

    def __post_init__(self):
        on_off = np.asarray(self.on_off, dtype=np.int8)
        phases = np.asarray(self.phases, dtype=float)
        object.__setattr__(self, "on_off", on_off)
        object.__setattr__(self, "phases", phases)
        if self.n_units < 1:
            raise ValueError("n_units must be >= 1")
        if on_off.shape != phases.shape or phases.shape[-1:] != (self.n_units,):
            raise ValueError("on_off and phases must both have length n_units")
        if not np.all((on_off == 0) | (on_off == 1)):
            raise ValueError("on_off entries must be 0 or 1")
        if np.any(phases < 0.0) or np.any(phases >= 2.0 * np.pi):
            raise ValueError("phases must lie in [0, 2*pi)")


@dataclass(frozen=True)
class JammerConfig:
    """Number of units the attacker re-randomizes between paired probes."""

    attacked_count: int = 0

    def __post_init__(self):
        if self.attacked_count < 0:
            raise ValueError("attacked_count must be >= 0")


def random_ris_state(n_units: int, stream: Stream, trials: Optional[int] = None) -> RisState:
    """Fresh configuration (one per trial with `trials`): all units on,
    phases i.i.d. uniform on [0, 2*pi)."""
    if n_units < 1:
        raise ValueError("n_units must be >= 1")
    rng = as_rng(stream)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=batch_shape(trials, n_units))
    return RisState(n_units, np.ones(phases.shape, dtype=np.int8), phases)


def aggregate_phase(state: RisState):
    """Aggregate reflection coefficient ``sum_i on_off[i] * exp(1j*phases[i])``.

    A complex scalar, or one per trial for a batched state.  The phasor-sum
    convention is used because the aggregate acts as a complex channel
    multiplier; a plain sum of phase angles would not be a channel gain.
    """
    return np.sum(state.on_off * np.exp(1j * state.phases), axis=-1)


def apply_jamming(up_state: RisState, jammer: JammerConfig, stream: Stream) -> RisState:
    """Downlink configuration after the attacker toyed with the surface.

    Exactly ``jammer.attacked_count`` randomly chosen units (chosen anew
    for each trial of a batched state) get fresh uniform phases; on/off
    flags and the remaining phases are untouched.  Deterministic for a fixed
    stream id.
    """
    k = jammer.attacked_count
    if k > up_state.n_units:
        raise ValueError(
            f"attacked_count {k} exceeds the {up_state.n_units} available units"
        )
    if k == 0:
        return up_state
    rng = as_rng(stream)
    # the k units with the smallest uniform keys: a uniform k-subset per row
    attacked = np.argsort(rng.random(up_state.phases.shape), axis=-1)[..., :k]
    phases = up_state.phases.copy()
    np.put_along_axis(phases, attacked, rng.uniform(0.0, 2.0 * np.pi, size=attacked.shape), axis=-1)
    return RisState(up_state.n_units, up_state.on_off.copy(), phases)


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
