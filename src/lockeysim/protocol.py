"""One full probing round and the key sources each scheme reads from it.

A round spans two coherence slots.  In the first slot the parties probe
each other once on band 1 (the classical TDD exchange); in the second slot
each retransmits what it received, through band 2, so both observe a
product of the two directions' responses.  Because the product carries the
same pair of direction filters on both sides, fixed hardware asymmetry
cancels exactly.  The surface aggregate does not cancel when an attacker
desynchronizes the two directions, which is what the prediction-scalar
compensation of the third scheme targets.

The three schemes are three readings of one round, so `run_round` runs the
two slots once and returns every scheme's pair: the plain exchange reads
the first slot, the loop-back reads the second slot's products, and the
compensated scheme scales Alice's product by the prediction scalar.

Within a slot the air channel is reciprocal: one fading realization per
link is shared by both directions.  Each slot draws fresh independent
Gaussian taps for every link, one set per band; no channel aging between
the slots is modelled.  The surface enters a slot only through its two
aggregates from `ris.surface_aggregates`, one per probe, each scaling the
slot's cascaded product ``h_ar * h_rb``.

An environment built with ``trials=T`` holds T independent rounds along a
leading array axis, and every function below runs all of them at once; an
environment built without `trials` is one round with unbatched shapes.

`Environment.stream` is the only key of a round; every draw of slot s
(0 for the exchange, 1 for the loop-back) is keyed below it:

- link i of ``alice_bob``, ``alice_ris``, ``ris_bob``: ``(stream, 0, 3*s + i)``;
- the slot's two surface aggregates: ``(stream, 1, s)``;
- the noise of the slot's first and second probe: ``(stream, 1, s, 2)`` and
  ``(stream, 1, s, 3)``.

The same environment therefore always gives the same round, and the two
slots never share a draw.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._rng import Stream, substream
from .analysis import DegenerateSampleError, _moment_sums
from .fading import add_awgn, fingerprint_response, frequency_response, make_fading_process
from .ofdm import OfdmConfig
from .ris import surface_aggregates


class Scheme(enum.Enum):
    """Key-sourcing scheme of a probing round."""

    NON_LOOPBACK = "non_loopback"
    LOOPBACK = "loopback"
    LOCKEY = "lockey"


#: Links of a slot, in the order of their stream indices.
_SLOT_LINKS = ("alice_bob", "alice_ris", "ris_bob")


@dataclass(frozen=True, eq=False)
class Environment:
    """Everything one probing round (or a block of `trials` rounds) needs,
    spanning both coherence slots.

    `profiles` maps the keys ``alice_bob``, ``alice_ris``, ``ris_bob``,
    ``alice_hf`` and ``bob_hf`` to tap profiles; the last two are each
    direction's hardware filter: ``alice_hf`` for Alice's transmissions,
    ``bob_hf`` for Bob's.  `attacked` units of the surface are re-randomized
    between the two probes of each slot.

    The fading is not stored: each link's realization is drawn from
    `stream` when a slot reads it (see the module docstring for the keys).
    The two slots get independent realizations of the same profiles; the
    band carrier frequencies only label which realization a probe uses.
    An invalid surface range is rejected by `ris.surface_aggregates` when
    the first slot is drawn.
    """

    ofdm: OfdmConfig
    profiles: dict
    n_units: int
    attacked: int
    snr_db: Optional[float]
    stream: Stream
    noise_ref: Optional[float] = 1.0
    trials: Optional[int] = None


def _exchange(env: Environment, slot: int, probes):
    """The two probes of coherence slot `slot` (0 or 1), each draw keyed by
    ``env.stream`` as the module docstring lays out.

    `probes` yields the ``(sender, payload)`` pair of each probe in the order
    they are sent; the sender, ``"alice"`` or ``"bob"``, selects the
    transmit filter, and the payload (None for a bare probe) multiplies the
    channel.  Both probes share one fading realization per link
    (reciprocity within the slot) and so one cascaded product, which each
    probe scales by its own surface aggregate: the second probe's has the
    `attacked` units redrawn.  Every response is evaluated on the pilot
    subcarriers only.  Returns the receivers' channel estimates in probe
    order: ``filter * (direct + cascade * aggregate) * payload`` plus the
    probe's noise.

    No pilot symbol is drawn.  A least-squares estimate from a known
    unit-modulus pilot p is that same channel plus ``noise / p``, and since
    p is drawn independently of the noise and the noise is i.i.d. circular
    Gaussian, rotating it by p leaves its law unchanged: an estimate is
    distributed exactly as the channel plus the noise itself.  Because
    ``|p|**2 == 1`` the `measured` noise reference, the mean received power
    of the probe, is the same with or without the pilot.
    """
    freqs = env.ofdm._pilot_grid
    profiles = [env.profiles[link] for link in _SLOT_LINKS]
    gains = (make_fading_process(profile, substream(env.stream, 0, 3 * slot + i), env.trials)
             for i, profile in enumerate(profiles))
    direct, h_ar, h_rb = (frequency_response(profile, g, freqs) for profile, g in zip(profiles, gains))
    cascade = h_ar * h_rb
    stream = substream(env.stream, 1, slot)
    aggregates = surface_aggregates(env.n_units, env.attacked, stream, env.trials)
    estimates = []
    for noise_index, phi, (sender, payload) in zip((2, 3), aggregates, probes):
        clean = fingerprint_response(env.profiles[f"{sender}_hf"], freqs) * (direct + cascade * phi[..., None])
        if payload is not None:
            clean *= payload
        estimates.append(add_awgn(clean, env.snr_db, substream(stream, noise_index), ref_power=env.noise_ref))
    return tuple(estimates)


def measure_round(env: Environment, swap_roles: bool = False):
    """First-slot probe exchange on band 1, Alice probing first.

    Returns ``(H_A1, H_B1)``: the estimate measured by each party.

    With ``swap_roles`` the probe order is reversed (Bob transmits first),
    which together with swapped direction filters realizes the label-swap
    symmetry of the protocol exactly.
    """
    order = ("bob", "alice") if swap_roles else ("alice", "bob")
    first, second = _exchange(env, 0, [(sender, None) for sender in order])
    # each estimate belongs to the party that received the probe
    return (first, second) if swap_roles else (second, first)


def loopback_combine(first_round, env: Environment, swap_roles: bool = False):
    """Second-slot retransmission of the first-slot estimates on band 2, Bob
    looping back first (Alice first with ``swap_roles``).

    Each party sends the estimate it obtained in the first slot through the
    band-2 channel, so the peer's estimate is the product of both
    directions' responses:
    the direction-filter pair appears on both sides and cancels from their
    ratio.  Returns ``(H_A, H_B)``, the mutual estimates at each party.
    """
    h_a1, h_b1 = first_round
    order = (("alice", h_a1), ("bob", h_b1)) if swap_roles else (("bob", h_b1), ("alice", h_a1))
    first, second = _exchange(env, 1, order)
    return (second, first) if swap_roles else (first, second)


def estimate_gamma(history_a, history_b, min_rounds: int = 200) -> np.ndarray:
    """Per-subcarrier prediction scalar fitted over a history window.

    For each subcarrier k the estimate is
    ``sum_r H_B[r, k] * conj(H_A[r, k]) / sum_r |H_A[r, k]|^2``,
    the sample form of the error-power minimizer, with the sums running
    over the window's rounds.
    """
    h_a = np.atleast_2d(np.asarray(history_a, dtype=complex))
    h_b = np.atleast_2d(np.asarray(history_b, dtype=complex))
    if h_a.shape != h_b.shape:
        raise ValueError("history sides differ in shape")
    if h_a.shape[0] < min_rounds:
        raise ValueError(
            f"history of {h_a.shape[0]} rounds is shorter than the minimum {min_rounds}"
        )
    denom, cross = _moment_sums(h_b, h_a, "yy xy")
    if np.any(denom == 0):
        raise DegenerateSampleError("degenerate history: a subcarrier has all-zero reference values")
    return cross / denom


def run_round(env: Environment, gamma=None, swap_roles: bool = False):
    """Execute one two-slot probing round and read every scheme's key sources
    from it.

    Returns ``(sources, gamma_applied)``.  `sources` maps each `Scheme` to
    its ``(alice, bob)`` pair: the first-slot estimates for the plain
    exchange, the loop-back products for the loop-back scheme, and for the
    compensated scheme Alice's product times gamma with Bob's product.
    Key sources hold one entry per pilot subcarrier: shape
    ``(pilot_positions.size,)``, or ``(trials, pilot_positions.size)`` for a
    batched environment.

    With ``gamma=None`` each round fits one prediction scalar pooled over
    its pilot subcarriers, ``sum H_B * conj(H_A) / sum |H_A|^2``: the surface
    aggregate is common to all subcarriers, so the mismatch an attacker
    injects into a round is mostly one complex factor, absorbed without any
    training history.  A batched round gets a ``(trials, 1)`` column; an
    all-zero loop-back side raises `DegenerateSampleError`.  A given `gamma`
    (a scalar or a per-subcarrier array) must broadcast to the estimates'
    shape, else ValueError.  `gamma_applied` is the value that scaled
    Alice's side: the fit, or the given object itself.  Deterministic: an
    identical environment produces bit-identical results.
    """
    first = measure_round(env, swap_roles=swap_roles)
    h_a, h_b = loopback_combine(first, env, swap_roles=swap_roles)
    if gamma is None:
        power = np.sum(np.abs(h_a) ** 2, axis=-1, keepdims=True)
        if np.any(power == 0.0):
            raise DegenerateSampleError("degenerate round: all-zero reference values")
        gamma = np.sum(h_b * np.conj(h_a), axis=-1, keepdims=True) / power
    elif np.broadcast_shapes(np.shape(gamma), h_a.shape) != h_a.shape:
        raise ValueError(f"gamma shape {np.shape(gamma)} does not match estimate shape {h_a.shape}")
    sources = {
        Scheme.NON_LOOPBACK: first,
        Scheme.LOOPBACK: (h_a, h_b),
        Scheme.LOCKEY: (np.asarray(gamma, dtype=complex) * h_a, h_b),
    }
    return sources, gamma
