"""One full probing round under each key-sourcing scheme.

A round spans two coherence slots.  In the first slot the parties probe
each other once on band 1 (the classical TDD exchange); in the second slot
each retransmits what it received, through band 2, so both observe a
product of the two directions' responses.  Because the product carries the
same pair of direction filters on both sides, fixed hardware asymmetry
cancels exactly.  The surface aggregate does not cancel when an attacker
desynchronizes the two directions, which is what the prediction-scalar
compensation of the third scheme targets.

Within a slot the air channel is reciprocal: one fading realization per
link is shared by both directions.  Each slot draws fresh independent
Gaussian taps for every link, one set per band; no channel aging between
the slots is modelled.

An environment drawn with ``trials=T`` holds T independent rounds along a
leading array axis, and every function below runs all of them at once; an
environment drawn without `trials` is one round with unbatched shapes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from ._rng import Stream, substream
from .analysis import DegenerateSampleError
from .fading import FadingProcess, fingerprint_response, frequency_response, make_fading_process
from .ofdm import OfdmConfig, generate_pilot, ls_estimate, probe
from .ris import apply_jamming, cascaded_gain, random_ris_state


class Scheme(enum.Enum):
    """Key-sourcing scheme of a probing round."""

    NON_LOOPBACK = "non_loopback"
    LOOPBACK = "loopback"
    LOCKEY = "lockey"


#: Sentinel for the prediction scalar fitted from the round's own
#: subcarriers instead of a pre-trained per-subcarrier value.
GAMMA_PER_ROUND = "per_round"

Gamma = Union[complex, np.ndarray, str]


#: Links of a band, in the order of their stream indices.
_BAND_LINKS = ("alice_bob", "alice_ris", "ris_bob")


@dataclass(frozen=True, eq=False)
class Environment:
    """Everything one probing round (or a block of `trials` rounds) needs,
    spanning both coherence slots.

    The fading is not stored: each link's realization is drawn from the
    environment's stream when a slot reads it.  The same stream always
    gives the same realization.  `profiles` also holds each direction's
    hardware filter: ``alice_hf`` for Alice's transmissions, ``bob_hf`` for
    Bob's.  `attacked` units of the surface are re-randomized between the
    two probes of each slot.
    """

    ofdm: OfdmConfig
    profiles: dict
    stream: Stream
    n_units: int
    attacked: int
    snr_db: Optional[float]
    pilot: np.ndarray
    noise_ref: Optional[float] = 1.0
    trials: Optional[int] = None

    def __post_init__(self):
        if self.n_units < 1:
            raise ValueError("n_units must be >= 1")
        if not 0 <= self.attacked <= self.n_units:
            raise ValueError(f"attacked must lie in [0, n_units={self.n_units}], got {self.attacked}")

    def _link(self, index: int) -> FadingProcess:
        """Fading of link ``_BAND_LINKS[index % 3]`` on band ``index // 3 + 1``,
        drawn from stream index `index`."""
        return make_fading_process(self.profiles[_BAND_LINKS[index % 3]], substream(self.stream, index),
                                   self.trials)


@dataclass(frozen=True, eq=False)
class RoundResult:
    """Paired key-source estimates produced by one round of one scheme."""

    scheme: Scheme
    key_source_alice: np.ndarray
    key_source_bob: np.ndarray
    gamma_used: Optional[np.ndarray]


def build_environment(
    ofdm: OfdmConfig,
    profiles: dict,
    n_units: int,
    attacked: int,
    snr_db: Optional[float],
    stream: Stream,
    noise_ref: Optional[float] = 1.0,
    trials: Optional[int] = None,
) -> Environment:
    """Draw a fresh environment realization, or `trials` independent ones.

    `profiles` maps the keys ``alice_bob``, ``alice_ris``, ``ris_bob``,
    ``alice_hf`` and ``bob_hf`` to tap profiles.  The two bands get
    independent fading realizations of the same profiles (stream indices
    0-2 and 3-5, drawn when a round reads them); the band carrier
    frequencies only label which realization a probe uses.
    """
    pilot = generate_pilot(ofdm, substream(stream, 6), trials)
    return Environment(
        ofdm=ofdm,
        profiles=profiles,
        stream=stream,
        n_units=n_units,
        attacked=attacked,
        snr_db=snr_db,
        pilot=pilot,
        noise_ref=noise_ref,
        trials=trials,
    )


def _exchange(env: Environment, first_link: int, stream: Stream, probes):
    """The two probes of one coherence slot, on the band whose links start at
    stream index `first_link`.

    `probes` yields the ``(sender, symbols)`` pair of each probe in the order
    they are sent; the sender, ``"alice"`` or ``"bob"``, selects the
    transmit filter.  Both probes share one fading realization per link
    (reciprocity within the slot), while the second sees the jammed version
    of the first probe's surface configuration.  Returns the receivers'
    least-squares estimates in probe order.
    """
    freqs = env.ofdm.subcarrier_freqs
    direct, h_ar, h_rb = (frequency_response(env._link(i), freqs) for i in range(first_link, first_link + 3))
    first = random_ris_state(env.n_units, substream(stream, 0), env.trials)
    states = (first, apply_jamming(first, env.attacked, substream(stream, 1)))
    return tuple(
        ls_estimate(probe(
            symbols, direct, cascaded_gain(h_ar, h_rb, state),
            fingerprint_response(env.profiles[f"{sender}_hf"], freqs), env.snr_db,
            substream(stream, noise_index), ref_power=env.noise_ref,
        ), env.pilot, env.ofdm)
        for noise_index, state, (sender, symbols) in zip((2, 3), states, probes)
    )


def measure_round(env: Environment, stream: Stream, swap_roles: bool = False):
    """First-slot probe exchange of the pilot on band 1, Alice probing first.

    Returns ``(H_A1, H_B1)``: the estimate measured by each party.

    With ``swap_roles`` the probe order is reversed (Bob transmits first),
    which together with swapped direction filters realizes the label-swap
    symmetry of the protocol exactly.
    """
    order = ("bob", "alice") if swap_roles else ("alice", "bob")
    first, second = _exchange(env, 0, stream, [(sender, env.pilot) for sender in order])
    # each estimate belongs to the party that received the probe
    return (first, second) if swap_roles else (second, first)


def loopback_combine(first_round, env: Environment, stream: Stream, swap_roles: bool = False):
    """Second-slot retransmission of the first-slot estimates on band 2, Bob
    looping back first (Alice first with ``swap_roles``).

    Each party modulates the pilot with the estimate it obtained in the
    first slot and sends it through the band-2 channel, so the peer's
    least-squares estimate is the product of both directions' responses:
    the direction-filter pair appears on both sides and cancels from their
    ratio.  Returns ``(H_A, H_B)``, the mutual estimates at each party.
    """
    h_a1, h_b1 = first_round
    order = (("alice", h_a1), ("bob", h_b1)) if swap_roles else (("bob", h_b1), ("alice", h_a1))
    # a generator: each payload is built when its probe is sent, so one
    # (trials, symbol_length) payload is alive at a time
    first, second = _exchange(env, 3, stream, ((sender, env.pilot * carried) for sender, carried in order))
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
    denom = np.sum(np.abs(h_a) ** 2, axis=0)
    if np.any(denom == 0):
        raise DegenerateSampleError("degenerate history: a subcarrier has all-zero reference values")
    return np.sum(h_b * np.conj(h_a), axis=0) / denom


def estimate_round_gamma(h_a, h_b, positions=None):
    """Single prediction scalar fitted across one round's subcarriers.

    The surface aggregate is common to all subcarriers, so the mismatch an
    attacker injects into one round is mostly a common complex factor; a
    scalar least-squares fit across the round's pilot subcarriers absorbs
    it without any training history.  Rows of a batch (subcarriers along
    the last axis) get one scalar each.
    """
    h_a = np.asarray(h_a, dtype=complex)
    h_b = np.asarray(h_b, dtype=complex)
    if h_a.shape != h_b.shape:
        raise ValueError("round sides differ in shape")
    if positions is not None:
        h_a = h_a[..., positions]
        h_b = h_b[..., positions]
    denom = np.sum(np.abs(h_a) ** 2, axis=-1)
    if np.any(denom == 0.0):
        raise DegenerateSampleError("degenerate round: all-zero reference values")
    return np.sum(h_b * np.conj(h_a), axis=-1) / denom


def apply_compensation(h_a, gamma) -> np.ndarray:
    """Predicted peer estimate: elementwise ``gamma * h_a``.

    `gamma` must broadcast to the shape of `h_a`: a scalar, a
    per-subcarrier vector, or one scalar per round as a ``(trials, 1)``
    column.
    """
    h_a = np.asarray(h_a, dtype=complex)
    gamma = np.asarray(gamma, dtype=complex)
    if np.broadcast(gamma, h_a).shape != h_a.shape:
        raise ValueError(f"gamma shape {gamma.shape} does not match estimate shape {h_a.shape}")
    return gamma * h_a


def run_round(
    scheme: Scheme,
    env: Environment,
    gamma: Optional[Gamma],
    stream: Stream,
    swap_roles: bool = False,
) -> RoundResult:
    """Execute one probing round and return the paired key sources.

    `gamma` is required exactly when the scheme is the compensated one; it
    is either a per-subcarrier array (pre-trained), a scalar, or
    ``GAMMA_PER_ROUND`` to fit the scalar from each round's own pilot
    subcarriers.  A batched environment gives key sources of shape
    ``(trials, symbol_length)``.  Deterministic: identical environment,
    scheme and stream produce bit-identical results.
    """
    scheme = Scheme(scheme)
    if scheme is Scheme.LOCKEY and gamma is None:
        raise ValueError("the compensated scheme requires a gamma (array, scalar, or GAMMA_PER_ROUND)")

    first = measure_round(env, substream(stream, 0), swap_roles=swap_roles)
    if scheme is Scheme.NON_LOOPBACK:
        h_a1, h_b1 = first
        return RoundResult(scheme, h_a1, h_b1, None)

    h_a, h_b = loopback_combine(first, env, substream(stream, 1), swap_roles=swap_roles)
    if scheme is Scheme.LOOPBACK:
        return RoundResult(scheme, h_a, h_b, None)

    if isinstance(gamma, str):
        if gamma != GAMMA_PER_ROUND:
            raise ValueError(f"unknown gamma policy {gamma!r}")
        gamma_value = estimate_round_gamma(h_a, h_b, env.ofdm.pilot_positions)[..., None]
    else:
        gamma_value = gamma
    predicted = apply_compensation(h_a, gamma_value)
    gamma_used = np.broadcast_to(np.asarray(gamma_value, dtype=complex), h_a.shape).copy()
    return RoundResult(scheme, predicted, h_b, gamma_used)
