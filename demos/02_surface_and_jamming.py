"""Reflecting-surface aggregates and the desynchronization attack.

Shows the phasor-sum statistics of random surface configurations and how
re-randomizing a subset of units between the two probes of a slot
decorrelates the uplink and downlink aggregates.
"""

import numpy as np

from lockeysim.ris import aggregate_phase, apply_jamming, random_ris_state

N = 30

print("== aggregate of random configurations ==")
aggregates = aggregate_phase(random_ris_state(N, (1,), trials=20_000))
print(f"  E[Phi]   = {np.mean(aggregates):+.4f} (vanishes for uniform phases)")
print(f"  E[|Phi|^2] = {np.mean(np.abs(aggregates) ** 2):.2f} (one per unit, {N} units)")
print(f"  |Phi| <= N held in all draws: {bool(np.all(np.abs(aggregates) <= N + 1e-9))}")

print("\n== uplink/downlink correlation vs attacked units ==")
for attacked in (0, 5, 20, 30):
    state = random_ris_state(N, (2, attacked), trials=20_000)
    up = aggregate_phase(state)
    down = aggregate_phase(apply_jamming(state, attacked, (3, attacked)))
    rho = np.mean(up * np.conj(down)) / np.mean(np.abs(up) ** 2)
    print(f"  attacked {attacked:2d}/{N}: corr(Phi_up, Phi_down) = {rho.real:+.3f} "
          f"(kept fraction {(N - attacked) / N:.3f})")
