"""Reflecting-surface aggregates and the desynchronization attack.

Shows the phasor-sum statistics of random surface configurations and how
re-randomizing a subset of units between the two probes of a slot
decorrelates the uplink and downlink aggregates.
"""

import numpy as np

from lockeysim.ris import surface_aggregates

N = 30

print("== aggregate of random configurations ==")
aggregates, _ = surface_aggregates(N, 0, (1,), trials=20_000)
print(f"  E[Phi]   = {np.mean(aggregates):+.4f} (vanishes for uniform phases)")
print(f"  E[|Phi|^2] = {np.mean(np.abs(aggregates) ** 2):.2f} (one per unit, {N} units)")
print(f"  E[|Phi|^4] = {np.mean(np.abs(aggregates) ** 4):.0f} (2N^2 - N = {2 * N * N - N})")
print(f"  |Phi| <= N held in all draws: {bool(np.all(np.abs(aggregates) <= N + 1e-9))}")

print("\n== uplink/downlink correlation vs attacked units ==")
for attacked in (0, 5, 20, 30):
    up, down = surface_aggregates(N, attacked, (2, attacked), trials=20_000)
    rho = np.mean(down * np.conj(up)) / np.mean(np.abs(up) ** 2)
    print(f"  attacked {attacked:2d}/{N}: corr(Phi_up, Phi_down) = {rho.real:+.3f} "
          f"(kept fraction {(N - attacked) / N:.3f})")
