"""The three key-sourcing schemes read from one probing round.

Runs one two-slot round under a jamming attack and reads the plain probe
exchange, the loop-back retransmission, and the loop-back with
prediction-scalar compensation from it, comparing the correlation of the
paired key sources.  Also demonstrates the
exact hardware cancellation of the loop-back without an attack.
"""

import numpy as np

from lockeysim.analysis import correlation
from lockeysim.config import build_config
from lockeysim.protocol import Environment, Scheme, run_round

config = build_config({})

print("== hardware cancellation without an attack (noiseless) ==")
env = Environment(config.ofdm, config.profiles, 30, 0, None, (1,), trials=1)
alice, bob = run_round(env)[0][Scheme.LOOPBACK]
gap = np.max(np.abs(alice - bob))
print(f"  distinct direction filters, yet max |H_A - H_B| = {gap:.2e}")

print("\n== key-source correlation under jamming (5 of 30 units, 10 dB) ==")
env = Environment(config.ofdm, config.profiles, 30, 5, 10.0, (3,), trials=400)
sources, gamma = run_round(env)
print(f"  one round of 400 trials, mean |gamma| = {np.mean(np.abs(gamma)):.3f}")
for scheme, (alice, bob) in sources.items():
    print(f"  {scheme.value:13s}: |rho| = {abs(correlation(alice.ravel(), bob.ravel())):.3f}")
print("  the scalar fit absorbs the common aggregate mismatch each round,")
print("  which neither baseline can do")
