"""The three key-sourcing schemes on one environment.

Runs the plain probe exchange, the loop-back retransmission, and the
loop-back with prediction-scalar compensation under a jamming attack, and
compares the correlation of the paired key sources.  Also demonstrates the
exact hardware cancellation of the loop-back without an attack.
"""

import numpy as np

from lockeysim.analysis import correlation
from lockeysim.config import build_config
from lockeysim.ofdm import pilot_values
from lockeysim.protocol import (
    GAMMA_PER_ROUND,
    Scheme,
    build_environment,
    run_round,
)

config = build_config({})

print("== hardware cancellation without an attack (noiseless) ==")
env = build_environment(config.ofdm, config.profiles, 30, 0, None, (1,))
result = run_round(Scheme.LOOPBACK, env, None, (2,))
gap = np.max(np.abs(result.key_source_alice - result.key_source_bob))
print(f"  distinct direction filters, yet max |H_A - H_B| = {gap:.2e}")

print("\n== key-source correlation under jamming (5 of 30 units, 10 dB) ==")
env = build_environment(config.ofdm, config.profiles, 30, 5, 10.0, (3,), trials=400)
for scheme in Scheme:
    gamma = GAMMA_PER_ROUND if scheme is Scheme.LOCKEY else None
    r = run_round(scheme, env, gamma, (4,))
    a = pilot_values(r.key_source_alice, config.ofdm).ravel()
    b = pilot_values(r.key_source_bob, config.ofdm).ravel()
    print(f"  {scheme.value:13s}: |rho| = {abs(correlation(a, b)):.3f}")
print("  the scalar fit absorbs the common aggregate mismatch each round,")
print("  which neither baseline can do")
