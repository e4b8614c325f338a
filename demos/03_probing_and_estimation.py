"""The probed subcarrier grid and the probe noise floor.

Every 5th of the 64 subcarriers is probed; each party's channel estimate
there is the composite channel (direct + surface cascade, times the
sender's hardware filter) plus the probe's noise.  Shows the grid and the
noise floor of a first-slot estimate against SNR under the unit noise
reference.
"""

from dataclasses import replace

import numpy as np

from lockeysim.config import build_config
from lockeysim.protocol import Environment, measure_round

config = build_config({})
grid = config.ofdm
print(f"== {grid.pilot_positions.size} of {grid.symbol_length} subcarriers are probed "
      f"(every {grid.pilot_interval}th) ==")
print(f"  indices      {grid.pilot_positions.tolist()}")
print(f"  offsets kHz  {(grid.pilot_freqs / 1e3).tolist()}")

print("\n== estimate noise vs SNR (unit reference: variance 10**(-snr/10)) ==")
rounds = 400
for snr in (0.0, 10.0, 20.0, 30.0):
    env = Environment(grid, config.profiles, 30, 5, snr, (1,), noise_ref=1.0, trials=rounds)
    noisy = measure_round(env)
    clean = measure_round(replace(env, snr_db=None))
    floor = np.mean([np.mean(np.abs(got - want) ** 2) for got, want in zip(noisy, clean)])
    print(f"  snr {snr:5.1f} dB: noise power {floor:.4f} (expected {10 ** (-snr / 10):.4f})")
