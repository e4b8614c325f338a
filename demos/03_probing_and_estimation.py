"""OFDM probing and least-squares channel estimation.

Sends a pilot through a composite channel (direct + surface cascade +
hardware filter) on the pilot subcarriers, the only ones the kernel
simulates, and shows the exact noiseless inverse and the noise floor at
finite SNR.
"""

import numpy as np

from lockeysim.fading import ALICE_BOB_PROFILE, make_fading_process, frequency_response
from lockeysim.ofdm import OfdmConfig, generate_pilot, ls_estimate, probe

config = OfdmConfig()
freqs = config.pilot_freqs
print(f"== {freqs.size} of {config.symbol_length} subcarriers carry a pilot "
      f"(every {config.pilot_interval}th) ==")
pilot = generate_pilot(config, (1,))
h = frequency_response(make_fading_process(ALICE_BOB_PROFILE, (2,)), freqs)
flat = np.ones(freqs.size, dtype=complex)

print("\n== noiseless estimation is exact at pilot subcarriers ==")
received = probe(pilot, h, np.zeros_like(h), flat, None, (3,))
estimate = ls_estimate(received, pilot, config)
err = np.max(np.abs(estimate - h))
print(f"  max |H_hat - H| at pilots: {err:.2e}")

print("\n== estimation error vs SNR (noise referenced to unit pilot power) ==")
rounds = 400
pilots = generate_pilot(config, (1,), trials=rounds)
for snr in (0.0, 10.0, 20.0, 30.0):
    noisy = probe(pilots, h, np.zeros_like(h), flat, snr, (4, int(snr)))
    error = np.mean(np.abs(ls_estimate(noisy, pilots, config) - h) ** 2)
    print(f"  snr {snr:5.1f} dB: error power {error:.4f} "
          f"(expected {10 ** (-snr / 10):.4f})")
