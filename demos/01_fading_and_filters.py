"""Tapped-delay-line fading and fixed hardware filters.

Draws an ensemble of multipath channel realizations, checks that their
per-tap power and fourth moment match circular complex Gaussian taps of the
configured profile, and evaluates the frequency response of the bundled
hardware filters across the OFDM band.
"""

import numpy as np

from lockeysim.fading import (
    ALICE_BOB_PROFILE,
    ALICE_HF_PROFILE,
    ALICE_RIS_PROFILE,
    BOB_HF_PROFILE,
    fingerprint_response,
    frequency_response,
    make_fading_process,
)
from lockeysim.ofdm import OfdmConfig

config = OfdmConfig()
freqs = config.subcarrier_freqs

print("== per-tap power of an ensemble of channel draws ==")
gains = make_fading_process(ALICE_RIS_PROFILE, (1,), trials=20_000)
powers = np.mean(np.abs(gains) ** 2, axis=0)
for delay, want, got in zip(ALICE_RIS_PROFILE.delays_ms, ALICE_RIS_PROFILE.powers_db, 10 * np.log10(powers)):
    print(f"  tap at {delay * 1e3:6.3f} us: configured {want:6.2f} dB, measured {got:6.2f} dB")
kurtosis = np.mean(np.abs(gains) ** 4 / powers ** 2)
print(f"  E|g|^4 / (E|g|^2)^2 = {kurtosis:.3f} (2 for circular complex Gaussian taps)")

print("\n== hardware filter responses across the band (time-invariant) ==")
for name, profile in (("alice", ALICE_HF_PROFILE), ("bob", BOB_HF_PROFILE)):
    response = fingerprint_response(profile, freqs)
    print(f"  {name}: |F| range [{np.min(np.abs(response)):.3f}, {np.max(np.abs(response)):.3f}], "
          f"phase drift across band {np.angle(response[-1]) - np.angle(response[0]):+.3f} rad")

print("\n== frequency selectivity of the direct channel ==")
h = frequency_response(ALICE_BOB_PROFILE, make_fading_process(ALICE_BOB_PROFILE, (3,)), freqs)
print(f"  |H| varies over [{np.min(np.abs(h)):.3f}, {np.max(np.abs(h)):.3f}] across 64 subcarriers")
