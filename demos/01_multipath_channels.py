"""Trace multipath rays and look at the band-limited channel they produce.

Walks through the simulation chain for a single transmitter/receiver pair:
ray enumeration (direct, single and double bounces), the complex tap vector,
and a noisy received pilot row.
"""

import numpy as np

from locfree import (
    SPEED_OF_LIGHT,
    discretize_channel,
    preset,
    synthesize_pilot_matrix,
    trace_paths,
)

scenario = preset("indoor-fig4")
tx = scenario.transmitters[0]
rx = (40.0, 12.0)

print(f"scenario: {len(scenario.walls)} walls, L={scenario.n_transmitters}, "
      f"B={scenario.bandwidth_hz/1e6:.0f} MHz, K={scenario.num_samples}")
print(f"\nrays from transmitter at ({tx.x}, {tx.y}) to receiver at {rx}:")
paths = trace_paths(scenario, (tx.x, tx.y), rx)
for p in paths:
    print(f"  order {p.order}  length {p.delay * SPEED_OF_LIGHT:7.2f} m  "
          f"delay {p.delay * 1e9:7.2f} ns  amplitude {p.amplitude:+.3e}")

taps = discretize_channel(paths, scenario)
print("\nband-limited taps |h[k]| (delays spread by the sinc kernel):")
for k, tap in enumerate(taps):
    bar = "#" * int(60 * abs(tap) / np.abs(taps).max())
    print(f"  k={k:2d}  {abs(tap):.3e}  {bar}")

rng = np.random.default_rng(0)
pilot = synthesize_pilot_matrix(scenario, rx, rng)
print(f"\nreceived pilot matrix: {pilot.shape[0]} x {pilot.shape[1]} "
      f"(rows are per-transmitter noisy impulse responses)")
snr = np.abs(pilot[0]).max() ** 2 / scenario.noise_variance
print(f"row 0 peak-tap SNR: {10 * np.log10(snr):.1f} dB")
