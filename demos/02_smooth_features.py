"""Why center-of-mass features beat thresholded arrival times in multipath.

Reproduces the two-tap thought experiment: two receivers a short distance
apart see almost identical impulse responses, yet the thresholded
time-of-arrival jumps by several samples while the energy-weighted mean
lag barely moves.  Then measures the same effect statistically over the
indoor map.
"""

import numpy as np

from locfree import preset
from locfree.features import (
    com_impulse,
    default_toa_threshold,
    estimate_toa,
    feature_vector_sync,
    toa_feature_vector,
)
from locfree.evaluation import precompute_grid
from locfree.propagation import pilot_noise
from locfree.scenario import SPEED_OF_LIGHT

# --- the two-tap construction -------------------------------------------
gamma = 0.3
h_a = np.zeros(12, dtype=complex)
h_b = np.zeros(12, dtype=complex)
h_a[2], h_a[6] = 0.29, 0.80   # first tap just below the threshold
h_b[2], h_b[6] = 0.31, 0.80   # first tap just above it

print("two nearby receivers, two-tap channels (taps at k=2 and k=6):")
print(f"  thresholded ToA:  {estimate_toa(h_a, gamma, 1.0):.0f} vs "
      f"{estimate_toa(h_b, gamma, 1.0):.0f} samples  (jump of 4)")
print(f"  center of mass:   {com_impulse(h_a):.3f} vs {com_impulse(h_b):.3f} samples"
      f"  (difference {abs(com_impulse(h_a) - com_impulse(h_b)):.3f})")

# --- the same effect across the whole indoor map ------------------------
scenario = preset("indoor-fig4")
grid = precompute_grid(scenario)
rng = np.random.default_rng(0)
pilots = grid.channels + pilot_noise(scenario, grid.channels.shape, rng)
gamma = default_toa_threshold(scenario.noise_variance)

com = np.stack([feature_vector_sync(p) for p in pilots], axis=1)
toa = np.stack([toa_feature_vector(p, gamma, scenario.sample_period) for p in pilots], axis=1)
toa /= SPEED_OF_LIGHT * scenario.sample_period  # lag units

index = {tuple(np.round(p, 6)): i for i, p in enumerate(grid.points)}
d_com, d_toa = [], []
for (x, y), i in index.items():
    j = index.get((round(x + 1.0, 6), y))
    if j is not None:
        d_com.extend(np.abs(com[:, j] - com[:, i]))
        d_toa.extend(np.abs(toa[:, j] - toa[:, i]))
d_com, d_toa = np.array(d_com), np.array(d_toa)
print(f"\n1 m feature increments over the indoor map ({len(d_com)} samples):")
for q in (50, 90, 95):
    print(f"  p{q}:  CoM {np.percentile(d_com, q):6.3f}   "
          f"ToA {np.percentile(d_toa[np.isfinite(d_toa)], q):6.3f}  (lag units)")
