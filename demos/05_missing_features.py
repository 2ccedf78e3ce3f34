"""Coping with missing features: completion, basis recovery, query lifting.

A pairwise feature is unavailable when either pilot of its pair is
received below a sensitivity threshold.  The training matrix is completed
by rank-constrained singular value projection, an orthonormal basis is
extracted from the completed columns, and incomplete query vectors are
lifted into that basis by regularized least squares.  Sweeping the
threshold shows the NMSE degrading gracefully as more features go missing.

The plain constant-step iteration is run to its noise floor here: the
feature matrix is only approximately rank-4, and accelerated steps can
stall in a worse basin on structured masks.
"""

import numpy as np

from locfree import GaussianKernel, fit, nmse, predict, preset
from locfree.completion import (
    CompletionConfig,
    build_recovery_context,
    gram_schmidt_basis,
    rls_recover_queries,
    svp_complete,
)
from locfree.evaluation import mask_features, precompute_grid
from locfree.features import feature_matrix_nosync
from locfree.experiments import LOCF_TUNED, default_gamma_sweep
from locfree.propagation import pilot_noise, sample_sensor_locations, simulate_points

scenario = preset("indoor-fig4")
grid = precompute_grid(scenario)
rng = np.random.default_rng(3)

points = sample_sensor_locations(scenario, 300, rng)
tables = simulate_points(scenario, points)
pilots = tables.channels + pilot_noise(scenario, tables.channels.shape, rng)
targets = tables.true_power + rng.normal(0.0, grid.noise_std, 300)
t = scenario.sample_period
features = feature_matrix_nosync(pilots, t)
query = feature_matrix_nosync(grid.channels + pilot_noise(scenario, grid.channels.shape, rng), t)

sigma, lam = LOCF_TUNED[scenario.bandwidth_hz]
kernel = GaussianKernel(sigma)
rank = scenario.n_transmitters - 1

print("threshold sweep (training N=300, completion rank 4, mu=5.42):")
print(f"{'gamma dBW':>10} {'missing/loc':>12} {'NMSE':>7}")
for gamma in default_gamma_sweep(grid):
    incomplete = mask_features(features, tables.pilot_powers, gamma)
    completed = svp_complete(
        incomplete, CompletionConfig(rank=rank, max_iters=2000, adaptive_step=False)
    )
    basis = gram_schmidt_basis(completed.matrix, rank)
    reduced = basis.T @ completed.matrix
    ctx = build_recovery_context(basis, reduced, mu=5.42)
    fitted = fit(reduced, targets, kernel, lam)

    query_masked = mask_features(query, grid.pilot_powers, gamma)
    recovered = rls_recover_queries(ctx, query_masked)
    predictions = predict(fitted, recovered)
    # a query with nothing observed predicts NaN: use the training average
    predictions[np.isnan(predictions)] = targets.mean()
    missing = np.mean(np.sum(~incomplete.observed, axis=0))
    print(f"{gamma:10.1f} {missing:12.2f} {nmse(grid.truth, predictions, grid.p_bar):7.3f}")
