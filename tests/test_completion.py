import numpy as np
import pytest

from locfree.completion import (
    CompletionConfig,
    IncompleteFeatureMatrix,
    build_recovery_context,
    gram_schmidt_basis,
    rls_recover_queries,
    rls_recover_query,
    svp_complete,
)
from locfree.errors import ConfigurationError, SolverError
from locfree.io import write_iteration_log
from test_reduction import free_space_scenario, tdoa_matrix
from locfree.propagation import sample_sensor_locations


def low_rank(rng, m, n, rank):
    return rng.normal(size=(m, rank)) @ rng.normal(size=(rank, n))


def identifiable_mask(rng, shape, frac, min_per_col):
    """Uniform mask conditioned on recoverability: a column with fewer than
    rank observed entries admits infinitely many completions, so uniqueness
    requires at least rank (here rank+1) samples per column."""
    while True:
        mask = rng.random(shape) < frac
        if mask.sum(axis=0).min() >= min_per_col:
            return mask


def test_incomplete_matrix_zeroes_unobserved():
    values = np.array([[1.0, np.nan], [2.0, 3.0]])
    observed = np.array([[True, False], [True, True]])
    inc = IncompleteFeatureMatrix(values, observed)
    assert inc.values[0, 1] == 0.0
    assert inc.n_observed == 3


def test_incomplete_matrix_rejects_nonfinite_observed():
    with pytest.raises(ValueError):
        IncompleteFeatureMatrix(np.array([[np.inf]]), np.array([[True]]))


def test_completion_config_validation():
    with pytest.raises(ConfigurationError):
        CompletionConfig(rank=0)
    with pytest.raises(ConfigurationError):
        CompletionConfig(rank=1, step=0.0)


def test_fully_observed_rank_one_recovered_immediately():
    rng = np.random.default_rng(0)
    truth = low_rank(rng, 6, 15, 1)
    inc = IncompleteFeatureMatrix(truth, np.ones(truth.shape, bool))
    result = svp_complete(inc, CompletionConfig(rank=1))
    assert result.iterations <= 2
    rel = np.linalg.norm(result.matrix - truth) / np.linalg.norm(truth)
    assert rel <= 1e-8


def test_random_rank3_recovery_from_60_percent():
    rng = np.random.default_rng(1)
    truth = low_rank(rng, 10, 200, 3)
    mask = identifiable_mask(rng, truth.shape, 0.6, 4)
    inc = IncompleteFeatureMatrix(np.where(mask, truth, 0.0), mask)
    result = svp_complete(inc, CompletionConfig(rank=3, max_iters=500))
    rel = np.linalg.norm(result.matrix - truth) / np.linalg.norm(truth)
    assert rel < 1e-4
    assert result.iterations <= 500


def connected_pair_mask(rng, n_tx, n_cols, frac):
    """Mask for pairwise-difference features that keeps each column
    recoverable: differences pin a column iff the graph whose edges are the
    observed pairs connects all transmitters, so columns are resampled
    until connected."""
    from locfree.features import pair_indices

    pairs = pair_indices(n_tx)
    cols = []
    for _ in range(n_cols):
        while True:
            col = rng.random(len(pairs)) < frac
            parent = list(range(n_tx))

            def find(a):
                while parent[a] != a:
                    parent[a] = parent[parent[a]]
                    a = parent[a]
                return a

            for (i, j), keep in zip(pairs, col):
                if keep:
                    parent[find(i)] = find(j)
            if len({find(t) for t in range(n_tx)}) == 1:
                cols.append(col)
                break
    return np.stack(cols, axis=1)


def test_noiseless_tdoa_completion_fills_hidden_entries():
    scn = free_space_scenario(5, seed=2)
    pts = sample_sensor_locations(scn, 150, np.random.default_rng(3))
    truth = tdoa_matrix(scn, pts)
    rng = np.random.default_rng(4)
    mask = connected_pair_mask(rng, 5, truth.shape[1], 0.7)  # hide ~30%
    inc = IncompleteFeatureMatrix(np.where(mask, truth, 0.0), mask)
    result = svp_complete(inc, CompletionConfig(rank=4, max_iters=2000))
    observed_res = np.linalg.norm(
        np.where(mask, result.matrix - truth, 0.0)
    ) / np.linalg.norm(np.where(mask, truth, 0.0))
    assert observed_res < 1e-6
    hidden_err = np.linalg.norm(
        np.where(~mask, result.matrix - truth, 0.0)
    ) / np.linalg.norm(np.where(~mask, truth, 0.0))
    assert hidden_err < 1e-3


def test_rank_constraint_holds_every_iterate():
    rng = np.random.default_rng(5)
    truth = low_rank(rng, 8, 40, 2)
    mask = rng.random(truth.shape) < 0.7
    inc = IncompleteFeatureMatrix(np.where(mask, truth, 0.0), mask)
    result = svp_complete(inc, CompletionConfig(rank=2, max_iters=50))
    s = np.linalg.svd(result.matrix, compute_uv=False)
    assert np.sum(s > 1e-10 * s[0]) <= 2


def test_observed_residual_monotone_with_unit_step():
    rng = np.random.default_rng(6)
    truth = low_rank(rng, 10, 60, 3)
    mask = rng.random(truth.shape) < 0.6
    inc = IncompleteFeatureMatrix(np.where(mask, truth, 0.0), mask)
    result = svp_complete(
        inc, CompletionConfig(rank=3, step=1.0, max_iters=200, adaptive_step=False)
    )
    res = np.array(result.residuals)
    assert np.all(np.diff(res) <= 1e-12)


def test_rank_exceeding_dimensions_rejected():
    inc = IncompleteFeatureMatrix(np.ones((3, 5)), np.ones((3, 5), bool))
    with pytest.raises(ConfigurationError):
        svp_complete(inc, CompletionConfig(rank=4))


def test_iteration_log_csv(tmp_path):
    rng = np.random.default_rng(7)
    truth = low_rank(rng, 5, 20, 2)
    inc = IncompleteFeatureMatrix(truth, np.ones(truth.shape, bool))
    result = svp_complete(inc, CompletionConfig(rank=2))
    path = tmp_path / "svp.csv"
    write_iteration_log(result, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iter,residual"
    assert len(lines) == result.iterations + 1


def test_gram_schmidt_examples():
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    matrix = np.stack([e1, e2, e1 + e2], axis=1)
    basis = gram_schmidt_basis(matrix, 2)
    assert basis.shape == (3, 2)
    assert np.allclose(basis.T @ basis, np.eye(2), atol=1e-10)
    # spans {e1, e2}
    assert np.allclose(basis @ basis.T @ e1, e1, atol=1e-10)
    assert np.allclose(basis @ basis.T @ e2, e2, atol=1e-10)


def test_gram_schmidt_orthonormal_on_random_input():
    rng = np.random.default_rng(8)
    matrix = low_rank(rng, 7, 30, 4)
    basis = gram_schmidt_basis(matrix, 4)
    assert np.allclose(basis.T @ basis, np.eye(4), atol=1e-10)


def test_gram_schmidt_rank_deficiency_error():
    matrix = np.outer(np.arange(1.0, 5.0), np.ones(6))
    with pytest.raises(SolverError, match="independent columns"):
        gram_schmidt_basis(matrix, 2)


def test_gram_schmidt_span_matches_svd_oracle():
    scn = free_space_scenario(5, seed=9)
    pts = sample_sensor_locations(scn, 100, np.random.default_rng(10))
    matrix = tdoa_matrix(scn, pts)
    completed = svp_complete(
        IncompleteFeatureMatrix(matrix, np.ones(matrix.shape, bool)),
        CompletionConfig(rank=4),
    ).matrix
    basis = gram_schmidt_basis(completed, 4)
    u, s, _ = np.linalg.svd(completed, full_matrices=False)
    u = u[:, :4]
    # principal angles between the two 4-dim spans
    angles = np.arccos(np.clip(np.linalg.svd(u.T @ basis, compute_uv=False), -1, 1))
    assert np.max(angles) < 1e-6


def test_recovery_context_statistics():
    rng = np.random.default_rng(11)
    reduced = rng.normal(size=(3, 25))
    basis = np.linalg.qr(rng.normal(size=(6, 3)))[0]
    ctx = build_recovery_context(basis, reduced, mu=0.5)
    assert np.allclose(ctx.mean, reduced.mean(axis=1), atol=1e-12)
    centered = reduced - reduced.mean(axis=1, keepdims=True)
    cov = np.zeros((3, 3))
    for i in range(3):
        for j in range(3):
            cov[i, j] = np.mean(centered[i] * centered[j])
    assert np.allclose(ctx.cov, cov, atol=1e-12)


def test_recovery_context_symmetric_columns():
    v = np.array([1.0, -2.0])
    reduced = np.stack([v, -v], axis=1)
    basis = np.eye(3)[:, :2]
    ctx = build_recovery_context(basis, reduced, mu=1.0)
    assert np.allclose(ctx.mean, 0.0, atol=1e-15)
    assert np.allclose(ctx.cov, np.outer(v, v), atol=1e-12)


def test_recovery_context_jitter_keeps_singular_cov_usable():
    reduced = np.ones((2, 5))  # identical columns -> zero covariance
    basis = np.eye(4)[:, :2]
    ctx = build_recovery_context(basis, reduced, mu=1.0)
    assert np.all(np.isfinite(ctx.cov_inv))


def test_rls_recovers_exact_features_when_all_observed():
    rng = np.random.default_rng(12)
    basis = np.linalg.qr(rng.normal(size=(8, 3)))[0]
    reduced_train = rng.normal(size=(3, 30))
    ctx = build_recovery_context(basis, reduced_train, mu=1e-12)
    z = rng.normal(size=3)
    phi = basis @ z
    recovered = rls_recover_query(ctx, phi, np.ones(8, bool))
    assert recovered.status == "ok"
    assert np.allclose(recovered.reduced, z, atol=1e-6)


def test_rls_empty_mask_signals_average_fallback():
    rng = np.random.default_rng(13)
    basis = np.linalg.qr(rng.normal(size=(6, 2)))[0]
    ctx = build_recovery_context(basis, rng.normal(size=(2, 10)), mu=1.0)
    recovered = rls_recover_query(ctx, np.zeros(6), np.zeros(6, bool))
    assert recovered.status == "empty"
    assert recovered.reduced is None


def test_rls_prior_dominates_for_large_mu():
    rng = np.random.default_rng(14)
    basis = np.linalg.qr(rng.normal(size=(6, 2)))[0]
    reduced_train = rng.normal(size=(2, 20))
    ctx = build_recovery_context(basis, reduced_train, mu=1e12)
    phi = basis @ rng.normal(size=2)
    recovered = rls_recover_query(ctx, phi, np.ones(6, bool))
    assert np.allclose(recovered.reduced, ctx.mean, atol=1e-6)


def test_rls_underdetermined_flag():
    rng = np.random.default_rng(15)
    basis = np.linalg.qr(rng.normal(size=(6, 3)))[0]
    ctx = build_recovery_context(basis, rng.normal(size=(3, 12)), mu=0.1)
    observed = np.zeros(6, bool)
    observed[2] = True
    recovered = rls_recover_query(ctx, np.ones(6), observed)
    assert recovered.status == "underdetermined"
    assert recovered.reduced is not None


def test_batched_recovery_matches_one_query_at_a_time():
    """One solve per observation pattern gives each column the value of its
    own 1-column recovery to 1e-12 relative, and a NaN column exactly where
    nothing is observed; unobserved values are never read."""
    rng = np.random.default_rng(18)
    basis = np.linalg.qr(rng.normal(size=(10, 4)))[0]
    ctx = build_recovery_context(basis, rng.normal(size=(4, 50)), mu=0.5)
    patterns = rng.random((6, 10)) < 0.6
    patterns[0] = False
    patterns[1] = True
    observed = patterns[rng.integers(0, 6, size=200)].T
    values = np.where(observed, rng.normal(size=(10, 200)), np.nan)
    reduced = rls_recover_queries(ctx, values, observed)
    assert reduced.shape == (4, 200)
    empty = ~observed.any(axis=0)
    assert empty.any()
    assert np.array_equal(np.isnan(reduced).any(axis=0), empty)
    assert np.all(np.isnan(reduced[:, empty]))
    for i in np.flatnonzero(~empty):
        alone = rls_recover_query(ctx, values[:, i], observed[:, i]).reduced
        assert np.allclose(reduced[:, i], alone, rtol=1e-12, atol=1e-12 * np.abs(alone).max())


def test_rls_solution_zeroes_the_objective_gradient():
    rng = np.random.default_rng(16)
    basis = np.linalg.qr(rng.normal(size=(7, 3)))[0]
    reduced_train = rng.normal(size=(3, 25))
    mu = 0.37
    ctx = build_recovery_context(basis, reduced_train, mu=mu)
    phi = rng.normal(size=7)
    observed = rng.random(7) < 0.7
    recovered = rls_recover_query(ctx, phi, observed)
    u_obs = basis[observed]
    z = recovered.reduced
    grad = 2 * u_obs.T @ (u_obs @ z - phi[observed]) + 2 * mu * ctx.cov_inv @ (z - ctx.mean)
    assert np.linalg.norm(grad) <= 1e-8 * (1 + np.linalg.norm(phi))


def test_rls_rejects_nonfinite_observed_values():
    basis = np.eye(4)[:, :2]
    ctx = build_recovery_context(basis, np.random.default_rng(17).normal(size=(2, 6)), mu=0.1)
    values = np.array([np.nan, 1.0, 2.0, 3.0])
    observed = np.array([True, True, False, False])
    with pytest.raises(ValueError):
        rls_recover_query(ctx, values, observed)


def test_consistency_chain_matches_direct_projection():
    """Fully observed pipeline: completion -> basis -> RLS equals the plain
    centered SVD projection up to an orthogonal transform, so downstream
    kernel predictions coincide."""
    from locfree.kernels import GaussianKernel, fit, predict
    from locfree.reduction import project, reduce_features

    scn = free_space_scenario(5, seed=18)
    pts = sample_sensor_locations(scn, 80, np.random.default_rng(19))
    matrix = tdoa_matrix(scn, pts)
    rank = 4

    basis_svd, reduced_svd = reduce_features(matrix, rank=rank)
    completed = svp_complete(
        IncompleteFeatureMatrix(matrix, np.ones(matrix.shape, bool)),
        CompletionConfig(rank=rank),
    ).matrix
    gs = gram_schmidt_basis(completed, rank)
    reduced_gs = gs.T @ completed
    ctx = build_recovery_context(gs, reduced_gs, mu=1e-12)

    rng = np.random.default_rng(20)
    targets = rng.normal(-50, 3, size=80)
    kernel = GaussianKernel(20.0)
    map_svd = fit(reduced_svd, targets, kernel, 1e-4)
    map_gs = fit(reduced_gs, targets, kernel, 1e-4)

    queries = sample_sensor_locations(scn, 25, np.random.default_rng(21))
    q = tdoa_matrix(scn, queries)
    for i in range(q.shape[1]):
        via_svd = predict(map_svd, project(basis_svd, q[:, i]))
        recovered = rls_recover_query(ctx, q[:, i], np.ones(q.shape[0], bool))
        via_chain = predict(map_gs, recovered.reduced)
        assert via_chain == pytest.approx(via_svd, abs=1e-6)
