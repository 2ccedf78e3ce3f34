from dataclasses import replace

import numpy as np
import pytest

from conftest import sample_identifiable_mask
from locfree import completion
from locfree.completion import (
    CompletionConfig,
    IncompleteFeatureMatrix,
    _rank_truncate,
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
    # a column with fewer than rank observed entries admits infinitely many
    # completions, so every column keeps at least rank + 1
    mask = sample_identifiable_mask(rng, truth.shape, 0.6, 4)
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


def _svd_rank_truncate(matrix, rank):
    """The truncated SVD, which the Gram projection replaces: the oracle."""
    u, s, vt = np.linalg.svd(matrix, full_matrices=False)
    return (u[:, :rank] * s[:rank]) @ vt[:rank]


def _spectrum_matrix(rng, shape, singular_values, noise):
    """Random singular vectors with the given singular values, plus
    Gaussian noise of standard deviation ``noise``."""
    k = len(singular_values)
    u = np.linalg.qr(rng.normal(size=(shape[0], k)))[0]
    v = np.linalg.qr(rng.normal(size=(shape[1], k)))[0]
    return (u * singular_values) @ v.T + noise * rng.normal(size=shape)


@pytest.mark.parametrize("shape", [(10, 300), (300, 10)], ids=["wide", "tall"])
@pytest.mark.parametrize(
    "singular_values, tol",
    [((10.0, 5.0, 3.0, 1e-3), 1e-13), ((10.0, 5.0, 1.0, 0.99), 1e-10)],
    ids=["wide_gap", "narrow_gap"],
)
def test_gram_projection_matches_truncated_svd(shape, singular_values, tol):
    """The rank-3 Gram projection of a low-rank-plus-noise matrix equals its
    truncated SVD to about eps * s_1^2 / (s_3^2 - s_4^2) relative, so it
    needs s_3^2 - s_4^2 >> eps * s_1^2.  Tolerances: 1e-13 for the wide gap
    (bound 2.5e-15) and 1e-10 for the narrow gap s_3 / s_4 = 1.01 (bound
    1.1e-12).  A tall matrix goes through X^T X."""
    rng = np.random.default_rng(23)
    for _ in range(10):
        matrix = _spectrum_matrix(rng, shape, np.array(singular_values), 1e-7)
        oracle = _svd_rank_truncate(matrix, 3)
        gram = _rank_truncate(matrix, 3)
        assert np.linalg.matrix_rank(gram) == 3
        assert np.linalg.norm(gram - oracle) <= tol * np.linalg.norm(oracle)


@pytest.mark.parametrize("shape", [(10, 300), (300, 10)], ids=["wide", "tall"])
def test_gram_projection_keeps_matrices_within_the_rank(shape):
    """A rank-2 matrix truncated to rank 3 or to full rank comes back to
    1e-14 relative, and the zero matrix comes back exactly."""
    rng = np.random.default_rng(24)
    matrix = rng.normal(size=(shape[0], 2)) @ rng.normal(size=(2, shape[1]))
    for rank in (3, min(shape)):
        out = _rank_truncate(matrix, rank)
        assert np.linalg.norm(out - matrix) <= 1e-14 * np.linalg.norm(matrix)
        assert np.array_equal(_rank_truncate(np.zeros(shape), rank), np.zeros(shape))


def _reference_svp_complete(incomplete, config):
    """The SVP loop that computes the masked residual of each iterate twice,
    once as its residual and once as the next gradient, with the SVD
    projection; on step halving it restarts from the iterate of least
    residual.  Returns (matrix, residuals, iterations, converged, step
    halvings)."""
    m, n = incomplete.shape
    mask = incomplete.observed
    target = incomplete.values
    norm_obs = np.linalg.norm(target)
    scale = norm_obs if norm_obs > 0 else 1.0
    base = config.step
    step = base
    x = np.zeros((m, n))
    prev_x = None
    prev_grad = None
    residuals = []
    prev = np.inf
    grow_streak = 0
    converged = False
    iterations = 0
    halvings = 0
    best_res, best_x = np.linalg.norm(np.where(mask, x - target, 0.0)) / scale, x
    for iterations in range(1, config.max_iters + 1):
        gradient = np.where(mask, x - target, 0.0)
        if config.adaptive_step and prev_grad is not None:
            dx = x - prev_x
            dg = gradient - prev_grad
            dot = np.sum(dx * dg)
            step = np.sum(dx * dx) / dot if dot > 1e-300 else base
            step = min(max(step, 0.5 * base), 1e4 * base)
        prev_x, prev_grad = x, gradient
        x = _svd_rank_truncate(x - step * gradient, config.rank)
        res = np.linalg.norm(np.where(mask, x - target, 0.0)) / scale
        residuals.append(res)
        if res < best_res:
            best_res, best_x = res, x
        if res > prev:
            grow_streak += 1
            if grow_streak >= 10:
                base /= 2.0
                step = base
                x, res = best_x, best_res
                prev_x = prev_grad = None
                grow_streak = 0
                halvings += 1
                if base < 1e-6 * config.step:
                    raise SolverError("SVP diverges even after step halving")
        else:
            grow_streak = 0
        if abs(prev - res) < completion._TOL:
            converged = True
            break
        prev = res
    return x, tuple(residuals), iterations, converged, halvings


@pytest.mark.parametrize(
    "step, adaptive, max_iters, halves",
    [(1.0, True, 500, False), (1.0, False, 400, False), (4.0, False, 60, True),
     (50.0, True, 80, True)],
)
def test_svp_loop_matches_reference_under_svd_projection(
    monkeypatch, step, adaptive, max_iters, halves
):
    """With the SVD projection patched in, svp_complete gives the reference
    loop's matrix and residuals bit for bit, converged or not and through
    step halving: sharing the masked residual changes no digit, so only the
    Gram projection does."""
    monkeypatch.setattr(completion, "_rank_truncate", _svd_rank_truncate)
    rng = np.random.default_rng(5)
    truth = low_rank(rng, 8, 40, 3) + 0.01 * rng.normal(size=(8, 40))
    mask = rng.random(truth.shape) < 0.7
    inc = IncompleteFeatureMatrix(np.where(mask, truth, 0.0), mask)
    config = CompletionConfig(rank=3, step=step, max_iters=max_iters, adaptive_step=adaptive)
    result = svp_complete(inc, config)
    matrix, residuals, iterations, converged, halvings = _reference_svp_complete(inc, config)
    assert (halvings > 0) == halves
    assert np.array_equal(result.matrix, matrix)
    assert np.array_equal(result.residuals, residuals)
    assert (result.iterations, result.converged) == (iterations, converged)


def test_step_halving_restarts_from_the_best_iterate():
    """A constant step of 4 blows the observed residual up to 1.5e5 by
    iteration 11, where the step halves to 2.  The descent restarts from
    the iterate of least residual, here the zero start, so from then on it
    is exactly a fresh run at step 2 and ends below where it began.  A
    step of 1e6 halves its way to convergence instead of overflowing."""
    rng = np.random.default_rng(5)
    truth = low_rank(rng, 8, 40, 3) + 0.01 * rng.normal(size=(8, 40))
    mask = rng.random(truth.shape) < 0.7
    inc = IncompleteFeatureMatrix(np.where(mask, truth, 0.0), mask)
    config = CompletionConfig(rank=3, step=4.0, max_iters=3000, adaptive_step=False)
    result = svp_complete(inc, config)
    fresh = svp_complete(inc, replace(config, step=2.0, max_iters=2989))
    assert result.residuals[10] > 1e5
    assert np.array_equal(result.residuals[11:], fresh.residuals)
    assert np.array_equal(result.matrix, fresh.matrix)
    assert result.final_residual < 1.0
    assert svp_complete(inc, replace(config, step=1e6)).converged


def test_overflowing_iterate_raises_solver_error():
    """A constant step far too large overflows the iterate before step
    halving can act (at iteration 4 here).  The projection's LinAlgError
    surfaces as the SolverError that advises a smaller step."""
    rng = np.random.default_rng(5)
    truth = low_rank(rng, 8, 40, 3) + 0.01 * rng.normal(size=(8, 40))
    mask = rng.random(truth.shape) < 0.7
    inc = IncompleteFeatureMatrix(np.where(mask, truth, 0.0), mask)
    config = CompletionConfig(rank=3, step=1e40, adaptive_step=False)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SolverError, match="smaller step") as caught:
            svp_complete(inc, config)
    assert isinstance(caught.value.__cause__, np.linalg.LinAlgError)


@pytest.mark.parametrize("max_iters", [0, 1, 2000])
def test_residual_trace_is_a_float_array(max_iters):
    """One float64 residual per iteration, and final_residual the last one
    as a Python float (0.0 when no iteration ran).  A small constant step
    keeps the 2,000-iteration run from converging."""
    rng = np.random.default_rng(22)
    truth = low_rank(rng, 6, 30, 2) + 0.05 * rng.normal(size=(6, 30))
    mask = rng.random(truth.shape) < 0.7
    inc = IncompleteFeatureMatrix(np.where(mask, truth, 0.0), mask)
    result = svp_complete(
        inc, CompletionConfig(rank=2, step=0.05, max_iters=max_iters, adaptive_step=False)
    )
    assert result.iterations == max_iters and not result.converged
    assert result.residuals.dtype == np.float64 and result.residuals.shape == (max_iters,)
    assert type(result.final_residual) is float
    expected = result.residuals[-1] if max_iters else 0.0
    assert result.final_residual == expected


def test_identifiable_mask_sampler_matches_single_draw_loop():
    """The batched sampler accepts the mask a loop of single rng.random
    draws accepts, also when that is past the first block of 1,024."""
    past_first_block = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        draws = 0
        while True:
            draws += 1
            mask = rng.random((10, 120)) < 0.6
            if mask.sum(axis=0).min() >= 4:
                break
        past_first_block += draws > 1024
        sampled = sample_identifiable_mask(np.random.default_rng(seed), (10, 120), 0.6, 4)
        assert np.array_equal(sampled, mask)
    assert past_first_block


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
    reduced = rls_recover_queries(ctx, IncompleteFeatureMatrix(values, observed))
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
    with pytest.raises(ValueError, match="equal-shape"):
        rls_recover_query(ctx, np.ones((4, 1)), observed[:, None])


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
