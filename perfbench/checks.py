"""Output checks made apart from the program.

Each check recomputes a result from its definition with plain numpy, or
tests a property the method must have.  None compares against a stored
copy of earlier output.  Every function returns a list of failure messages
(empty when the check passes).
"""

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0
FEATURE_TOL_M = 1e-9
RIDGE_TOL = 1e-8


def com_feature(row_a, row_b, sample_period):
    """CoM of the cross-correlation c[i] = sum_k a[k] conj(b[k - i]), in meters.

    The lags run over -(K-1)..K-1; the feature is the energy-weighted mean
    lag scaled by T * c.  Each c[i] is summed along one diagonal of the
    outer product a b^H (row k, column k - i).
    """
    k = row_a.shape[0]
    outer = np.outer(row_a, np.conj(row_b))
    lags = np.arange(-(k - 1), k)
    corr = np.array([np.trace(outer, offset=-lag) for lag in lags])
    energy = np.abs(corr) ** 2
    return sample_period * SPEED_OF_LIGHT * float(energy @ lags / energy.sum())


def check_features(samples):
    """Sampled CoM feature columns against the cross-correlation definition."""
    failures = []
    for context, pilots, period, columns in samples:
        n_tx = pilots.shape[1]
        pairs = [(i, j) for i in range(n_tx - 1) for j in range(i + 1, n_tx)]
        for col, pilot in enumerate(pilots):
            expected = np.array([com_feature(pilot[i], pilot[j], period) for i, j in pairs])
            err = float(np.max(np.abs(expected - columns[:, col])))
            if not err <= FEATURE_TOL_M:
                failures.append(f"{context}: CoM feature off by {err:.3g} m")
    return failures


def check_fit(context, fitted, targets):
    """(K + lambda N I) alpha equals the centred targets, K rebuilt with numpy."""
    feats = fitted.features
    n = targets.shape[0]
    if feats.shape[1] != n:
        return [f"{context}: fit stores {feats.shape[1]} columns for {n} targets"]
    diff = feats[:, :, None] - feats[:, None, :]
    gram = np.exp(-np.sum(diff**2, axis=0) / (2.0 * fitted.kernel.sigma**2))
    centred = targets - fitted.target_mean
    if fitted.target_mean not in (0.0, float(np.mean(targets))):
        return [f"{context}: target offset {fitted.target_mean} is neither 0 nor the mean"]
    residual = (gram + fitted.lam * n * np.eye(n)) @ fitted.alpha - centred
    rel = float(np.linalg.norm(residual) / np.linalg.norm(centred))
    if not rel <= RIDGE_TOL:
        return [f"{context}: ridge system residual {rel:.3g} (> {RIDGE_TOL:g})"]
    return []


def check_completion(context, incomplete, config, result):
    """Rank of the completed matrix and the reported final residual."""
    failures = []
    rank = np.linalg.matrix_rank(result.matrix)
    if rank > config.rank:
        failures.append(f"{context}: completed matrix has rank {rank} > {config.rank}")
    mask = np.asarray(incomplete.observed)
    target = np.where(mask, incomplete.values, 0.0)
    scale = np.linalg.norm(target) or 1.0
    residual = np.linalg.norm(np.where(mask, result.matrix - target, 0.0)) / scale
    if not abs(residual - result.final_residual) <= 1e-9 * max(residual, 1e-300):
        failures.append(
            f"{context}: observed residual {residual!r} != reported {result.final_residual!r}"
        )
    return failures


def localization_error(estimates, truth):
    """Median distance between estimated and true points (NaN rows ignored)."""
    err = np.linalg.norm(estimates - truth, axis=1)
    return float(np.median(err[np.isfinite(err)]))


def nmse(truth, prediction, p_bar):
    """mean (p - p_hat)^2 / mean (p - p_bar)^2."""
    return float(np.mean((truth - prediction) ** 2) / np.mean((truth - p_bar) ** 2))
