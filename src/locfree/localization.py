"""Location-based baseline: TDoA multilateration plus a kernel map over
estimated coordinates.

The localizer first solves the squared-range-difference system.  With
anchor 1 as reference, measured range differences
r_l = ||x - a_1|| - ||x - a_l|| give, for the unknowns (x, d_1) with
d_1 = ||x - a_1||,

    2 (a_l - a_1)^T x - 2 r_l d_1 = ||a_l||^2 - ||a_1||^2 - r_l^2 ,

a linear system solved by least squares.  The squared system amplifies
measurement error and ignores the coupling d_1 = ||x - a_1||, so the
linear solution only initializes an iteratively reweighted Gauss-Newton
descent on the raw range-difference residuals

    g_l(x) = ||x - a_1|| - ||x - a_l|| - r_l ,

with weights w_l = 1/(g_l^2 + eps) recomputed each round to down-weight
multipath-corrupted rows.  Estimates are never clamped to the region:
badly corrupted features yield wild but finite coordinates, which is
exactly what the map learner then has to cope with.

Batches are solved per pattern of usable range differences, and the
rows of a batch are independent: a point's estimate never depends on
which other points share its batch.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .features import tdoa_range_differences
from .kernels import fit

_REWEIGHT_EPS = 1e-6
# Residual-reweighted Gauss-Newton rounds per start.
_REWEIGHT_ROUNDS = 3
# Weight of the quadratic pull toward the anchor centroid (m^-2 scale);
# irrelevant at in-region scales, decisive against asymptote ghosts.
_CENTROID_PRIOR = 1e-4


@dataclass(frozen=True)
class AnchorSet:
    """Pilot transmitter positions; index 0 is the reference anchor."""

    positions: np.ndarray

    def __post_init__(self):
        pos = np.atleast_2d(np.asarray(self.positions, dtype=float))
        if pos.shape[0] < 3 or pos.shape[1] != 2:
            raise ConfigurationError("2-D localization needs at least 3 anchors")
        centered = pos - pos.mean(axis=0)
        if np.linalg.matrix_rank(centered, tol=1e-9) < 2:
            raise ConfigurationError("anchors must not be collinear")
        object.__setattr__(self, "positions", pos)

    @classmethod
    def from_scenario(cls, scenario):
        return cls(scenario.tx_positions())

    def __len__(self):
        return self.positions.shape[0]


@dataclass(frozen=True)
class LocationEstimate:
    """Estimated coordinates and the final weighted least-squares cost."""

    x: float
    y: float
    residual: float


def tdoa_feature_set(pilot, sample_period):
    """Range differences c * TDoA(1, l') against the reference pilot.

    The n=1 case of tdoa_range_differences: an (L-1,) vector in meters,
    NaN where the pair correlation carries no energy (dead pilot).
    """
    return tdoa_range_differences(np.asarray(pilot)[None], sample_period)[0]


def _batch_ranges(x, a0, others):
    """Distances (n,) to the reference anchor and (n, P) to the others."""
    d0 = np.maximum(np.linalg.norm(x - a0, axis=1), 1e-12)
    dl = np.maximum(np.linalg.norm(x[:, None, :] - others[None], axis=2), 1e-12)
    return d0, dl


def _batch_residuals(x, a0, others, r):
    """Residuals g (n, P) of P usable range differences at stacked points x (n, 2)."""
    d0, dl = _batch_ranges(x, a0, others)
    return (d0[:, None] - dl) - r


def _batch_jacobian(x, a0, others):
    """Jacobians (n, P, 2) of the residuals at stacked points x (n, 2)."""
    d0, dl = _batch_ranges(x, a0, others)
    return (x - a0)[:, None, :] / d0[:, None, None] - (
        x[:, None, :] - others[None]
    ) / dl[:, :, None]


def _batch_cost(x, g, weights, center, tau):
    return np.sum(weights * g**2, axis=1) + tau * np.sum((x - center) ** 2, axis=1)


def _batch_gauss_newton(x, a0, others, r, weights, center, tau, steps=12):
    """Damped Gauss-Newton descent of sum_l w_l g_l(x)^2 + tau ||x - c||^2,
    vectorized over stacked points.

    The tiny quadratic prior toward the anchor centroid is negligible at
    in-region scales but removes the spurious minima the range-difference
    cost has along hyperbola asymptotes (quantized measurements can be
    "explained" by points at astronomic distances).

    Rows are independent: each step works only on the rows still
    descending, and a row retires as soon as its own cost decrease passes
    the convergence test or its line search rejects every trial (it keeps
    its x, a fixed point of the step).  So every row gets exactly what a
    1-row call would give it.
    """
    x = np.array(x, dtype=float)
    g = _batch_residuals(x, a0, others, r)
    cost = _batch_cost(x, g, weights, center, tau)
    # Rows still descending (indices into x) and their state; g is theirs.
    active = np.arange(x.shape[0])
    x_a, w_a, r_a, cost_a = x.copy(), weights, r, cost.copy()
    for _ in range(steps):
        jac = _batch_jacobian(x_a, a0, others)
        jw = jac * w_a[:, :, None]
        h11 = np.sum(jw[:, :, 0] * jac[:, :, 0], axis=1) + tau
        h22 = np.sum(jw[:, :, 1] * jac[:, :, 1], axis=1) + tau
        h12 = np.sum(jw[:, :, 0] * jac[:, :, 1], axis=1)
        damp = 1e-12 * (h11 + h22)
        h11 = h11 + damp
        h22 = h22 + damp
        b1 = -(np.sum(jw[:, :, 0] * g, axis=1) + tau * (x_a[:, 0] - center[0]))
        b2 = -(np.sum(jw[:, :, 1] * g, axis=1) + tau * (x_a[:, 1] - center[1]))
        det = h11 * h22 - h12**2
        det = np.where(np.abs(det) > 1e-300, det, 1.0)
        delta = np.stack([(h22 * b1 - h12 * b2) / det, (h11 * b2 - h12 * b1) / det], axis=1)
        # Backtracking line search over the pending rows (indices into the
        # active set): halve the step until the cost does not increase.
        pending = np.arange(active.size)
        scale = 1.0
        for _ in range(12):
            trial = x_a[pending] + scale * delta[pending]
            g_t = _batch_residuals(trial, a0, others, r_a[pending])
            cost_t = _batch_cost(trial, g_t, w_a[pending], center, tau)
            improve = cost_t <= cost_a[pending]
            x_a[pending[improve]] = trial[improve]
            pending = pending[~improve]
            if pending.size == 0:
                break
            scale /= 2.0
        g = _batch_residuals(x_a, a0, others, r_a)
        new_cost = _batch_cost(x_a, g, w_a, center, tau)
        done = cost_a - new_cost < 1e-14 * (1.0 + new_cost)
        done[pending] = True
        new_cost[pending] = cost_a[pending]
        cost_a = new_cost
        x[active] = x_a
        cost[active] = cost_a
        keep = ~done
        active, x_a, w_a, r_a, cost_a, g = (
            v[keep] for v in (active, x_a, w_a, r_a, cost_a, g)
        )
        if active.size == 0:
            break
    return x, cost


def _srdls_batch(pos, diffs):
    """Vectorized iteratively reweighted range-difference localization.

    pos   -- (L, 2) anchor positions, row 0 the reference
    diffs -- (n, L-1) range differences, all finite, L-1 >= 3.
    Returns estimates (n, 2) with NaN rows for rank-deficient systems, and
    the final data costs (n,).
    """
    a0 = pos[0]
    others = pos[1:]
    n = diffs.shape[0]
    # Linear squared-range-difference init.
    a_cols = np.broadcast_to(2.0 * (others - a0), (n,) + others.shape)
    a = np.concatenate([a_cols, -2.0 * diffs[:, :, None]], axis=2)
    b = (np.sum(others**2, axis=1) - np.sum(a0**2))[None, :] - diffs**2
    s = np.linalg.svd(a, compute_uv=False)
    solvable = s[:, -1] > 1e-9 * s[:, 0]
    if not np.any(solvable):
        return np.full((n, 2), np.nan), np.full(n, np.nan)
    gram = np.einsum("npi,npj->nij", a, a)
    gram[~solvable] = np.eye(3)
    rhs = np.einsum("npi,np->ni", a, b)
    linear = np.linalg.solve(gram, rhs[:, :, None])[:, :2, 0]
    centroid = pos.mean(axis=0)
    starts = [linear, np.broadcast_to(centroid, (n, 2))]
    starts += [np.broadcast_to(p + 0.5, (n, 2)) for p in pos]
    tau = _CENTROID_PRIOR
    best_x = np.full((n, 2), np.nan)
    best_cost = np.full(n, np.inf)
    for start in starts:
        x = np.array(start, dtype=float)
        weights = np.ones_like(diffs)
        cost = np.full(n, np.inf)
        for _ in range(_REWEIGHT_ROUNDS):
            x, cost = _batch_gauss_newton(x, a0, others, diffs, weights, centroid, tau)
            g = _batch_residuals(x, a0, others, diffs)
            # Scale-aware reweighting: eps at the residual noise floor keeps
            # rows within the floor equally weighted (averaging preserved)
            # while still suppressing multipath-biased outlier rows.
            eps = np.maximum(np.median(g**2, axis=1), _REWEIGHT_EPS)
            weights = 1.0 / (g**2 + eps[:, None])
        better = cost < best_cost
        best_x[better] = x[better]
        best_cost[better] = cost[better]
    # Prior-free polish: the prior has done its job (basin selection); a last
    # local descent without it removes its small bias, restoring exactness on
    # consistent inputs.
    g = _batch_residuals(best_x, a0, others, diffs)
    eps = np.maximum(np.median(g**2, axis=1), _REWEIGHT_EPS)
    weights = 1.0 / (g**2 + eps[:, None])
    best_x, _ = _batch_gauss_newton(
        best_x, a0, others, diffs, weights, centroid, 0.0, steps=8
    )
    g = _batch_residuals(best_x, a0, others, diffs)
    data_cost = np.sum(weights * g**2, axis=1)
    best_x[~solvable] = np.nan
    data_cost[~solvable] = np.nan
    return best_x, data_cost


def _localize_diffs(pos, diffs):
    """Estimates (n, 2) and data costs (n,) from (n, L-1) range differences,
    with one _srdls_batch call per pattern of finite differences, on that
    pattern's anchors.  NaN rows where localization fails, among them rows
    with fewer usable differences than the 3 unknowns (x, y, d_0)."""
    estimates = np.full((diffs.shape[0], 2), np.nan)
    residuals = np.full(diffs.shape[0], np.nan)
    patterns, inverse = np.unique(np.isfinite(diffs), axis=0, return_inverse=True)
    for k, usable in enumerate(patterns):
        if usable.sum() < 3:
            continue
        rows = inverse.reshape(-1) == k
        sub = np.vstack([pos[0], pos[1:][usable]])
        estimates[rows], residuals[rows] = _srdls_batch(sub, diffs[rows][:, usable])
    return estimates, residuals


def srdls_localize(anchors, range_diffs):
    """Iteratively reweighted range-difference least squares.

    range_diffs[l-1] = ||x - a_0|| - ||x - a_l||, NaN entries are skipped.
    The squared-range-difference linear solve initializes
    ``_REWEIGHT_ROUNDS`` rounds of residual-reweighted Gauss-Newton
    refinement (multi-started to avoid the squared system's occasional
    blowups and near-anchor ghost valleys).  The n=1 case of
    localize_batch.
    Returns a LocationEstimate, or None when fewer than three usable rows
    remain or the linear system is rank-deficient (collinear usable
    anchors).
    """
    diffs = np.asarray(range_diffs, dtype=float)
    if diffs.shape[0] != len(anchors) - 1:
        raise ValueError("expected one range difference per non-reference anchor")
    xy, cost = _localize_diffs(anchors.positions, diffs[None, :])
    if not np.isfinite(xy[0, 0]):
        return None
    return LocationEstimate(x=float(xy[0, 0]), y=float(xy[0, 1]), residual=float(cost[0]))


@dataclass(frozen=True)
class LocBFitReport:
    """Per-measurement localization outcomes of a baseline fit.

    estimates -- (N, 2) estimated coordinates, NaN rows where localization
                 failed (those measurements were dropped from the fit)
    residuals -- (N,) final weighted costs (NaN for failures)
    """

    estimates: np.ndarray
    residuals: np.ndarray

    @property
    def used(self):
        return np.isfinite(self.estimates[:, 0])

    @property
    def n_dropped(self):
        return int(np.sum(~self.used))


def localize_batch(anchors, pilots, sample_period):
    """Localize every pilot matrix in an (N, L, K) stack.

    Returns estimates (N, 2) and residuals (N,), NaN rows where
    localization fails.  Rows are independent: points that share a
    pattern of missing range differences are solved together, and each
    row equals its own srdls_localize call.
    """
    diffs = tdoa_range_differences(pilots, sample_period)
    return _localize_diffs(anchors.positions, diffs)


def locb_fit(anchors, pilots, targets, sample_period, kernel, lam, center_targets=False):
    """Localization-based map fit: estimate coordinates, then ridge-regress.

    Measurements whose localization fails are dropped (reported in the
    LocBFitReport).  The regression is the same closed-form kernel ridge
    solver used by the feature-based estimator.
    """
    targets = np.asarray(targets, dtype=float)
    report = LocBFitReport(*localize_batch(anchors, pilots, sample_period))
    used = report.used
    if used.sum() < 2:
        raise ConfigurationError("too few localizable measurements to fit a map")
    fitted = fit(
        report.estimates[used].T, targets[used], kernel, lam, center_targets=center_targets
    )
    return fitted, report

