"""Location-based baseline: TDoA multilateration plus a kernel map over
estimated coordinates.

The localizer first solves the squared-range-difference system.  With
anchor 1 as reference, measured range differences
r_l = ||x - a_1|| - ||x - a_l|| give, for the unknowns (x, d_1) with
d_1 = ||x - a_1||,

    2 (a_l - a_1)^T x - 2 r_l d_1 = ||a_l||^2 - ||a_1||^2 - r_l^2 ,

a linear system whose 3 x 3 normal equations are solved by Cramer's rule,
so its bits, which the descent below carries on, do not depend on the
host's BLAS kernels.  The squared system amplifies measurement error and
ignores the coupling d_1 = ||x - a_1||, so the linear solution only
initializes an iteratively reweighted Gauss-Newton descent on the raw
range-difference residuals

    g_l(x) = ||x - a_1|| - ||x - a_l|| - r_l ,

with weights w_l = 1/(g_l^2 + eps) recomputed each round to down-weight
multipath-corrupted rows.  Estimates are never clamped to the region:
badly corrupted features yield wild but finite coordinates, which is
exactly what the map learner then has to cope with.

Batches are solved per pattern of usable range differences, and the
rows of a batch are independent: a point's estimate never depends on
which other points share its batch.  Range differences are integer lags
times c T, so rows repeat, within a batch and even more across the runs
of a sweep.  An AnchorSet keeps the distinct rows (NaN pattern included)
solved against its positions with their answers; each call solves only
the rows it has not seen, which row independence makes exact.  A fresh
AnchorSet still solves a call's equal rows once.  The evaluation grid
owns the AnchorSet of its scenario, so every locb fit and predict on that
grid shares its rows.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .completion import row_patterns
from .errors import ConfigurationError
from .features import tdoa_range_differences
from .kernels import fit

log = logging.getLogger(__name__)

_REWEIGHT_EPS = 1e-6
# Residual-reweighted Gauss-Newton rounds per start.
_REWEIGHT_ROUNDS = 3
# Weight of the quadratic pull toward the anchor centroid (m^-2 scale);
# irrelevant at in-region scales, decisive against asymptote ghosts.
_CENTROID_PRIOR = 1e-4
# Points per _srdls_batch block: bounds the memory of their stacked starts.
_BLOCK_ROWS = 1200
# Rows a line-search trial of _batch_gauss_newton evaluates at least, when
# enough step halvings remain: below a few hundred rows a trial costs
# numpy's per-call overhead, not arithmetic.
_TRIAL_ROWS = 512


class AnchorSet:
    """Pilot transmitter positions, and every distinct range-difference row
    solved against them so far, with its answer.

    positions -- (L, 2), index 0 the reference anchor; at least 3 anchors,
                 not collinear
    keys      -- (m, L-1) distinct rows, sorted as np.unique sorts them;
                 unusable (non-finite) entries are keyed as inf, so equal
                 values in different patterns stay distinct
    estimates -- (m, 2) estimates and residuals (m,) data costs, NaN where
                 localization fails

    Rows are independent, so a row solved before gets the bits a fresh
    solve would give it.  The rows only grow: every row localize_batch or
    locb_fit gives the set stays, and each call re-sorts them all.
    """

    def __init__(self, positions):
        pos = np.atleast_2d(np.asarray(positions, dtype=float))
        if pos.shape[0] < 3 or pos.shape[1] != 2:
            raise ConfigurationError("2-D localization needs at least 3 anchors")
        if np.linalg.matrix_rank(pos - pos.mean(axis=0), tol=1e-9) < 2:
            raise ConfigurationError("anchors must not be collinear")
        self.positions = pos
        self.keys = np.empty((0, pos.shape[0] - 1))
        self.estimates = np.empty((0, 2))
        self.residuals = np.empty(0)

    @classmethod
    def from_scenario(cls, scenario):
        return cls(scenario.tx_positions())

    def __len__(self):
        return self.positions.shape[0]

    def localize(self, diffs):
        """Estimates (n, 2) and data costs (n,) from (n, L-1) range
        differences.  NaN rows where localization fails, among them rows
        with fewer usable differences than the 3 unknowns (x, y, d_0).

        The call's rows are merged into the solved ones by one np.unique: a
        row is known when its first occurrence is a solved row.  The
        distinct rows not yet solved are solved with one _srdls_batch call
        per pattern of finite differences (completion.row_patterns), on that
        pattern's anchors, and the merged rows become the solved ones.
        """
        if diffs.shape[1] != len(self) - 1:
            raise ValueError(f"{len(self)} anchors take {len(self) - 1} range differences "
                             f"per row, one per non-reference anchor; got {diffs.shape[1]}")
        keys = np.where(np.isfinite(diffs), diffs, np.inf)
        solved = self.keys.shape[0]
        merged, first, inverse = np.unique(
            np.concatenate([self.keys, keys]), axis=0, return_index=True, return_inverse=True
        )
        known = first < solved
        estimates = np.full((merged.shape[0], 2), np.nan)
        residuals = np.full(merged.shape[0], np.nan)
        estimates[known], residuals[known] = self.estimates[first[known]], self.residuals[first[known]]
        new = (~known).nonzero()[0]
        patterns, pattern_of = row_patterns(np.isfinite(merged[new]))
        for k, usable in enumerate(patterns):
            if usable.sum() < 3:
                continue
            solve = new[pattern_of == k]
            sub = np.vstack([self.positions[0], self.positions[1:][usable]])
            estimates[solve], residuals[solve] = _srdls_batch(sub, merged[solve][:, usable])
        inverse = inverse.reshape(-1)[solved:]
        self.keys, self.estimates, self.residuals = merged, estimates, residuals
        if log.isEnabledFor(logging.DEBUG):
            log.debug("%d distinct of %d rows, %d patterns solved", len(np.unique(inverse)),
                      len(diffs), np.count_nonzero(patterns.sum(axis=1) >= 3))
        return estimates[inverse], residuals[inverse]


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


def _row_sum(v):
    """Row sums of v (n, P), bit for bit those of np.sum(v, axis=1).

    Below 8 terms numpy's pairwise summation adds a row left to right,
    starting from 0.0, so adding whole columns in that order gives its
    bits, signed zeros and NaNs included; from 8 terms on it blocks the
    row, and np.sum does the work.  On short rows numpy's per-row
    reduction costs about 7x the column adds.  The guard tests in
    tests/test_localization.py check the order on the installed numpy.
    """
    if v.shape[1] >= 8:
        return np.sum(v, axis=1)
    total = 0.0 + v[:, 0]
    for j in range(1, v.shape[1]):
        total += v[:, j]
    return total


def _row_median(v):
    """np.median(v, axis=1) for non-negative v (n, P), from the sorted
    columns: the middle one, or the mean of the middle two.  A row holding
    a NaN (sorted last) gets NaN, as np.median gives it."""
    s = np.sort(v, axis=1)
    half = s.shape[1] // 2
    median = s[:, half] if s.shape[1] % 2 else (s[:, half - 1] + s[:, half]) / 2.0
    median[np.isnan(s[:, -1])] = np.nan
    return median


def _batch_residuals(x, y, a0, others, r):
    """Residuals g (n, P) of P usable range differences at points (x, y), and
    for their Jacobian the distances d0 (n,) to the reference anchor and dl
    (n, P) to the others, and the offsets lx, ly (n, P) from the others."""
    lx = x[:, None] - others[:, 0]
    ly = y[:, None] - others[:, 1]
    dl = lx * lx
    dl += ly * ly
    np.maximum(np.sqrt(dl, out=dl), 1e-12, out=dl)
    ex, ey = x - a0[0], y - a0[1]
    d0 = np.maximum(np.sqrt(ex * ex + ey * ey), 1e-12)
    g = d0[:, None] - dl
    g -= r
    return g, d0, dl, lx, ly


def _batch_cost(x, y, g, weights, center, tau):
    cx, cy = x - center[0], y - center[1]
    return _row_sum(weights * (g * g)) + tau * (cx * cx + cy * cy)


def _residual_weights(x, a0, others, r):
    """Weights (n, P) from the residuals at points x (n, 2).  Scale-aware: eps
    at the residual noise floor keeps rows within the floor equally weighted
    (averaging preserved) while still suppressing multipath-biased outliers."""
    g = _batch_residuals(x[:, 0], x[:, 1], a0, others, r)[0]
    g *= g
    eps = np.maximum(_row_median(g), _REWEIGHT_EPS)
    g += eps[:, None]
    return np.divide(1.0, g, out=g)


def _batch_gauss_newton(xy, a0, others, r, weights, center, tau, steps=12):
    """Damped Gauss-Newton descent of sum_l w_l g_l(x)^2 + tau ||x - c||^2,
    vectorized over stacked points xy (n, 2).

    The tiny quadratic prior toward the anchor centroid is negligible at
    in-region scales but removes the spurious minima the range-difference
    cost has along hyperbola asymptotes (quantized measurements can be
    "explained" by points at astronomic distances).

    Rows are independent: each step works only on the rows still
    descending, and a row retires as soon as its own cost decrease passes
    the convergence test or its line search rejects every trial (it keeps
    its x, a fixed point of the step).  So every row gets exactly what a
    1-row call would give it.  A row's accepted trial carries over: its
    residuals and cost feed the convergence test, and its distances and
    offsets the next Jacobian, without being computed again.

    The arrays are (n, P), P usable range differences (3 to 6 in the
    presets).  On so short a last axis numpy's per-row reductions and
    boolean-mask indexing are slow paths: the sums go through _row_sum,
    and the active set and each trial's pending rows are gathered with
    take on index arrays.  When few rows pend, numpy's per-call overhead
    dominates, so a trial evaluates several halvings of each row at once.
    None of this changes a bit: _row_sum adds in np.sum's order, every row
    sees the same operations, and a row keeps its first accepted halving,
    as trying them one at a time would.
    """
    x, y = np.array(xy[:, 0], dtype=float), np.array(xy[:, 1], dtype=float)
    g, d0, dl, lx, ly = _batch_residuals(x, y, a0, others, r)
    cost = _batch_cost(x, y, g, weights, center, tau)
    out_x, out_y, out_cost = x.copy(), y.copy(), cost.copy()
    # Rows still descending (indices into the outputs) and their state.
    active, w, r_a = np.arange(x.size), weights, r
    for _ in range(steps):
        jx = lx / dl
        np.subtract(((x - a0[0]) / d0)[:, None], jx, out=jx)
        jy = ly / dl
        np.subtract(((y - a0[1]) / d0)[:, None], jy, out=jy)
        wx, wy = jx * w, jy * w
        h11 = _row_sum(wx * jx) + tau
        h22 = _row_sum(wy * jy) + tau
        h12 = _row_sum(wx * jy)
        damp = 1e-12 * (h11 + h22)
        h11 += damp
        h22 += damp
        b1 = -(_row_sum(wx * g) + tau * (x - center[0]))
        b2 = -(_row_sum(wy * g) + tau * (y - center[1]))
        det = h11 * h22 - h12**2
        det = np.where(np.abs(det) > 1e-300, det, 1.0)
        dx = (h22 * b1 - h12 * b2) / det
        dy = (h11 * b2 - h12 * b1) / det
        # Backtracking line search: halve the step, up to 11 times, until
        # the cost does not increase.  The first, full step covers every
        # row, so its arrays become the new state.  The rows still pending
        # (indices into the active set) are gathered and tried at the next
        # k halvings at once, k = 1 while _TRIAL_ROWS or more rows pend;
        # each row takes its first accepted trial into the new state.
        new_x, new_y = x + dx, y + dy
        g, d0, dl, lx, ly = _batch_residuals(new_x, new_y, a0, others, r_a)
        new_cost = _batch_cost(new_x, new_y, g, w, center, tau)
        pending = (~(new_cost <= cost)).nonzero()[0]
        new = (new_x, new_y, new_cost, g, d0, dl, lx, ly)
        halvings = 0
        while pending.size and halvings < 11:
            k = min(11 - halvings, max(1, _TRIAL_ROWS // pending.size))
            exponents = np.arange(halvings + 1, halvings + k + 1)
            scale = np.repeat(np.ldexp(1.0, -exponents), pending.size)
            rows = np.tile(pending, k)
            halvings += k
            tx = x.take(rows) + scale * dx.take(rows)
            ty = y.take(rows) + scale * dy.take(rows)
            g_t, *geo = _batch_residuals(tx, ty, a0, others, r_a.take(rows, axis=0))
            cost_t = _batch_cost(tx, ty, g_t, w.take(rows, axis=0), center, tau)
            improve = (cost_t <= cost.take(rows)).reshape(k, pending.size)
            hit = improve.any(axis=0)
            accepted = hit.nonzero()[0]
            first = improve.argmax(axis=0).take(accepted) * pending.size + accepted
            for v, t in zip(new, (tx, ty, cost_t, g_t, *geo)):
                v[pending.take(accepted)] = t.take(first, axis=0)
            pending = pending.take((~hit).nonzero()[0])
        new_x[pending], new_y[pending] = x.take(pending), y.take(pending)
        new_cost[pending] = cost.take(pending)
        done = cost - new_cost < 1e-14 * (1.0 + new_cost)
        done[pending] = True
        x, y, cost = new_x, new_y, new_cost
        retired = done.nonzero()[0]
        ids = active.take(retired)
        out_x[ids], out_y[ids], out_cost[ids] = x.take(retired), y.take(retired), cost.take(retired)
        keep = (~done).nonzero()[0]
        active, x, y, w, r_a, cost, g, d0, dl, lx, ly = (
            v.take(keep, axis=0) for v in (active, x, y, w, r_a, cost, g, d0, dl, lx, ly)
        )
        if active.size == 0:
            break
    out_x[active], out_y[active], out_cost[active] = x, y, cost
    return np.stack([out_x, out_y], axis=1), out_cost


def _linear_start(pos, diffs):
    """The linear start (n, 2), NaN where the svd finds the system
    rank-deficient, and the rows (n,) where it does not.

    Cramer's rule in elementwise operations (einsum uses numpy's own
    loops, not BLAS) on the Gram's upper triangle: x_i = sum_j rhs_j C_ij
    / det, C the symmetric cofactor matrix.
    """
    a0, others = pos[0], pos[1:]
    n = diffs.shape[0]
    a_cols = np.broadcast_to(2.0 * (others - a0), (n,) + others.shape)
    a = np.concatenate([a_cols, -2.0 * diffs[:, :, None]], axis=2)
    b = (np.sum(others**2, axis=1) - np.sum(a0**2))[None, :] - diffs**2
    s = np.linalg.svd(a, compute_uv=False)
    solvable = s[:, -1] > 1e-9 * s[:, 0]
    gram = np.moveaxis(np.einsum("npi,npj->nij", a, a), 0, -1)
    g00, g01, g02, g11, g12, g22 = gram[np.triu_indices(3)]
    r0, r1, r2 = np.einsum("npi,np->ni", a, b).T
    c00, c01, c02 = g11 * g22 - g12 * g12, g02 * g12 - g01 * g22, g01 * g12 - g02 * g11
    c11, c12 = g00 * g22 - g02 * g02, g01 * g02 - g00 * g12
    det = np.where(solvable, g00 * c00 + g01 * c01 + g02 * c02, np.nan)
    x = (r0 * c00 + r1 * c01 + r2 * c02) / det
    y = (r0 * c01 + r1 * c11 + r2 * c12) / det
    return np.stack([x, y], axis=1), solvable


def _srdls_batch(pos, diffs):
    """Vectorized iteratively reweighted range-difference localization.

    pos   -- (L, 2) anchor positions, row 0 the reference
    diffs -- (n, L-1) range differences, all finite, L-1 >= 3.
    Returns estimates (n, 2) with NaN rows for rank-deficient systems, and
    the final data costs (n,).

    The 2 + L starts (the linear start, a 3 x 3 normal-equation solve by
    Cramer's rule whose bits do not depend on the host; the anchor
    centroid; each anchor + 0.5) are stacked as rows of one batch, one
    _batch_gauss_newton call per round, in blocks of _BLOCK_ROWS points.
    Per point the start of least cost wins, the earliest on a tie; a NaN
    cost never wins.
    """
    n = diffs.shape[0]
    if n > _BLOCK_ROWS:
        blocks = [_srdls_batch(pos, diffs[i : i + _BLOCK_ROWS]) for i in range(0, n, _BLOCK_ROWS)]
        return tuple(np.concatenate(part) for part in zip(*blocks))
    a0 = pos[0]
    others = pos[1:]
    linear, solvable = _linear_start(pos, diffs)
    if not np.any(solvable):
        return np.full((n, 2), np.nan), np.full(n, np.nan)
    centroid = pos.mean(axis=0)
    starts = [linear, np.broadcast_to(centroid, (n, 2))]
    starts += [np.broadcast_to(p + 0.5, (n, 2)) for p in pos]
    x = np.concatenate(starts)
    r = np.tile(diffs, (len(starts), 1))
    tau = _CENTROID_PRIOR
    x, cost = _batch_gauss_newton(x, a0, others, r, np.ones_like(r), centroid, tau)
    for _ in range(_REWEIGHT_ROUNDS - 1):
        weights = _residual_weights(x, a0, others, r)
        x, cost = _batch_gauss_newton(x, a0, others, r, weights, centroid, tau)
    best_x = np.full((n, 2), np.nan)
    best_cost = np.full(n, np.inf)
    for x_s, cost_s in zip(x.reshape(-1, n, 2), cost.reshape(-1, n)):
        better = cost_s < best_cost
        best_x[better] = x_s[better]
        best_cost[better] = cost_s[better]
    # Prior-free polish: the prior has done its job (basin selection); a last
    # local descent without it removes its small bias, restoring exactness on
    # consistent inputs.
    weights = _residual_weights(best_x, a0, others, diffs)
    best_x, _ = _batch_gauss_newton(
        best_x, a0, others, diffs, weights, centroid, 0.0, steps=8
    )
    g = _batch_residuals(best_x[:, 0], best_x[:, 1], a0, others, diffs)[0]
    data_cost = _row_sum(weights * (g * g))
    best_x[~solvable] = np.nan
    data_cost[~solvable] = np.nan
    return best_x, data_cost


def srdls_localize(anchors, range_diffs):
    """Iteratively reweighted range-difference least squares.

    range_diffs[l-1] = ||x - a_0|| - ||x - a_l||, NaN entries are skipped.
    The squared-range-difference linear solve initializes
    ``_REWEIGHT_ROUNDS`` rounds of residual-reweighted Gauss-Newton
    refinement (multi-started to avoid the squared system's occasional
    blowups and near-anchor ghost valleys).  The n=1 case of
    localize_batch, solved on a fresh AnchorSet: ``anchors`` keeps no row.
    Returns a LocationEstimate, or None when fewer than three usable rows
    remain or the linear system is rank-deficient (collinear usable
    anchors).
    """
    xy, cost = AnchorSet(anchors.positions).localize(np.asarray(range_diffs, float)[None])
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
    row equals its own srdls_localize call.  So equal rows of range
    differences are solved once and share their answer, and the AnchorSet
    ``anchors`` answers the rows it has solved before and keeps the new
    ones for as long as it lives.
    """
    return anchors.localize(tdoa_range_differences(pilots, sample_period))


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

