"""Missing-feature machinery: rank-constrained completion and query recovery.

Training-side: the incomplete feature matrix is completed by singular
value projection (SVP), projected gradient descent onto the set of rank-r
matrices::

    X_{t+1} = P_r( X_t - step * P_Omega(X_t - Phi) )

where P_Omega zeroes unobserved entries and P_r is the orthogonal
projection onto the span of the top r eigenvectors of the smaller Gram
matrix (X X^T, or X^T X when X is tall): the rank-r truncation of the SVD,
without computing an SVD.  An orthonormal basis for the completed column
space is then extracted by Gram-Schmidt, and the reduced training features
are the coordinates in that basis.

Query-side: a query vector with observed subset Omega' is lifted to its
reduced coordinates by regularized least squares against the sample
statistics (mean, covariance) of the reduced training features; with no
observed entries at all the caller is told to fall back to the spatial
average of the measured powers.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, SolverError

# Consecutive residual increases tolerated before the step is halved, the
# smallest step, relative to the configured one, before giving up, and the
# change of the observed residual below which SVP has converged.
_DIVERGENCE_PATIENCE = 10
_MIN_STEP_FRACTION = 1e-6
_TOL = 1e-12


@dataclass(frozen=True)
class IncompleteFeatureMatrix:
    """Feature matrix with an observation mask (True = observed).

    Values at unobserved positions are zeroed on construction and never
    read; any non-finite observed value is a usage error.
    """

    values: np.ndarray
    observed: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        observed = np.asarray(self.observed, dtype=bool)
        if values.shape != observed.shape or values.ndim != 2:
            raise ValueError("values and observed mask must be equal-shape 2-D arrays")
        if not np.all(np.isfinite(values[observed])):
            raise ValueError("observed entries must be finite")
        object.__setattr__(self, "values", np.where(observed, values, 0.0))
        object.__setattr__(self, "observed", observed)

    @property
    def shape(self):
        return self.values.shape

    @property
    def n_observed(self):
        return int(self.observed.sum())


@dataclass(frozen=True)
class CompletionConfig:
    """SVP controls: target rank, step policy and iteration limit.

    With ``adaptive_step`` (default) the step follows the Barzilai-Borwein
    rule <dx,dx>/<dx,dg>, seeded and clamped relative to ``step``; plain
    projected gradient descent converges impractically slowly on wide
    feature matrices.  Set it False for a constant step (monotone observed
    residual when step <= 1).
    """

    rank: int
    step: float = 1.0
    max_iters: int = 500
    adaptive_step: bool = True

    def __post_init__(self):
        if self.rank < 1:
            raise ConfigurationError("target rank must be >= 1")
        if self.step <= 0:
            raise ConfigurationError("step size must be > 0")


@dataclass(frozen=True)
class CompletionResult:
    """Final iterate plus the observed residual of every iteration.

    residuals -- (iterations,) float64 array: ||P_Omega(X_t - Phi)||_F
                 relative to ||P_Omega(Phi)||_F after each projection
    """

    matrix: np.ndarray
    residuals: np.ndarray
    iterations: int
    converged: bool

    @property
    def final_residual(self):
        return float(self.residuals[-1]) if self.residuals.size else 0.0


def _rank_truncate(matrix, rank):
    """Projection of ``matrix`` onto its top-``rank`` singular subspace,
    through the eigenvectors of the smaller Gram matrix.

    Squaring the singular values limits the accuracy: the projection
    matches the truncated SVD to about eps * s_1^2 / (s_r^2 - s_{r+1}^2)
    relative, so it needs s_r^2 - s_{r+1}^2 >> eps * s_1^2.
    """
    if matrix.shape[0] <= matrix.shape[1]:
        u = np.linalg.eigh(matrix @ matrix.T)[1][:, -rank:]
        return u @ (u.T @ matrix)
    v = np.linalg.eigh(matrix.T @ matrix)[1][:, -rank:]
    return (matrix @ v) @ v.T


def svp_complete(incomplete, config):
    """Rank-constrained completion of an incomplete feature matrix by SVP.

    Minimizes ||P_Omega(X - Phi)||_F^2 over rank-<=r matrices.  Stops when
    the relative change of the observed residual drops below ``_TOL`` or
    after ``max_iters``.  A residual that keeps growing triggers step
    halving, and the descent restarts from the iterate of least residual
    (the zero start included); if halving bottoms out, or the iterate
    overflows before it can act, a SolverError suggests a smaller step.
    """
    m, n = incomplete.shape
    if config.rank > min(m, n):
        raise ConfigurationError("target rank cannot exceed min(M, N)")
    mask = incomplete.observed
    target = incomplete.values
    norm_obs = np.linalg.norm(target)
    scale = norm_obs if norm_obs > 0 else 1.0
    base = config.step
    step = base
    x = np.zeros((m, n))
    # The masked residual of each iterate is both its observed residual and
    # the next gradient.
    gradient = np.where(mask, x - target, 0.0)
    best_res, best_x, best_grad = np.linalg.norm(gradient) / scale, x, gradient
    prev_x = None
    prev_grad = None
    residuals = []
    prev = np.inf
    grow_streak = 0
    converged = False
    iterations = 0
    for iterations in range(1, config.max_iters + 1):
        if config.adaptive_step and prev_grad is not None:
            dx = x - prev_x
            dg = gradient - prev_grad
            dot = np.sum(dx * dg)
            step = np.sum(dx * dx) / dot if dot > 1e-300 else base
            step = min(max(step, 0.5 * base), 1e4 * base)
        prev_x, prev_grad = x, gradient
        try:
            x = _rank_truncate(x - step * gradient, config.rank)
        except np.linalg.LinAlgError as exc:  # the iterate overflowed
            raise SolverError(
                f"SVP iterate overflowed at iteration {iterations}; retry with a smaller step"
            ) from exc
        gradient = np.where(mask, x - target, 0.0)
        res = np.linalg.norm(gradient) / scale
        residuals.append(res)
        if res < best_res:
            best_res, best_x, best_grad = res, x, gradient
        if res > prev:
            grow_streak += 1
            if grow_streak >= _DIVERGENCE_PATIENCE:
                base /= 2.0
                step = base
                # Restart from the best iterate, not from the blown-up one.
                x, gradient, res = best_x, best_grad, best_res
                prev_x = prev_grad = None
                grow_streak = 0
                if base < _MIN_STEP_FRACTION * config.step:
                    raise SolverError(
                        "SVP diverges even after step halving; retry with a smaller step"
                    )
        else:
            grow_streak = 0
        if abs(prev - res) < _TOL:
            converged = True
            break
        prev = res
    return CompletionResult(
        matrix=x,
        residuals=np.array(residuals, dtype=float),
        iterations=iterations,
        converged=converged,
    )


def gram_schmidt_basis(matrix, rank):
    """Orthonormalize the first ``rank`` linearly independent columns.

    Modified Gram-Schmidt; a column joins the basis only if its residual
    after projection exceeds 1e-8 times its norm.  Raises SolverError when
    fewer than ``rank`` independent columns exist.
    """
    matrix = np.asarray(matrix, dtype=float)
    basis = []
    for col in matrix.T:
        vec = col.copy()
        for b in basis:
            vec -= (b @ vec) * b
        norm = np.linalg.norm(vec)
        if norm > 1e-8 * max(np.linalg.norm(col), 1e-300):
            basis.append(vec / norm)
            if len(basis) == rank:
                return np.stack(basis, axis=1)
    raise SolverError(
        f"matrix has fewer than {rank} numerically independent columns"
    )


@dataclass(frozen=True)
class QueryRecoveryContext:
    """Everything needed to lift incomplete query features to reduced ones.

    basis    -- (M, r) orthonormal columns from the completed training matrix
    mean     -- (r,) sample mean of the reduced training features
    cov      -- (r, r) sample covariance of the reduced training features
    mu       -- regularization weight of the prior term
    cov_inv  -- inverse of ``cov`` (jittered if singular)
    """

    basis: np.ndarray
    mean: np.ndarray
    cov: np.ndarray
    mu: float
    cov_inv: np.ndarray


def build_recovery_context(basis, reduced_training, mu):
    """Sample statistics of the reduced training features plus their inverse.

    mean = (1/N) Phi 1 and cov = (1/N)(Phi - mean 1^T)(Phi - mean 1^T)^T.
    A singular covariance gets a jitter of 1e-8 * trace/r before inversion.
    """
    if mu <= 0:
        raise ConfigurationError("mu must be > 0")
    basis = np.asarray(basis, dtype=float)
    reduced = np.asarray(reduced_training, dtype=float)
    if reduced.ndim != 2 or reduced.shape[1] < 2:
        raise ValueError("reduced training features must be (r, N) with N >= 2")
    r, n = reduced.shape
    mean = reduced.mean(axis=1)
    centered = reduced - mean[:, None]
    cov = centered @ centered.T / n
    try:
        cov_inv = np.linalg.inv(cov)
    except np.linalg.LinAlgError:
        jitter = 1e-8 * np.trace(cov) / r
        if jitter == 0.0:
            jitter = 1e-8
        cov_inv = np.linalg.inv(cov + jitter * np.eye(r))
    return QueryRecoveryContext(basis=basis, mean=mean, cov=cov, mu=mu, cov_inv=cov_inv)


@dataclass(frozen=True)
class RecoveredQuery:
    """Reduced query features plus how trustworthy they are.

    status -- "ok" (at least r observed features), "underdetermined"
              (some but fewer than r; the prior dominates), or "empty"
              (nothing observed; caller should predict the spatial average
              of the measured powers instead).
    """

    reduced: np.ndarray
    status: str


def rls_recover_queries(ctx, incomplete):
    """Regularized least-squares recovery of the (M, n) query columns ``incomplete``.

    Solves, for each column over its observed rows S of the basis U,

        min_z ||S phi - S U z||^2 + mu (z - mean)^T cov^-1 (z - mean)

    via the closed form
    z = (U^T S^T S U + mu cov^-1)^-1 (U^T S^T S phi + mu cov^-1 mean),
    with one solve per distinct observation pattern.  Returns (r, n)
    reduced columns, NaN where nothing is observed.
    """
    values, observed = incomplete.values, incomplete.observed
    if values.shape[0] != ctx.basis.shape[0]:
        raise ValueError("query vector length must match the basis row count")
    reduced = np.full((ctx.basis.shape[1], values.shape[1]), np.nan)
    prior = ctx.mu * ctx.cov_inv
    patterns, inverse = np.unique(observed.T, axis=0, return_inverse=True)
    for k, rows in enumerate(patterns):
        if not rows.any():
            continue
        cols = inverse.reshape(-1) == k
        u_obs = ctx.basis[rows]
        lhs = u_obs.T @ u_obs + prior
        rhs = u_obs.T @ values[rows][:, cols] + (prior @ ctx.mean)[:, None]
        reduced[:, cols] = np.linalg.solve(lhs, rhs)
    return reduced


def rls_recover_query(ctx, values, observed):
    """Recovery of one (M,) query vector: the n=1 case of rls_recover_queries,
    with its status.  The (M, 1) IncompleteFeatureMatrix of the query checks
    its shapes and values."""
    query = IncompleteFeatureMatrix(np.asarray(values)[:, None], np.asarray(observed)[:, None])
    reduced = rls_recover_queries(ctx, query)[:, 0]
    if query.n_observed == 0:
        return RecoveredQuery(reduced=None, status="empty")
    status = "ok" if query.n_observed >= ctx.basis.shape[1] else "underdetermined"
    return RecoveredQuery(reduced=reduced, status=status)
