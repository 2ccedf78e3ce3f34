"""Deterministic PCA-style reduction of feature matrices.

Feature columns are centered, decomposed by SVD, and projected onto the
dominant left-singular basis.  The retained rank is either fixed or chosen
as the smallest r whose leading singular values capture a fraction eta of
the total energy::

    r = min{ r' : sum_{m<=r'} s_m^2 / sum_m s_m^2 >= eta }

Pairwise time-difference features of L transmitters span at most L-1
dimensions (differences of L per-transmitter delays), so r = L-1 is the
natural choice there.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError


@dataclass(frozen=True)
class ReducedBasis:
    """Centering offset, orthonormal basis and the full singular spectrum.

    mean            -- (M,) column mean removed before the SVD
    vectors         -- (M, r) orthonormal columns (dominant left factors)
    singular_values -- full nonincreasing spectrum, length min(M, N)
    """

    mean: np.ndarray
    vectors: np.ndarray
    singular_values: np.ndarray

    def __post_init__(self):
        gram = self.vectors.T @ self.vectors
        if not np.allclose(gram, np.eye(self.rank), atol=1e-10):
            raise ValueError("basis columns must be orthonormal within 1e-10")
        s = self.singular_values
        if np.any(s < 0) or np.any(np.diff(s) > 1e-12 * max(s[0], 1.0)):
            raise ValueError("singular values must be nonnegative and nonincreasing")

    @property
    def rank(self):
        return self.vectors.shape[1]

    @property
    def n_features(self):
        return self.vectors.shape[0]


def center(features):
    """Remove the column mean: returns (mean, centered matrix)."""
    features = np.asarray(features, dtype=float)
    mean = features.mean(axis=1)
    return mean, features - mean[:, None]


def select_rank(singular_values, eta):
    """Smallest rank whose energy fraction reaches eta (0 < eta <= 1)."""
    if not 0.0 < eta <= 1.0:
        raise ConfigurationError("eta must lie in (0, 1]")
    s = np.asarray(singular_values, dtype=float)
    total = np.sum(s**2)
    if total == 0.0:
        raise ConfigurationError("all singular values are zero (degenerate input)")
    ratio = np.cumsum(s**2) / total
    return int(np.searchsorted(ratio, eta - 1e-15) + 1)


def _fix_signs(u, vt):
    """Orient each left singular vector so its largest-|.| entry is positive."""
    idx = np.argmax(np.abs(u), axis=0)
    signs = np.sign(u[idx, np.arange(u.shape[1])])
    signs[signs == 0] = 1.0
    return u * signs, vt * signs[:, None]


def reduce_features(features, eta=None, rank=None):
    """Center, decompose and project a feature matrix.

    Exactly one of ``eta`` (energy fraction) or ``rank`` must be given.
    Returns (ReducedBasis, reduced matrix of shape (r, N)).
    """
    if (eta is None) == (rank is None):
        raise ConfigurationError("give exactly one of eta or rank")
    features = np.asarray(features, dtype=float)
    if not np.all(np.isfinite(features)):
        raise ValueError("feature matrix must be finite (complete features only)")
    mean, centered = center(features)
    u, s, vt = np.linalg.svd(centered, full_matrices=False)
    u, vt = _fix_signs(u, vt)
    if rank is None:
        rank = select_rank(s, eta)
    if not 1 <= rank <= features.shape[0]:
        raise ConfigurationError("rank must lie in 1..M")
    basis = ReducedBasis(mean=mean, vectors=u[:, :rank], singular_values=s)
    return basis, basis.vectors.T @ centered


def project(basis, phi):
    """Coordinates of feature vector(s) in the reduced basis: U1^T (phi - mean).

    Accepts a single (M,) vector or stacked (M, n) columns.
    """
    phi = np.asarray(phi, dtype=float)
    single = phi.ndim == 1
    cols = phi[:, None] if single else phi
    if cols.shape[0] != basis.n_features:
        raise ValueError(
            f"feature dimension {cols.shape[0]} does not match basis ({basis.n_features})"
        )
    out = basis.vectors.T @ (cols - basis.mean[:, None])
    return out[:, 0] if single else out

