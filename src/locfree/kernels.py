"""Kernel ridge regression over arbitrary feature vectors.

Training pairs (phi_n, p_n) define the Gram matrix K with entries
kappa(phi_n, phi_n'); the ridge coefficients solve the regularized
least-squares problem

    min_alpha (1/N) ||p - K alpha||^2 + lambda alpha^T K alpha

in closed form, alpha = (K + lambda N I)^-1 p, and predictions follow the
kernel expansion d(phi) = sum_n alpha_n kappa(phi, phi_n).

Squared distances are summed one coordinate at a time from the coordinate
differences, in the order scipy's cdist sums them, and to its bits: equal
columns are exactly 0 apart however far out they lie (a failed
localization's estimates reach 1e17 m), and kernel(a, b) is kernel(b, a)
transposed.
"""

import json
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, SolverError
from .reduction import ReducedBasis, project
from .scenario import keyword_args, read_json

# Coordinate differences per block of the distance accumulation; a block
# of 2**16 doubles (512 kB) stays in cache between its square and its sum.
_BLOCK_PAIRS = 1 << 16


def _sqdist(a, b):
    """(na, nb) squared distances of the columns of a and b: the sum over
    coordinates k of (a_k - b_k)^2, from k = 0 up.

    The differences of a block of rows come from one product
    [a_k 1] [1; -b_k] per coordinate.  Its products are exact and its sum
    rounds once, so it gives the bits of a_k - b_k, faster than numpy's
    broadcast subtraction.
    """
    (m, na), nb = a.shape, b.shape[1]
    if b.shape[0] != m:
        raise ValueError(f"columns of {m} and {b.shape[0]} coordinates")
    rows = max(1, _BLOCK_PAIRS // max(nb, 1))
    sq = np.zeros((na, nb))
    right = np.ones((m, 2, nb))
    np.negative(b, out=right[:, 1])
    left = np.ones((m, min(rows, na), 2))
    diff = np.empty((min(rows, na), nb))
    for lo in range(0, na, rows):
        block = sq[lo:lo + rows]
        left[:, :len(block), 0] = a[:, lo:lo + rows]
        for k in range(m):
            d = np.matmul(left[k, :len(block)], right[k], out=diff[:len(block)])
            block += np.square(d, out=d)
    return sq


@dataclass(frozen=True)
class GaussianKernel:
    """Gaussian radial basis function exp(-||phi - phi'||^2 / (2 sigma^2))."""

    sigma: float

    def __post_init__(self):
        if not 0.0 < self.sigma < np.inf:
            raise ValueError(f"kernel bandwidth sigma must be finite and > 0, got {self.sigma}")

    def __call__(self, cols_a, cols_b):
        """Pairwise kernel values for stacked feature columns: (na, nb)."""
        a = np.atleast_2d(np.asarray(cols_a, dtype=float))
        b = np.atleast_2d(np.asarray(cols_b, dtype=float))
        sq = _sqdist(a, b)
        # In place on the (na, nb) block; sq / -c has the bits of -sq / c.
        return np.exp(np.divide(sq, -(2.0 * self.sigma**2), out=sq), out=sq)


@dataclass(frozen=True)
class FittedMap:
    """Immutable fitted power map.

    features    -- (M, N) stored training feature columns (reduced features
                   when ``basis`` is set)
    alpha       -- (N,) ridge coefficients
    target_mean -- offset added back to the kernel expansion (0 unless the
                   fit centered its targets)
    basis       -- optional ReducedBasis applied to raw query features
    """

    kernel: GaussianKernel
    lam: float
    features: np.ndarray
    alpha: np.ndarray
    target_mean: float = 0.0
    basis: ReducedBasis = None


def fit(features, targets, kernel, lam, center_targets=False):
    """Closed-form kernel ridge regression fit.

    ``lam = 0`` is allowed only when the Gram matrix is numerically
    nonsingular (pure interpolation); otherwise a SolverError advises
    regularizing.
    """
    features = np.array(features, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if features.ndim != 2 or targets.ndim != 1 or features.shape[1] != targets.shape[0]:
        raise ValueError("features must be (M, N) with N matching len(targets)")
    if not (np.all(np.isfinite(features)) and np.all(np.isfinite(targets))):
        raise ValueError("training data must be finite (complete features only)")
    if not 0.0 <= lam < np.inf:
        raise ValueError(f"lambda must be finite and >= 0, got {lam}")
    n = targets.shape[0]
    mean = float(np.mean(targets)) if center_targets else 0.0
    rhs = targets - mean
    # Exactly symmetric, unit diagonal: _sqdist rounds a_j - a_i to -(a_i - a_j).
    system = kernel(features, features) + lam * n * np.eye(n)
    tol = 1e-8 * max(np.linalg.norm(rhs), 1.0)
    try:
        alpha = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:
        if lam == 0:
            raise SolverError(
                "Gram matrix is numerically singular; use lambda > 0"
            ) from exc
        alpha = None
    # "not <=": a NaN residual fails
    if alpha is None or not np.linalg.norm(system @ alpha - rhs) <= tol:
        alpha, *_ = np.linalg.lstsq(system, rhs, rcond=None)
        if not np.linalg.norm(system @ alpha - rhs) <= tol:
            if lam == 0:
                raise SolverError("Gram matrix is numerically singular; use lambda > 0")
            raise SolverError("ridge system solve did not reach the required residual")
    return FittedMap(
        kernel=kernel, lam=lam, features=features, alpha=alpha, target_mean=mean
    )


def with_basis(fitted, basis):
    """Attach a reduction basis so ``predict`` accepts raw feature vectors."""
    return replace(fitted, basis=basis)


def predict(fitted, phi):
    """Kernel-expansion prediction at one (M,) vector or stacked (M, n) columns."""
    phi = np.asarray(phi, dtype=float)
    single = phi.ndim == 1
    if fitted.basis is not None:
        phi = project(fitted.basis, phi)
    cols = phi[:, None] if single else phi
    if cols.shape[0] != fitted.features.shape[0]:
        raise ValueError(
            f"feature dimension {cols.shape[0]} does not match the "
            f"fitted map ({fitted.features.shape[0]})"
        )
    values = fitted.kernel(fitted.features, cols).T @ fitted.alpha + fitted.target_mean
    return float(values[0]) if single else values


# ---------------------------------------------------------------------------
# Persistence: JSON blob whose reload reproduces predictions bit-exactly
# (Python float serialization round-trips exactly).
# ---------------------------------------------------------------------------

_MODEL_FORMAT = "locfree-krr-map/1"


def save_model(fitted, path):
    doc = {
        "format": _MODEL_FORMAT,
        "sigma": fitted.kernel.sigma,
        "lambda": fitted.lam,
        "target_mean": fitted.target_mean,
        "features": fitted.features.tolist(),
        "alpha": fitted.alpha.tolist(),
        "basis": None
        if fitted.basis is None
        else {
            "mean": fitted.basis.mean.tolist(),
            "vectors": fitted.basis.vectors.tolist(),
            "singular_values": fitted.basis.singular_values.tolist(),
        },
    }
    # json.dumps runs the C encoder; json.dump the pure-Python one, to the same bytes.
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc) + "\n")


# Model document key -> (FittedMap argument, type); every key is required.
_MODEL_FIELDS = {
    "sigma": ("kernel", float), "lambda": ("lam", float), "target_mean": ("target_mean", float),
    "features": ("features", list), "alpha": ("alpha", list), "basis": ("basis", dict | None),
}
_BASIS_FIELDS = {key: (key, list) for key in ("mean", "vectors", "singular_values")}


def _array(doc, key, *shape):
    """``doc[key]`` as a float array of ``shape``, None matching any length;
    a ragged list or another shape is a ConfigurationError naming ``key``."""
    try:
        array = np.array(doc[key], dtype=float)
    except ValueError:  # a ragged or non-numeric list
        array = np.empty(())
    if array.ndim != len(shape) or any(n not in (None, m) for m, n in zip(array.shape, shape)):
        raise ConfigurationError(f"model field {key!r} must be a {shape} array (None: any length)")
    return array


def load_model(path):
    doc = read_json(path)
    if not isinstance(doc, dict) or doc.get("format") != _MODEL_FORMAT:
        raise ConfigurationError(f"{path} is not a {_MODEL_FORMAT} model blob")
    args = keyword_args(doc, _MODEL_FIELDS, skip="format", required=_MODEL_FIELDS)
    features = args["features"] = _array(args, "features", None, None)
    args["alpha"] = _array(args, "alpha", features.shape[1])
    if args["basis"] is not None:
        basis = keyword_args(args["basis"], _BASIS_FIELDS, required=_BASIS_FIELDS)
        vectors = _array(basis, "vectors", None, features.shape[0])
        args["basis"] = ReducedBasis(_array(basis, "mean", len(vectors)), vectors,
                                     _array(basis, "singular_values", None))
    args["kernel"] = GaussianKernel(args["kernel"])
    return FittedMap(**args)
