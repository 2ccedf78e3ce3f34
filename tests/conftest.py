"""Shared fixtures, and the scalar oracles the batched kernels are checked
against: one correlation per pilot pair, and the ridge objective; and
the pooled spread that criterion 5 compares NMSE gaps with."""

from dataclasses import dataclass

import numpy as np
import pytest

from locfree.features import _TIE_RTOL, MISSING, pair_indices
from locfree.scenario import SPEED_OF_LIGHT, Scenario, Transmitter, preset


@pytest.fixture(scope="session")
def free_space():
    """Large empty region with one corner transmitter (noiseless pilots)."""
    return Scenario(
        region=(-5.0, -5.0, 65.0, 45.0),
        transmitters=(Transmitter(0.0, 0.0),),
        noise_variance=0.0,
    )


@pytest.fixture(scope="session")
def indoor():
    """The default five-wall indoor preset at 20 MHz."""
    return preset("indoor-fig4")


@pytest.fixture(scope="session")
def indoor_grid(indoor):
    from locfree.evaluation import precompute_grid

    return precompute_grid(indoor)


def grid_aligned_free_space(delays_in_samples, bandwidth=20e6, carrier=None, k=None):
    """Free-space scenario whose direct delays are integer sample multiples.

    Transmitters are placed on the x axis at distances d_l = n_l * c * T
    from the origin receiver, so every channel is a pure Kronecker tap and
    correlation-based features are exact.
    """
    t = 1.0 / bandwidth
    xs = [n * SPEED_OF_LIGHT * t for n in delays_in_samples]
    span = max(xs) + 10.0
    return Scenario(
        region=(-5.0, -5.0, span, 40.0),
        transmitters=tuple(Transmitter(x, 0.0) for x in xs),
        bandwidth_hz=bandwidth,
        carrier_hz=carrier if carrier is not None else 800e6,
        num_samples=k if k is not None else max(delays_in_samples) + 4,
        noise_variance=0.0,
    )


@dataclass(frozen=True)
class CrossCorrelation:
    """Deterministic finite-sample cross-correlation over the full lag range.

    ``values[j]`` is ``sum_k a[k] * conj(b[k - lags[j]])`` for
    ``lags = -(K-1) ... K-1`` (length 2K-1, unnormalized).
    """

    lags: np.ndarray
    values: np.ndarray


def cross_correlate(row_a, row_b):
    """Finite-sample cross-correlation c[i] = sum_k a[k] conj(b[k-i]).

    Unnormalized (pilots carry unit energy); full lag range -(K-1)..K-1.
    """
    a = np.asarray(row_a, dtype=complex)
    b = np.asarray(row_b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError("pilot rows must have equal length")
    k = a.shape[0]
    return CrossCorrelation(
        lags=np.arange(-(k - 1), k),
        values=np.correlate(a, b, mode="full"),
    )


def estimate_tdoa(corr, sample_period):
    """Argmax time difference of arrival: T * lag of maximum |c[i]|.

    Magnitude ties (within a relative 1e-12, so that roundoff cannot break
    an exact tie differently here and in tdoa_range_differences) break
    toward the smallest |lag|, then toward the negative lag.  Returns NaN
    for an all-zero or non-finite correlation.
    """
    mag = np.abs(corr.values)
    peak = mag.max()
    if not 0.0 < peak < np.inf:
        return MISSING
    candidates = corr.lags[peak - mag <= _TIE_RTOL * peak]
    best = min(candidates, key=lambda lag: (abs(lag), lag))
    return sample_period * float(best)


def com_crosscorr(corr):
    """Energy-weighted mean lag of a cross-correlation (NaN if all-zero)."""
    energy = np.abs(corr.values) ** 2
    total = energy.sum()
    if total == 0.0:
        return MISSING
    return float(energy @ corr.lags / total)


def difference_sqdist(cols_a, cols_b):
    """Squared distances of every pair of columns, (na, nb): the squared
    coordinate differences summed from the first coordinate up, the order
    in which scipy's cdist sums them."""
    sq = np.zeros((cols_a.shape[1], cols_b.shape[1]))
    for row_a, row_b in zip(cols_a, cols_b):
        sq += (row_a[:, None] - row_b[None, :]) ** 2
    return sq


def pooled_std(result_a, result_b):
    """Pooled spread of two NmseResult run sets: sqrt((std_a^2 + std_b^2) / 2)."""
    return float(np.sqrt((result_a.std**2 + result_b.std**2) / 2.0))


def objective_value(fitted, features, targets):
    """Ridge objective (1/N)||p - K alpha||^2 + lambda alpha^T K alpha."""
    targets = np.asarray(targets, dtype=float) - fitted.target_mean
    features = np.asarray(features, dtype=float)
    gram = fitted.kernel(features, features)
    resid = targets - gram @ fitted.alpha
    n = targets.shape[0]
    return float(resid @ resid / n + fitted.lam * fitted.alpha @ gram @ fitted.alpha)


def scalar_com_columns(pilots, sample_period):
    """Nosync CoM features from one cross_correlate per point and pair: (M, n)."""
    scale = sample_period * SPEED_OF_LIGHT
    return np.array(
        [
            [scale * com_crosscorr(cross_correlate(p[i], p[j])) for i, j in pair_indices(p.shape[0])]
            for p in pilots
        ]
    ).T


def scalar_range_differences(pilots, sample_period):
    """Argmax-TDoA range differences from one cross_correlate per point and pair: (n, L-1)."""
    return np.array(
        [
            [
                SPEED_OF_LIGHT * estimate_tdoa(cross_correlate(p[0], p[l]), sample_period)
                for l in range(1, p.shape[0])
            ]
            for p in pilots
        ]
    )


def sample_identifiable_mask(rng, shape, frac, min_per_col):
    """The first uniform mask ``rng.random(shape) < frac`` that leaves every
    column at least ``min_per_col`` observed rows.

    Candidates are drawn in blocks of 1,024 from ``rng``, which reads the
    same stream as one ``rng.random(shape)`` call per candidate, so the mask
    equals the one a single-draw rejection loop accepts.  The generator is
    left at the end of the block, past where that loop would stop.
    """
    while True:
        masks = rng.random((1024, *shape)) < frac
        accepted = np.flatnonzero(masks.sum(axis=1).min(axis=1) >= min_per_col)
        if accepted.size:
            return masks[accepted[0]]
