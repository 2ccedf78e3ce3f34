import warnings

import numpy as np
import pytest

from locfree.scenario import Scenario, Transmitter, preset


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

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return precompute_grid(indoor)


def grid_aligned_free_space(delays_in_samples, bandwidth=20e6, carrier=None, k=None):
    """Free-space scenario whose direct delays are integer sample multiples.

    Transmitters are placed on the x axis at distances d_l = n_l * c * T
    from the origin receiver, so every channel is a pure Kronecker tap and
    correlation-based features are exact.
    """
    from locfree.scenario import SPEED_OF_LIGHT

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


def scalar_com_columns(pilots, sample_period):
    """Nosync CoM features from one cross_correlate per point and pair: (M, n)."""
    from locfree.features import com_crosscorr, cross_correlate, pair_indices
    from locfree.scenario import SPEED_OF_LIGHT

    scale = sample_period * SPEED_OF_LIGHT
    return np.array(
        [
            [scale * com_crosscorr(cross_correlate(p[i], p[j])) for i, j in pair_indices(p.shape[0])]
            for p in pilots
        ]
    ).T


def scalar_range_differences(pilots, sample_period):
    """Argmax-TDoA range differences from one cross_correlate per point and pair: (n, L-1)."""
    from locfree.features import cross_correlate, estimate_tdoa
    from locfree.scenario import SPEED_OF_LIGHT

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
