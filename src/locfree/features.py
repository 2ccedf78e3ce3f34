"""Location-free features extracted from received pilot matrices.

Thresholded time-of-arrival and argmax time-difference-of-arrival are the
classic localization features; both jump discontinuously across space in
multipath.  The center-of-mass (CoM) features replace the argmin/argmax by
an energy-weighted mean lag, which varies smoothly with position:

* synchronized receivers: CoM of each estimated impulse response,
* unsynchronized receivers: CoM of the cross-correlation of every pilot
  pair, scaled by T*c into a range difference in meters.

Pair CoMs come from spectral moments, without the correlation: with A_i and
D_i the FFTs of row a_i and of k * a_i (k = 0..K-1), zero-padded to
S >= 2K-1, P_i = |A_i|^2 and Q_i = Re(conj(A_i) D_i), Parseval gives
CoM_ij = sum_f (Q_i P_j - P_i Q_j) / sum_f P_i P_j, within 1e-9 m of the lag
sums of cross_correlate (about 1e-13 m on the evaluation grids).

A feature that cannot be extracted (no tap above threshold, all-zero
correlation) is reported as NaN; downstream code treats non-finite entries
as missing.
"""

from dataclasses import dataclass

import numpy as np

from .scenario import SPEED_OF_LIGHT

MISSING = np.nan

# Correlation magnitudes this close to the peak, relative to it, tie.
_TIE_RTOL = 1e-12
# Complex entries in each intermediate array of one block of points.
_BLOCK_ENTRIES = 1 << 14


@dataclass(frozen=True)
class CrossCorrelation:
    """Deterministic finite-sample cross-correlation over the full lag range.

    ``values[j]`` is ``sum_k a[k] * conj(b[k - lags[j]])`` for
    ``lags = -(K-1) ... K-1`` (length 2K-1, unnormalized).
    """

    lags: np.ndarray
    values: np.ndarray


def estimate_toa(h, gamma, sample_period):
    """Thresholded time of arrival: T * first tap index with |h[k]| >= gamma.

    Returns NaN when no tap reaches the threshold.
    """
    if gamma <= 0:
        raise ValueError("threshold gamma must be > 0")
    hits = np.flatnonzero(np.abs(np.asarray(h)) >= gamma)
    if hits.size == 0:
        return MISSING
    return sample_period * float(hits[0])


def default_toa_threshold(noise_variance):
    """Detection threshold: 4 noise standard deviations per complex sample."""
    return 4.0 * np.sqrt(noise_variance)


def com_impulse(h):
    """Energy-weighted mean tap index of an impulse response (NaN if empty):
    com_crosscorr with the tap indices as lags."""
    h = np.asarray(h)
    return com_crosscorr(CrossCorrelation(lags=np.arange(len(h)), values=h))


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
    for an all-zero correlation.
    """
    mag = np.abs(corr.values)
    peak = mag.max()
    if peak == 0.0:
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


def pair_indices(n_transmitters):
    """Lexicographic transmitter pairs (0,1), (0,2), ..., (L-2, L-1)."""
    return [
        (i, j)
        for i in range(n_transmitters - 1)
        for j in range(i + 1, n_transmitters)
    ]


def feature_vector_sync(pilot):
    """Per-transmitter impulse-response CoM features (lag units), length L.

    A unit-sample pilot row already is its transmitter's (noisy) impulse
    response.
    """
    return np.array([com_impulse(row) for row in pilot])


def feature_vector_nosync(pilot, sample_period):
    """Pairwise cross-correlation CoM features scaled to meters.

    Entry order follows pair_indices; length M = L(L-1)/2.  Requires at
    least two pilot rows.  The n=1 case of feature_matrix_nosync.
    """
    return feature_matrix_nosync(np.asarray(pilot)[None], sample_period)[:, 0]


def toa_feature_vector(pilot, gamma, sample_period):
    """Per-transmitter thresholded-ToA features scaled to meters, length L."""
    pilot = np.asarray(pilot)
    return np.array(
        [SPEED_OF_LIGHT * estimate_toa(row, gamma, sample_period) for row in pilot]
    )


def _fft_size(pilots):
    """A power of two >= 2K-1, so circular correlations of zero-padded
    (n, L, K) pilot rows do not wrap."""
    if pilots.ndim != 3 or pilots.shape[1] < 2:
        raise ValueError("pairwise features need (n, L, K) pilots with L >= 2")
    return 1 << (2 * pilots.shape[2] - 2).bit_length()


def _peak_lag(corr, lags):
    mag = np.abs(corr)
    peak = mag.max(axis=2, keepdims=True)
    # estimate_tdoa's tie rule: the smallest |lag| wins, then the negative one.
    preference = 2 * np.abs(lags) + (lags > 0)
    tied = peak - mag <= _TIE_RTOL * peak
    lag = lags[np.argmin(np.where(tied, preference, np.inf), axis=2)]
    return np.where(peak[:, :, 0] == 0.0, MISSING, lag)


def feature_matrix_nosync(pilots, sample_period):
    """Stacked nosync feature columns for a batch of pilot matrices.

    pilots -- (n, L, K) array of received pilot matrices, L >= 2
    returns (M, n) with M = L(L-1)/2, NaN where a pair correlation
    carries no energy (dead pilot); from spectral moments, see above
    """
    pilots = np.asarray(pilots)
    size = _fft_size(pilots)
    n, n_rows, k = pilots.shape
    first, second = np.asarray(pair_indices(n_rows)).T
    block = max(1, _BLOCK_ENTRIES // (2 * n_rows * size))
    com = np.empty((n, len(first)))
    for start in range(0, n, block):
        rows = pilots[start:start + block]
        spectra = np.fft.fft(rows, size, axis=2)
        ramped = np.fft.fft(rows * np.arange(k), size, axis=2)
        power = spectra.real ** 2 + spectra.imag ** 2
        moment = spectra.real * ramped.real + spectra.imag * ramped.imag
        # Rows :L of the product are G = P P^T, rows L: are H = Q P^T.
        gram = np.concatenate((power, moment), axis=1) @ power.transpose(0, 2, 1)
        lag_moment = gram[:, n_rows + first, second] - gram[:, n_rows + second, first]
        with np.errstate(invalid="ignore"):  # 0/0 for a dead pilot
            com[start:start + block] = lag_moment / gram[:, first, second]
    return (sample_period * SPEED_OF_LIGHT) * np.ascontiguousarray(com.T)


def tdoa_range_differences(pilots, sample_period):
    """Range differences c * TDoA(0, l) against the reference pilot row 0.

    pilots -- (n, L, K) array of received pilot matrices, L >= 2
    returns (n, L-1) in meters: c * estimate_tdoa of each pair's
    cross_correlate, NaN where it carries no energy (dead pilot)
    """
    pilots = np.asarray(pilots)
    size = _fft_size(pilots)
    n, n_rows, k = pilots.shape
    lags = np.arange(-(k - 1), k)
    block = max(1, _BLOCK_ENTRIES // (n_rows * size))
    lag = np.empty((n, n_rows - 1))
    for start in range(0, n, block):
        spectra = np.fft.fft(pilots[start:start + block], size, axis=2)
        # np.multiply, not `*`: past 256 KiB numpy may reuse the conj
        # temporary as the output and multiply in the other order, which
        # rounds differently, so the bits would depend on the block size.
        corr = np.fft.ifft(np.multiply(spectra[:, :1], spectra[:, 1:].conj()), axis=2)
        lag[start:start + block] = _peak_lag(corr[:, :, lags % size], lags)
    return SPEED_OF_LIGHT * (sample_period * lag)
