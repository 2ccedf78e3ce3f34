"""Location-free features extracted from received pilot matrices.

Thresholded time-of-arrival and argmax time-difference-of-arrival are the
classic localization features; both jump discontinuously across space in
multipath.  The center-of-mass (CoM) features replace the argmin/argmax by
an energy-weighted mean lag, which varies smoothly with position:

* synchronized receivers: CoM of each estimated impulse response,
* unsynchronized receivers: CoM of the cross-correlation of every pilot
  pair, scaled by T*c into a range difference in meters.

Both pair kernels zero-pad the K taps to S, the smallest length >= 2K-1
whose prime factors are all 2, 3 or 5 (S = 20 at 20 MHz, K = 10; S = 200
at 200 MHz, K = 100), so no correlation wraps.

Pair CoMs come from spectral moments, without the correlation: with A_i and
D_i the S-point FFTs of row a_i and of k * a_i (k = 0..K-1),
P_i = |A_i|^2 and Q_i = Re(conj(A_i) D_i), Parseval gives
CoM_ij = sum_f (Q_i P_j - P_i Q_j) / sum_f P_i P_j, within 1e-9 m of the lag
sum over the correlation (at most 5.7e-14 m on the noisy evaluation grids).

The argmax TDoA is the lag of the peak correlation magnitude.  Magnitudes
within a relative 1e-12 of the peak tie, so FFT roundoff cannot break an
exact tie, and a tie goes to the smallest |lag|, then the negative lag:
the lags are read in that order (0, -1, +1, -2, +2, ...) and the first tied
one wins.

A feature that cannot be extracted (no tap above threshold, a pair
correlation that is all zero or not finite) is reported as NaN; downstream
code treats non-finite entries as missing.
"""

import numpy as np

from .scenario import SPEED_OF_LIGHT

MISSING = np.nan

# TDoA ties: correlation magnitudes this close to the peak, relative to it,
# tie; the smallest |lag| among them wins, then the negative lag.
_TIE_RTOL = 1e-12
# Complex entries in each intermediate array of one block of points.
_BLOCK_ENTRIES = 1 << 14


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
    """Energy-weighted mean tap index of an impulse response (NaN if empty)."""
    energy = np.abs(np.asarray(h)) ** 2
    total = energy.sum()
    if total == 0.0:
        return MISSING
    return float(energy @ np.arange(len(energy)) / total)


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


def toa_feature_vector(pilot, gamma, sample_period):
    """Per-transmitter thresholded-ToA features scaled to meters, length L."""
    pilot = np.asarray(pilot)
    return np.array(
        [SPEED_OF_LIGHT * estimate_toa(row, gamma, sample_period) for row in pilot]
    )


def _fft_size(pilots):
    """The smallest length >= 2K-1 whose prime factors are all 2, 3 or 5, so
    circular correlations of zero-padded (n, L, K) pilot rows do not wrap
    and the FFT takes only radix-2, 3 and 5 passes (200 at K=100, 20 at
    K=10)."""
    if pilots.ndim != 3 or pilots.shape[1] < 2:
        raise ValueError("pairwise features need (n, L, K) pilots with L >= 2")
    size = 2 * pilots.shape[2] - 1
    while pow(30, size, size):  # 30^size is a multiple of size iff 5-smooth
        size += 1
    return size


def _peak_lag(corr, lags):
    """Per (point, pair), the first of ``lags`` whose correlation magnitude
    ties the peak within _TIE_RTOL, so ``lags`` must come in tie-preference
    order; NaN for an all-zero or non-finite correlation."""
    mag = np.abs(corr)
    peak = mag.max(axis=2, keepdims=True)
    tied = peak - mag <= _TIE_RTOL * peak
    lag = lags[tied.argmax(axis=2)]
    peak = peak[:, :, 0]
    return np.where((peak > 0.0) & (peak < np.inf), lag, MISSING)


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
    returns (n, L-1) in meters: c * T * the argmax lag of each pair's
    correlation under the tie rule above, NaN where it carries no energy
    (dead pilot) or is not finite
    """
    pilots = np.asarray(pilots)
    size = _fft_size(pilots)
    n, n_rows, k = pilots.shape
    # Tie-preference order: 0, -1, +1, -2, +2, ..., -(K-1), +(K-1).
    steps = np.arange(k)
    lags = np.stack((-steps, steps), axis=1).ravel()[1:]
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
