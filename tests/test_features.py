import math
import warnings

import numpy as np
import pytest

from conftest import (
    CrossCorrelation,
    com_crosscorr,
    cross_correlate,
    estimate_tdoa,
    grid_aligned_free_space,
    scalar_com_columns,
    scalar_range_differences,
)
from locfree import features
from locfree.features import (
    com_impulse,
    default_toa_threshold,
    estimate_toa,
    feature_matrix_nosync,
    feature_vector_sync,
    pair_indices,
    tdoa_range_differences,
    toa_feature_vector,
)
from locfree.propagation import pilot_noise, simulate_points, synthesize_pilot_matrix
from locfree.scenario import SPEED_OF_LIGHT


def test_sync_features_of_noiseless_pilot_use_exact_channel(free_space):
    """A noiseless pilot row is its transmitter's discretized channel, and
    the synchronized feature is the CoM of that channel."""
    from locfree.propagation import discretize_channel, trace_paths

    pilot = synthesize_pilot_matrix(free_space, (25.0, 3.0), np.random.default_rng(0))
    taps = discretize_channel(trace_paths(free_space, (0.0, 0.0), (25.0, 3.0)), free_space)
    assert np.array_equal(pilot[0], taps)
    assert feature_vector_sync(pilot).tolist() == [com_impulse(taps)]


def test_toa_first_threshold_crossing():
    assert estimate_toa([0.1, 0.9, 0.5], gamma=0.3, sample_period=1.0) == 1.0


def test_toa_late_detection_when_first_tap_below_threshold():
    h = np.zeros(8, dtype=complex)
    h[2] = 0.25  # below gamma
    h[6] = 0.80  # above gamma
    assert estimate_toa(h, gamma=0.3, sample_period=2.0) == 12.0


def test_toa_missing_when_nothing_crosses():
    assert np.isnan(estimate_toa([0.1, 0.2], gamma=0.5, sample_period=1.0))


def test_toa_requires_positive_threshold():
    with pytest.raises(ValueError):
        estimate_toa([1.0], gamma=0.0, sample_period=1.0)


def test_default_threshold_is_four_noise_stds():
    assert default_toa_threshold(1e-10) == pytest.approx(4e-5)


def test_com_impulse_examples():
    delta = np.zeros(6, dtype=complex)
    delta[2] = 1.0
    assert com_impulse(delta) == 2.0
    two = np.zeros(6)
    two[1] = two[3] = 0.7
    assert com_impulse(two) == pytest.approx(2.0)
    weighted = np.zeros(6)
    weighted[0] = math.sqrt(3.0)
    weighted[4] = 1.0
    assert com_impulse(weighted) == pytest.approx(1.0)
    assert np.isnan(com_impulse(np.zeros(4)))


def test_com_impulse_is_com_crosscorr_over_tap_indices(indoor, indoor_grid):
    """com_impulse equals the oracle com_crosscorr with the tap indices as
    lags, bit for bit, on noisy pilot rows and on an all-zero row (NaN)."""
    rng = np.random.default_rng(17)
    channels = indoor_grid.channels[rng.choice(len(indoor_grid.channels), 200, replace=False)]
    pilots = channels + pilot_noise(indoor, channels.shape, rng)
    k = pilots.shape[2]
    rows = [*pilots.reshape(-1, k), np.zeros(k, dtype=complex)]
    got = np.array([com_impulse(h) for h in rows])
    expected = np.array([com_crosscorr(CrossCorrelation(np.arange(k), h)) for h in rows])
    assert np.array_equal(got, expected, equal_nan=True)
    assert np.isnan(got[-1]) and np.all(np.isfinite(got[:-1]))


def test_cross_correlation_delta_example():
    k = 6
    a = np.zeros(k, dtype=complex)
    b = np.zeros(k, dtype=complex)
    a[2] = 1.0
    b[5] = 1.0
    corr = cross_correlate(a, b)
    nonzero = np.flatnonzero(np.abs(corr.values))
    assert list(corr.lags[nonzero]) == [-3]
    assert corr.values[nonzero[0]] == pytest.approx(1.0)


def test_autocorrelation_peaks_at_zero_with_row_energy():
    rng = np.random.default_rng(0)
    row = rng.normal(size=8) + 1j * rng.normal(size=8)
    corr = cross_correlate(row, row)
    center = np.flatnonzero(corr.lags == 0)[0]
    assert corr.values[center] == pytest.approx(np.sum(np.abs(row) ** 2))
    assert np.argmax(np.abs(corr.values)) == center


def test_cross_correlation_matches_double_loop_oracle():
    rng = np.random.default_rng(1)
    k = 9
    a = rng.normal(size=k) + 1j * rng.normal(size=k)
    b = rng.normal(size=k) + 1j * rng.normal(size=k)
    corr = cross_correlate(a, b)
    for lag, value in zip(corr.lags, corr.values):
        expected = 0.0 + 0.0j
        for idx in range(k):
            shifted = idx - lag
            if 0 <= shifted < k:
                expected += a[idx] * np.conj(b[shifted])
        assert value == pytest.approx(expected, abs=1e-12)


def test_cross_correlation_swap_symmetry():
    rng = np.random.default_rng(2)
    a = rng.normal(size=7) + 1j * rng.normal(size=7)
    b = rng.normal(size=7) + 1j * rng.normal(size=7)
    ab = cross_correlate(a, b)
    ba = cross_correlate(b, a)
    assert np.allclose(ab.values, np.conj(ba.values[::-1]), atol=1e-12)


def test_tdoa_from_delta_correlation():
    k = 6
    a = np.zeros(k, dtype=complex)
    b = np.zeros(k, dtype=complex)
    a[2] = 1.0
    b[5] = 1.0
    assert estimate_tdoa(cross_correlate(a, b), sample_period=2.0) == -6.0


def test_tdoa_single_tap_channels():
    k = 12
    for ka, kb in ((3, 7), (9, 1), (4, 4)):
        a = np.zeros(k, dtype=complex)
        b = np.zeros(k, dtype=complex)
        a[ka] = 1.3
        b[kb] = 0.4
        assert estimate_tdoa(cross_correlate(a, b), 1.0) == pytest.approx(ka - kb)


def test_tdoa_tie_breaks_toward_smallest_then_negative_lag():
    lags = np.arange(-3, 4)
    values = np.zeros(7, dtype=complex)
    values[lags == -2] = 1.0
    values[lags == 2] = 1.0
    corr = CrossCorrelation(lags=lags, values=values)
    assert estimate_tdoa(corr, 1.0) == -2.0


def test_tdoa_magnitudes_within_the_tie_tolerance_tie():
    """Magnitudes within a relative 1e-12 of the peak tie, in the oracle and
    in the batched kernel's _peak_lag; a larger gap does not."""
    lags = np.arange(-3, 4)
    for gap, expected in ((5e-13, -2.0), (1e-11, 2.0)):
        values = np.zeros(7, dtype=complex)
        values[lags == -2] = 1.0
        values[lags == 2] = 1.0 + gap
        assert estimate_tdoa(CrossCorrelation(lags=lags, values=values), 1.0) == expected
        assert features._peak_lag(values[None, None], lags)[0, 0] == expected


def test_tdoa_missing_on_zero_correlation():
    corr = cross_correlate(np.zeros(4, dtype=complex), np.zeros(4, dtype=complex))
    assert np.isnan(estimate_tdoa(corr, 1.0))


def test_com_crosscorr_examples():
    lags = np.arange(-4, 5)
    single = np.zeros(9, dtype=complex)
    single[lags == -3] = 2.0
    assert com_crosscorr(CrossCorrelation(lags, single)) == pytest.approx(-3.0)
    pair = np.zeros(9, dtype=complex)
    pair[lags == -1] = 1.0
    pair[lags == 3] = 1.0
    assert com_crosscorr(CrossCorrelation(lags, pair)) == pytest.approx(1.0)


def test_com_crosscorr_matches_scalar_loop():
    rng = np.random.default_rng(3)
    a = rng.normal(size=10) + 1j * rng.normal(size=10)
    b = rng.normal(size=10) + 1j * rng.normal(size=10)
    corr = cross_correlate(a, b)
    num = sum(abs(v) ** 2 * lag for v, lag in zip(corr.values, corr.lags))
    den = sum(abs(v) ** 2 for v in corr.values)
    assert com_crosscorr(corr) == pytest.approx(num / den, rel=1e-12)


def test_com_swap_antisymmetry():
    rng = np.random.default_rng(4)
    a = rng.normal(size=8) + 1j * rng.normal(size=8)
    b = rng.normal(size=8) + 1j * rng.normal(size=8)
    assert com_crosscorr(cross_correlate(a, b)) == pytest.approx(
        -com_crosscorr(cross_correlate(b, a)), rel=1e-10
    )


def test_com_shift_equivariance():
    rng = np.random.default_rng(5)
    k = 24
    a = np.zeros(k, dtype=complex)
    b = np.zeros(k, dtype=complex)
    a[6:10] = rng.normal(size=4) + 1j * rng.normal(size=4)
    b[7:11] = rng.normal(size=4) + 1j * rng.normal(size=4)
    base = com_crosscorr(cross_correlate(a, b))
    shift = 3
    both_a, both_b = np.roll(a, shift), np.roll(b, shift)
    assert com_crosscorr(cross_correlate(both_a, both_b)) == pytest.approx(base, rel=1e-10)
    only_a = np.roll(a, shift)
    assert com_crosscorr(cross_correlate(only_a, b)) == pytest.approx(base + shift, rel=1e-10)


def test_com_amplitude_invariance():
    rng = np.random.default_rng(6)
    a = rng.normal(size=8) + 1j * rng.normal(size=8)
    b = rng.normal(size=8) + 1j * rng.normal(size=8)
    base = com_crosscorr(cross_correlate(a, b))
    assert com_crosscorr(cross_correlate(3.7 * a, b)) == pytest.approx(base, rel=1e-12)
    assert estimate_tdoa(cross_correlate(0.01 * a, b), 1.0) == estimate_tdoa(
        cross_correlate(a, b), 1.0
    )


def test_pair_indices_order_and_count():
    assert pair_indices(3) == [(0, 1), (0, 2), (1, 2)]
    assert len(pair_indices(5)) == 10


def test_nosync_feature_count_for_five_transmitters(indoor):
    pilot = synthesize_pilot_matrix(indoor, (33.0, 22.0), np.random.default_rng(0))
    vec = feature_matrix_nosync(pilot[None], indoor.sample_period)[:, 0]
    assert len(vec) == 10


def test_nosync_two_transmitters_reduces_to_scaled_tdoa():
    scn = grid_aligned_free_space([3, 7], k=12)
    pilot = synthesize_pilot_matrix(scn, (0.0, 0.0), np.random.default_rng(0))
    vec = feature_matrix_nosync(pilot[None], scn.sample_period)[:, 0]
    expected = SPEED_OF_LIGHT * scn.sample_period * (3 - 7)
    assert vec[0] == pytest.approx(expected, rel=1e-9)


def test_nosync_linear_dependence_identity_on_grid():
    scn = grid_aligned_free_space([2, 5, 9], k=14)
    pilot = synthesize_pilot_matrix(scn, (0.0, 0.0), np.random.default_rng(0))
    vec = feature_matrix_nosync(pilot[None], scn.sample_period)[:, 0]
    # entries ordered (1,2), (1,3), (2,3)
    assert vec[2] == pytest.approx(vec[1] - vec[0], rel=1e-9)


def test_noiseless_free_space_features_are_range_differences():
    delays = [2, 6, 9]
    scn = grid_aligned_free_space(delays, k=14)
    pilot = synthesize_pilot_matrix(scn, (0.0, 0.0), np.random.default_rng(0))
    vec = feature_matrix_nosync(pilot[None], scn.sample_period)[:, 0]
    step = SPEED_OF_LIGHT * scn.sample_period
    expected = [step * (delays[i] - delays[j]) for i, j in pair_indices(3)]
    assert np.allclose(vec, expected, rtol=1e-9)


def test_sync_features_single_tap_channels():
    scn = grid_aligned_free_space([3, 6], k=10)
    pilot = synthesize_pilot_matrix(scn, (0.0, 0.0), np.random.default_rng(0))
    vec = feature_vector_sync(pilot)
    assert vec == pytest.approx([3.0, 6.0], rel=1e-9)
    assert len(vec) == 2


def test_sync_feature_length_five(indoor):
    pilot = synthesize_pilot_matrix(indoor, (33.0, 22.0), np.random.default_rng(0))
    assert len(feature_vector_sync(pilot)) == 5


def test_two_tap_com_stays_put_while_toa_jumps():
    """Nearby receivers: a threshold straddling the first tap flips the ToA
    by the tap separation, while the energy-weighted mean barely moves."""
    k1, k2 = 2, 6
    gamma = 0.3
    h1 = np.zeros(12, dtype=complex)
    h2 = np.zeros(12, dtype=complex)
    h1[k1], h1[k2] = 0.29, 0.80
    h2[k1], h2[k2] = 0.31, 0.80
    toa1 = estimate_toa(h1, gamma, 1.0)
    toa2 = estimate_toa(h2, gamma, 1.0)
    assert toa1 - toa2 == k2 - k1
    assert abs(com_impulse(h1) - com_impulse(h2)) <= 0.1


def test_feature_matrix_nosync_stacks_columns(indoor):
    rng = np.random.default_rng(8)
    pts = np.array([[20.0, 15.0], [40.0, 25.0], [33.0, 22.0]])
    tables = simulate_points(indoor, pts)
    pilots = tables.channels + pilot_noise(indoor, tables.channels.shape, rng)
    matrix = feature_matrix_nosync(pilots, indoor.sample_period)
    assert matrix.shape == (10, 3)
    for i in range(3):
        single = feature_matrix_nosync(pilots[i][None], indoor.sample_period)[:, 0]
        assert np.array_equal(matrix[:, i], single)


def test_com_features_spatially_smoother_than_toa(indoor, indoor_grid):
    """95th percentile of 1 m feature increments: CoM well below ToA."""
    grid = indoor_grid
    rng = np.random.default_rng(13)
    pilots = grid.channels + pilot_noise(indoor, grid.channels.shape, rng)
    gamma = default_toa_threshold(indoor.noise_variance)
    n = pilots.shape[0]
    com = np.empty((5, n))
    toa = np.empty((5, n))
    for i in range(n):
        com[:, i] = feature_vector_sync(pilots[i])
        toa[:, i] = toa_feature_vector(pilots[i], gamma, indoor.sample_period)
    toa /= SPEED_OF_LIGHT * indoor.sample_period  # back to lag units
    # pair up horizontally adjacent grid cells
    index = {tuple(np.round(p, 6)): i for i, p in enumerate(grid.points)}
    steps_com, steps_toa = [], []
    for (x, y), i in index.items():
        j = index.get((round(x + 1.0, 6), y))
        if j is None:
            continue
        steps_com.extend(np.abs(com[:, j] - com[:, i]))
        steps_toa.extend(np.abs(toa[:, j] - toa[:, i]))
    steps_com = np.array(steps_com)
    steps_toa = np.array(steps_toa)
    keep = np.isfinite(steps_toa)
    assert np.percentile(steps_com, 95) < np.percentile(steps_toa[keep], 95)


def test_batched_com_matches_cross_correlate_loop_on_noisy_grid(indoor, indoor_grid):
    rng = np.random.default_rng(21)
    pilots = indoor_grid.channels + pilot_noise(indoor, indoor_grid.channels.shape, rng)
    matrix = feature_matrix_nosync(pilots, indoor.sample_period)
    expected = scalar_com_columns(pilots, indoor.sample_period)
    assert np.max(np.abs(matrix - expected)) <= 1e-9


@pytest.mark.parametrize("block_entries", [None, 64])
@pytest.mark.parametrize("n_tx, k", [(2, 1), (3, 1), (2, 6), (5, 10), (4, 33)])
def test_pair_kernel_edge_shapes_match_scalar_loops(n_tx, k, block_entries, monkeypatch):
    """Seven points: one partial block by default, and several blocks with
    a remainder when the block budget is cut to 64 entries."""
    if block_entries is not None:
        monkeypatch.setattr(features, "_BLOCK_ENTRIES", block_entries)
    rng = np.random.default_rng(n_tx * 100 + k)
    pilots = rng.normal(size=(7, n_tx, k)) + 1j * rng.normal(size=(7, n_tx, k))
    period = 1.0 / 20e6
    matrix = feature_matrix_nosync(pilots, period)
    assert matrix.shape == (n_tx * (n_tx - 1) // 2, 7)
    assert np.max(np.abs(matrix - scalar_com_columns(pilots, period))) <= 1e-9
    diffs = tdoa_range_differences(pilots, period)
    assert diffs.shape == (7, n_tx - 1)
    assert np.array_equal(diffs, scalar_range_differences(pilots, period))


@pytest.mark.parametrize("k", [1, 2, 10])
def test_batched_tdoa_single_taps_at_every_lag(k):
    """One tap per row at every position pair, the extreme lags +-(K-1)
    included: the range difference is c T (ka - kb)."""
    ka, kb = np.divmod(np.arange(k * k), k)
    pilots = np.zeros((k * k, 2, k), dtype=complex)
    pilots[np.arange(k * k), 0, ka] = 1.3
    pilots[np.arange(k * k), 1, kb] = 0.4j
    diffs = tdoa_range_differences(pilots, 1.0 / 20e6)[:, 0]
    assert np.array_equal(diffs, SPEED_OF_LIGHT * (1.0 / 20e6 * (ka - kb).astype(float)))


def test_batched_tdoa_exact_ties_pick_negative_lag():
    """One tap against two equal taps at +-d around it: |c| ties exactly at
    lags d and -d, and both the batched and the scalar path pick -d even
    though the FFT leaves roundoff between the two magnitudes."""
    rng = np.random.default_rng(5)
    period = 1.0 / 200e6
    for k in (10, 100):
        n = 400
        pilots = np.zeros((n, 2, k), dtype=complex)
        center = rng.integers(1, k - 1, size=n)
        half = np.array([rng.integers(1, min(c, k - 1 - c) + 1) for c in center])
        single = rng.integers(0, 2, size=n)
        for i in range(n):
            one, two = single[i], 1 - single[i]
            pilots[i, one, center[i]] = rng.normal() + 1j * rng.normal()
            pilots[i, two, [center[i] - half[i], center[i] + half[i]]] = rng.normal() + 1j * rng.normal()
        expected = SPEED_OF_LIGHT * (period * -half.astype(float))
        assert np.array_equal(tdoa_range_differences(pilots, period)[:, 0], expected)
        assert np.array_equal(scalar_range_differences(pilots, period)[:, 0], expected)


def test_dead_pilot_row_gives_nan_in_both_outputs():
    rng = np.random.default_rng(9)
    pilots = rng.normal(size=(3, 4, 8)) + 1j * rng.normal(size=(3, 4, 8))
    pilots[1, 2] = 0.0
    pilots[2, 0] = 0.0
    period = 1.0 / 20e6
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        matrix = feature_matrix_nosync(pilots, period)
        diffs = tdoa_range_differences(pilots, period)
    pairs = pair_indices(4)
    dead = np.zeros_like(matrix, dtype=bool)
    dead[:, 1] = [2 in pair for pair in pairs]
    dead[:, 2] = [0 in pair for pair in pairs]
    assert np.array_equal(np.isnan(matrix), dead)
    assert np.array_equal(np.isnan(diffs), [[False] * 3, [False, True, False], [True] * 3])
    assert np.allclose(matrix, scalar_com_columns(pilots, period), rtol=0, atol=1e-9, equal_nan=True)
    assert np.array_equal(diffs, scalar_range_differences(pilots, period), equal_nan=True)


@pytest.fixture(scope="module")
def dense_pilots():
    """Noisy pilots on the 2,375-point 200 MHz 5-wall grid (K=100) and T."""
    from locfree.evaluation import precompute_grid
    from locfree.scenario import preset

    scn = preset("indoor-dense", bandwidth_hz=200e6, wall_count=5)
    grid = precompute_grid(scn)
    pilots = grid.channels + pilot_noise(scn, grid.channels.shape, np.random.default_rng(15))
    return pilots, scn.sample_period


def test_batched_com_matches_cross_correlate_loop_at_200mhz(dense_pilots):
    pilots, period = dense_pilots
    sample = pilots[np.random.default_rng(22).choice(len(pilots), size=200, replace=False)]
    assert sample.shape[2] == 100
    matrix = feature_matrix_nosync(sample, period)
    assert np.max(np.abs(matrix - scalar_com_columns(sample, period))) <= 1e-9


@pytest.mark.parametrize("k", [1, 2, 10, 100])
def test_batched_com_single_taps_at_every_lag(k):
    """One tap per row at every position pair, the extreme lags +-(K-1)
    included: the CoM range difference is c T (ka - kb)."""
    ka, kb = np.divmod(np.arange(k * k), k)
    pilots = np.zeros((k * k, 2, k), dtype=complex)
    pilots[np.arange(k * k), 0, ka] = 1.3
    pilots[np.arange(k * k), 1, kb] = 0.4j
    com = feature_matrix_nosync(pilots, 1.0 / 20e6)[0]
    assert np.max(np.abs(com - SPEED_OF_LIGHT / 20e6 * (ka - kb))) <= 1e-9


def test_feature_bits_do_not_depend_on_the_block_size(monkeypatch, dense_pilots):
    """Both pair features give the same bits at any block size.  The CoM
    kernel's FFTs and Gram product act on each point alone.  The TDoA
    product calls np.multiply because past 256 KiB numpy's temporary elision
    would reuse the conj spectrum as the output of `a * b.conj()` and
    multiply in the other order; larger blocks than the default reach that
    size on a noisy 200 MHz grid."""
    pilots, period = dense_pilots
    com = feature_matrix_nosync(pilots, period)
    tdoa = tdoa_range_differences(pilots, period)
    for block_entries in (1 << 15, 1 << 16, 1 << 18):
        monkeypatch.setattr(features, "_BLOCK_ENTRIES", block_entries)
        assert np.array_equal(feature_matrix_nosync(pilots, period), com, equal_nan=True)
        assert np.array_equal(tdoa_range_differences(pilots, period), tdoa, equal_nan=True)


_FEATURE_BYTES = """
import sys
import numpy as np
from locfree.evaluation import precompute_grid
from locfree.features import feature_matrix_nosync
from locfree.propagation import pilot_noise
from locfree.scenario import preset

scn = preset("indoor-fig4")
grid = precompute_grid(scn)
pilots = grid.channels + pilot_noise(scn, grid.channels.shape, np.random.default_rng(21))
sys.stdout.buffer.write(feature_matrix_nosync(pilots, scn.sample_period).tobytes())
"""


def test_feature_bits_do_not_depend_on_the_blas_thread_count():
    """The Gram products go through BLAS; one and two OpenBLAS threads write
    the same CoM bytes on the noisy 20 MHz grid."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-c", _FEATURE_BYTES], env=env, capture_output=True, timeout=600
        )
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(proc.stdout)
    assert len(outputs[0]) == 10 * 2375 * 8
    assert outputs[0] == outputs[1]
