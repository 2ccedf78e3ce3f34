import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import grid_aligned_free_space, scalar_range_differences
from locfree import experiments, localization
from locfree.errors import ConfigurationError
from locfree.evaluation import (
    ExperimentConfig,
    Model,
    PilotSet,
    _draw_world,
    fit_and_predict,
    precompute_grid,
    predict_estimator,
)
from locfree.features import tdoa_range_differences
from locfree.kernels import GaussianKernel, fit, predict
from locfree.localization import (
    AnchorSet,
    LocBFitReport,
    locb_fit,
    localize_batch,
    srdls_localize,
    tdoa_feature_set,
)
from locfree.io import write_location_csv
from locfree.propagation import pilot_noise, sample_sensor_locations, simulate_points, synthesize_pilot_matrix
from locfree.scenario import SPEED_OF_LIGHT, preset


def random_anchors(rng, count=4):
    """Random non-degenerate geometries: anchors spread in both directions
    (smallest principal extent >= 4 m keeps the problem well conditioned)."""
    while True:
        pos = rng.uniform((5.0, 5.0), (55.0, 35.0), size=(count, 2))
        spread = np.linalg.svd(pos - pos.mean(axis=0), compute_uv=False)
        if spread[-1] < 4.0:
            continue
        return AnchorSet(pos)


def range_diffs_for(anchors, x):
    d = np.linalg.norm(anchors.positions - np.asarray(x), axis=1)
    return d[0] - d[1:]


def test_anchor_set_validation():
    with pytest.raises(ConfigurationError):
        AnchorSet(np.array([[0.0, 0.0], [1.0, 1.0]]))
    with pytest.raises(ConfigurationError):
        AnchorSet(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]))


def test_tdoa_feature_set_exact_on_grid_channels():
    scn = grid_aligned_free_space([2, 5, 9], k=14)
    pilot = synthesize_pilot_matrix(scn, (0.0, 0.0), np.random.default_rng(0))
    diffs = tdoa_feature_set(pilot, scn.sample_period)
    step = SPEED_OF_LIGHT * scn.sample_period
    assert diffs == pytest.approx([step * (2 - 5), step * (2 - 9)], rel=1e-9)


def test_tdoa_feature_set_length(indoor):
    pilot = synthesize_pilot_matrix(indoor, (33.0, 22.0), np.random.default_rng(1))
    assert tdoa_feature_set(pilot, indoor.sample_period).shape == (4,)


@pytest.mark.parametrize(
    "name, bandwidth, walls",
    [("indoor-fig4", 20e6, 5), ("indoor-dense", 200e6, 0), ("indoor-dense", 200e6, 5)],
)
def test_batched_tdoa_equals_scalar_loop_on_noisy_grid(name, bandwidth, walls):
    """The FFT kernel picks the same argmax lag as np.correlate at every
    grid point, under two noise draws, so locb sees bit-identical range
    differences."""
    scn = preset(name, bandwidth_hz=bandwidth, wall_count=walls)
    grid = precompute_grid(scn)
    for seed in (31, 32):
        rng = np.random.default_rng(seed)
        pilots = grid.channels + pilot_noise(scn, grid.channels.shape, rng)
        diffs = tdoa_range_differences(pilots, scn.sample_period)
        assert np.array_equal(diffs, scalar_range_differences(pilots, scn.sample_period))


def test_srdls_exact_recovery_on_noiseless_geometry():
    rng = np.random.default_rng(2)
    anchors = random_anchors(rng, 4)
    target = (20.0, 15.0)
    est = srdls_localize(anchors, range_diffs_for(anchors, target))
    assert est is not None
    assert np.hypot(est.x - target[0], est.y - target[1]) < 1e-6
    # The row was solved on a fresh AnchorSet; the caller's keeps none.
    assert len(anchors.keys) == 0


def test_srdls_unique_recovery_with_five_anchors():
    anchors = AnchorSet(np.array([[5.0, 5.0], [55.0, 6.0], [54.0, 35.0], [6.0, 34.0], [30.0, 20.0]]))
    target = (33.0, 18.0)
    est = srdls_localize(anchors, range_diffs_for(anchors, target))
    assert np.hypot(est.x - target[0], est.y - target[1]) < 1e-6


def test_srdls_exact_on_100_random_geometries():
    rng = np.random.default_rng(3)
    for _ in range(100):
        anchors = random_anchors(rng, int(rng.integers(4, 7)))
        target = rng.uniform((2, 2), (58, 38))
        est = srdls_localize(anchors, range_diffs_for(anchors, target))
        assert est is not None
        assert np.hypot(est.x - target[0], est.y - target[1]) < 1e-6


def test_srdls_translation_equivariance():
    rng = np.random.default_rng(4)
    anchors = random_anchors(rng, 5)
    target = (22.0, 17.0)
    diffs = range_diffs_for(anchors, target)
    est = srdls_localize(anchors, diffs)
    offset = np.array([3.25, -1.5])
    shifted = AnchorSet(anchors.positions + offset)
    est_shifted = srdls_localize(shifted, diffs)
    assert est_shifted.x - est.x == pytest.approx(offset[0], abs=1e-6)
    assert est_shifted.y - est.y == pytest.approx(offset[1], abs=1e-6)


def test_srdls_skips_missing_and_needs_two_usable():
    rng = np.random.default_rng(5)
    anchors = random_anchors(rng, 5)
    target = (25.0, 25.0)
    diffs = range_diffs_for(anchors, target)
    diffs[1] = np.nan
    est = srdls_localize(anchors, diffs)
    assert np.hypot(est.x - target[0], est.y - target[1]) < 1e-6
    only_one = np.full(4, np.nan)
    only_one[0] = diffs[0]
    assert srdls_localize(anchors, only_one) is None


def test_srdls_collinear_usable_anchors_fail_gracefully():
    anchors = AnchorSet(
        np.array([[0.0, 0.0], [10.0, 0.0], [20.0, 0.0], [30.0, 0.0], [15.0, 10.0]])
    )
    target = (15.0, 10.5)
    diffs = range_diffs_for(anchors, target)
    diffs[3] = np.nan  # only the collinear anchors remain usable
    assert srdls_localize(anchors, diffs) is None


def test_srdls_two_usable_rows_are_rank_deficient():
    anchors = AnchorSet(np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [10.0, 10.0]]))
    diffs = range_diffs_for(anchors, (4.0, 5.0))
    diffs[2] = np.nan
    diffs[1] = np.nan  # two usable rows, three unknowns
    assert srdls_localize(anchors, diffs) is None


def test_linear_start_matches_lapack_solve():
    """The closed-form start equals a LAPACK solve of the same normal
    equations to 1e-9 relative on well-conditioned rows, and rows the svd
    test marks rank-deficient (range differences that are a linear map of
    the anchor offsets) start at NaN."""
    rng = np.random.default_rng(17)
    for count in (4, 5, 7):
        pos = random_anchors(rng, count).positions
        a0, others = pos[0], pos[1:]
        truth = rng.uniform((2.0, 2.0), (58.0, 38.0), (200, 2))
        d = np.linalg.norm(truth[:, None, :] - pos[None], axis=2)
        diffs = d[:, :1] - d[:, 1:] + rng.normal(0.0, 0.5, (200, count - 1))
        diffs[::10] = rng.normal(size=(20, 2)) @ (others - a0).T
        start, solvable = localization._linear_start(pos, diffs)
        a = np.concatenate([np.broadcast_to(2.0 * (others - a0), (200, count - 1, 2)),
                            -2.0 * diffs[:, :, None]], axis=2)
        s = np.linalg.svd(a, compute_uv=False)
        assert np.array_equal(solvable, s[:, -1] > 1e-9 * s[:, 0])
        assert not solvable[::10].any() and solvable.sum() == 180
        assert np.all(np.isnan(start[~solvable]))
        b = (np.sum(others**2, axis=1) - np.sum(a0**2)) - diffs**2
        gram = np.einsum("npi,npj->nij", a, a)
        rhs = np.einsum("npi,np->ni", a, b)
        well = solvable.copy()
        well[solvable] = np.linalg.cond(gram[solvable]) < 1e6
        assert well.sum() >= 150
        want = np.linalg.solve(gram[well], rhs[well][:, :, None])[:, :2, 0]
        err = np.linalg.norm(start[well] - want, axis=1)
        assert np.all(err <= 1e-9 * np.linalg.norm(want, axis=1))


def test_multipath_corrupted_tdoas_stay_finite(indoor):
    rng = np.random.default_rng(6)
    anchors = AnchorSet.from_scenario(indoor)
    pts = sample_sensor_locations(indoor, 40, rng)
    tables = simulate_points(indoor, pts)
    pilots = tables.channels + pilot_noise(indoor, tables.channels.shape, rng)
    estimates, residuals = localize_batch(anchors, pilots, indoor.sample_period)
    located = np.isfinite(estimates[:, 0])
    assert located.sum() >= 30
    assert np.all(np.isfinite(estimates[located]))
    assert np.all(np.isfinite(residuals[located]))


def test_non_finite_pilot_row_counts_as_unusable(indoor):
    """A NaN or inf tap in pilot row l localizes as a dead (all-zero) row l:
    without that row's range difference, and with no estimate at all when l
    is the reference row 0."""
    rng = np.random.default_rng(12)
    pts = sample_sensor_locations(indoor, 10, rng)
    tables = simulate_points(indoor, pts)
    pilots = tables.channels + pilot_noise(indoor, tables.channels.shape, rng)
    broken, dead = pilots.copy(), pilots.copy()
    for i in range(indoor.n_transmitters):
        broken[i, i, 4] = np.nan if i % 2 else np.inf
        dead[i, i] = 0.0
    with np.errstate(invalid="ignore"):  # the transforms of a non-finite row
        estimates, residuals = localize_batch(AnchorSet.from_scenario(indoor), broken, indoor.sample_period)
    want_xy, want_cost = localize_batch(AnchorSet.from_scenario(indoor), dead, indoor.sample_period)
    assert np.array_equal(estimates, want_xy, equal_nan=True)
    assert np.array_equal(residuals, want_cost, equal_nan=True)
    used = LocBFitReport(estimates, residuals).used
    assert not used[0] and used[indoor.n_transmitters:].all()


def test_locb_fit_shares_the_kernel_solver(indoor):
    rng = np.random.default_rng(7)
    anchors = AnchorSet.from_scenario(indoor)
    pts = sample_sensor_locations(indoor, 60, rng)
    tables = simulate_points(indoor, pts)
    pilots = tables.channels + pilot_noise(indoor, tables.channels.shape, rng)
    targets = tables.true_power
    kernel = GaussianKernel(5.0)
    fitted, report = locb_fit(anchors, pilots, targets, indoor.sample_period, kernel, 1e-3)
    used = report.used
    direct = fit(report.estimates[used].T, targets[used], kernel, 1e-3)
    assert np.array_equal(fitted.alpha, direct.alpha)
    assert np.array_equal(fitted.features, direct.features)
    # prediction equals plain kernel prediction at the estimated coordinates
    query = np.array([[33.0, 22.0]])
    pilot_q = synthesize_pilot_matrix(indoor, query[0], rng)
    est, _ = localize_batch(anchors, pilot_q[None], indoor.sample_period)
    expected = predict(direct, est[0])
    config = ExperimentConfig(scenario=indoor, estimator="locb")
    powers_q = simulate_points(indoor, query).pilot_powers
    values = predict_estimator(
        config, Model(fitted), PilotSet(pilot_q[None], indoor.sample_period), powers_q
    )
    assert values.tolist() == [expected]


def test_location_csv_dump(tmp_path):
    path = tmp_path / "loc.csv"
    write_location_csv(
        path,
        np.array([[1.0, 2.0], [3.0, 4.0]]),
        np.array([[1.1, 2.1], [np.nan, np.nan]]),
        np.array([0.5, np.nan]),
    )
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x_true,y_true,x_est,y_est,residual"
    assert lines[1] == "1.0,2.0,1.1,2.1,0.5"
    assert lines[2] == "3.0,4.0,,,"


def _reference_residuals(x, a0, others, r):
    """Residuals and Jacobians for stacked points, as one full-row pass."""
    d0 = np.maximum(np.linalg.norm(x - a0, axis=1), 1e-12)
    dl = np.maximum(np.linalg.norm(x[:, None, :] - others[None], axis=2), 1e-12)
    g = (d0[:, None] - dl) - r
    jac = (x - a0)[:, None, :] / d0[:, None, None] - (
        x[:, None, :] - others[None]
    ) / dl[:, :, None]
    return g, jac


def _reference_cost(x, g, weights, center, tau):
    return np.sum(weights * g**2, axis=1) + tau * np.sum((x - center) ** 2, axis=1)


def _reference_gauss_newton(x, a0, others, r, weights, center, tau, steps=12):
    """Full-row Gauss-Newton: every row takes part in every line-search
    trial and every step until the last row is done.  The oracle for the
    active-set solver, which must reproduce it bit for bit."""
    cost_of = _reference_cost
    g, jac = _reference_residuals(x, a0, others, r)
    cost = cost_of(x, g, weights, center, tau)
    for _ in range(steps):
        jw = jac * weights[:, :, None]
        h11 = np.sum(jw[:, :, 0] * jac[:, :, 0], axis=1) + tau
        h22 = np.sum(jw[:, :, 1] * jac[:, :, 1], axis=1) + tau
        h12 = np.sum(jw[:, :, 0] * jac[:, :, 1], axis=1)
        damp = 1e-12 * (h11 + h22)
        h11 = h11 + damp
        h22 = h22 + damp
        b1 = -(np.sum(jw[:, :, 0] * g, axis=1) + tau * (x[:, 0] - center[0]))
        b2 = -(np.sum(jw[:, :, 1] * g, axis=1) + tau * (x[:, 1] - center[1]))
        det = h11 * h22 - h12**2
        det = np.where(np.abs(det) > 1e-300, det, 1.0)
        delta = np.stack([(h22 * b1 - h12 * b2) / det, (h11 * b2 - h12 * b1) / det], axis=1)
        scale = np.ones(x.shape[0])
        accepted = np.zeros(x.shape[0], dtype=bool)
        x_new = x.copy()
        for _ in range(12):
            trial = np.where(accepted[:, None], x_new, x + scale[:, None] * delta)
            g_t, _ = _reference_residuals(trial, a0, others, r)
            cost_t = cost_of(trial, g_t, weights, center, tau)
            improve = cost_t <= cost
            newly = improve & ~accepted
            x_new[newly] = trial[newly]
            accepted |= improve
            if accepted.all():
                break
            scale = np.where(accepted, scale, scale / 2.0)
        x = np.where(accepted[:, None], x_new, x)
        g, jac = _reference_residuals(x, a0, others, r)
        new_cost = cost_of(x, g, weights, center, tau)
        if np.all(cost - new_cost < 1e-14 * (1.0 + new_cost)):
            cost = new_cost
            break
        cost = new_cost
    return x, cost


def _reference_per_row(x, a0, others, r, weights, center, tau, steps=12):
    """The full-row reference applied to one row at a time."""
    rows = [
        _reference_gauss_newton(
            x[i : i + 1], a0, others, r[i : i + 1], weights[i : i + 1], center, tau, steps
        )
        for i in range(x.shape[0])
    ]
    return np.concatenate([xy for xy, _ in rows]), np.concatenate([c for _, c in rows])


def _reference_srdls_batch(pos, diffs):
    """SRD-LS with one Gauss-Newton batch per start, the starts taken in
    turn, and residuals from np.linalg.norm over (x, y) pairs.  The oracle
    for the stacked starts of _srdls_batch, which must reproduce it bit for
    bit.  It takes the linear start from _linear_start, as _srdls_batch
    does; test_linear_start_matches_lapack_solve checks that one alone."""
    a0, others = pos[0], pos[1:]
    n = diffs.shape[0]
    linear, solvable = localization._linear_start(pos, diffs)
    if not np.any(solvable):
        return np.full((n, 2), np.nan), np.full(n, np.nan)
    centroid = pos.mean(axis=0)
    starts = [linear, np.broadcast_to(centroid, (n, 2))]
    starts += [np.broadcast_to(p + 0.5, (n, 2)) for p in pos]
    best_x = np.full((n, 2), np.nan)
    best_cost = np.full(n, np.inf)

    def reweight(x):
        g, _ = _reference_residuals(x, a0, others, diffs)
        eps = np.maximum(np.median(g**2, axis=1), localization._REWEIGHT_EPS)
        return 1.0 / (g**2 + eps[:, None])

    for start in starts:
        x = np.array(start, dtype=float)
        weights = np.ones_like(diffs)
        for _ in range(localization._REWEIGHT_ROUNDS):
            x, cost = localization._batch_gauss_newton(
                x, a0, others, diffs, weights, centroid, localization._CENTROID_PRIOR
            )
            weights = reweight(x)
        better = cost < best_cost
        best_x[better] = x[better]
        best_cost[better] = cost[better]
    weights = reweight(best_x)
    best_x, _ = localization._batch_gauss_newton(
        best_x, a0, others, diffs, weights, centroid, 0.0, steps=8
    )
    g, _ = _reference_residuals(best_x, a0, others, diffs)
    data_cost = np.sum(weights * g**2, axis=1)
    best_x[~solvable] = np.nan
    data_cost[~solvable] = np.nan
    return best_x, data_cost


@pytest.mark.parametrize(
    "name, bandwidth, walls, dead",
    [
        ("indoor-dense", 200e6, 0, 120),
        ("indoor-dense", 200e6, 5, 120),
        ("indoor-fig4", 20e6, 5, 0),
    ],
)
def test_stacked_starts_match_per_start_reference(name, bandwidth, walls, dead, monkeypatch):
    """On a noisy grid, with `dead` rows given one dead pilot so that
    several patterns share the batch, localize_batch equals the per-start
    reference exactly: estimates and costs, NaN rows included."""
    scn = preset(name, bandwidth_hz=bandwidth, wall_count=walls)
    grid = precompute_grid(scn)
    rng = np.random.default_rng(60 + walls)
    pilots = grid.channels + pilot_noise(scn, grid.channels.shape, rng)
    rows = rng.choice(pilots.shape[0], size=dead, replace=False)
    pilots[rows, rng.integers(0, scn.n_transmitters, size=dead)] = 0.0
    if dead:
        diffs = tdoa_range_differences(pilots, scn.sample_period)
        assert len(np.unique(np.isfinite(diffs), axis=0)) >= 4
    # A fresh AnchorSet each, so that the reference call solves every row.
    xy, cost = localize_batch(AnchorSet.from_scenario(scn), pilots, scn.sample_period)
    monkeypatch.setattr(localization, "_srdls_batch", _reference_srdls_batch)
    xy_ref, cost_ref = localize_batch(AnchorSet.from_scenario(scn), pilots, scn.sample_period)
    assert np.array_equal(xy, xy_ref, equal_nan=True)
    assert np.array_equal(cost, cost_ref, equal_nan=True)


_CHILD_LOCALIZE = """
import sys
import numpy as np
from locfree.localization import AnchorSet, localize_batch
from locfree.scenario import preset
stacks = np.load(sys.argv[1])
out = {}
for walls in (0, 5):
    scn = preset("indoor-dense", bandwidth_hz=200e6, wall_count=walls)
    out[f"xy{walls}"], out[f"cost{walls}"] = localize_batch(
        AnchorSet.from_scenario(scn), stacks[f"pilots{walls}"], scn.sample_period)
np.savez(sys.argv[2], **out)
"""


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="OPENBLAS_CORETYPE=Nehalem names an x86-64 kernel set")
def test_localize_batch_bits_do_not_depend_on_the_blas_kernels(tmp_path):
    """A child process whose OpenBLAS runs its Nehalem kernels localizes
    noisy 200 MHz rows at 0 and 5 walls to the bits of this process's
    kernels: estimates and residuals, NaN rows included."""
    stacks, want = {}, {}
    for walls in (0, 5):
        scn = preset("indoor-dense", bandwidth_hz=200e6, wall_count=walls)
        rng = np.random.default_rng(40 + walls)
        tables = simulate_points(scn, sample_sensor_locations(scn, 400, rng))
        pilots = tables.channels + pilot_noise(scn, tables.channels.shape, rng)
        stacks[f"pilots{walls}"] = pilots
        want[f"xy{walls}"], want[f"cost{walls}"] = localize_batch(
            AnchorSet.from_scenario(scn), pilots, scn.sample_period)
    np.savez(tmp_path / "pilots.npz", **stacks)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_CORETYPE="Nehalem", OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD_LOCALIZE, str(tmp_path / "pilots.npz"), str(tmp_path / "got.npz")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    got = np.load(tmp_path / "got.npz")
    for key, value in want.items():
        assert np.array_equal(got[key], value, equal_nan=True), key


def test_earliest_start_wins_a_tie_and_nan_never_wins(monkeypatch):
    """With a Gauss-Newton stand-in that leaves every start where it is, at
    cost NaN for the first start (the linear solve) and 1 for all others,
    every point ends at the second start, the anchor centroid: the earliest
    of the starts of least cost."""
    pos = np.array([[5.0, 5.0], [55.0, 6.0], [54.0, 35.0], [6.0, 34.0], [30.0, 20.0]])
    truth = np.random.default_rng(3).uniform((2.0, 2.0), (58.0, 38.0), (4, 2))
    d = np.linalg.norm(truth[:, None, :] - pos[None], axis=2)
    diffs = d[:, :1] - d[:, 1:]
    n = diffs.shape[0]

    def stand_in(x, a0, others, r, weights, center, tau, steps=12):
        cost = np.ones(x.shape[0])
        cost[:n] = np.nan  # the starts are stacked start by start
        return x.copy(), cost

    monkeypatch.setattr(localization, "_batch_gauss_newton", stand_in)
    xy, _ = localization._srdls_batch(pos, diffs)
    assert np.array_equal(xy, np.broadcast_to(pos.mean(axis=0), (n, 2)))


def test_srdls_blocks_do_not_change_estimates(monkeypatch):
    """7 points in blocks of 3 (two full blocks and a remainder) give what
    the default blocking gives, bit for bit."""
    scn = preset("indoor-dense", bandwidth_hz=200e6, wall_count=5)
    rng = np.random.default_rng(9)
    tables = simulate_points(scn, sample_sensor_locations(scn, 7, rng))
    pilots = tables.channels + pilot_noise(scn, tables.channels.shape, rng)
    diffs = tdoa_range_differences(pilots, scn.sample_period)
    assert np.all(np.isfinite(diffs))
    pos = scn.tx_positions()
    xy, cost = localization._srdls_batch(pos, diffs)
    monkeypatch.setattr(localization, "_BLOCK_ROWS", 3)
    xy_blocked, cost_blocked = localization._srdls_batch(pos, diffs)
    assert np.array_equal(xy, xy_blocked)
    assert np.array_equal(cost, cost_blocked)


@pytest.mark.parametrize("trial_rows", [1, 10**6])
def test_line_search_batching_does_not_change_estimates(trial_rows, monkeypatch):
    """Trying one halving at a time (trial_rows 1) or all remaining
    halvings of every pending row at once (10**6) gives what the default
    batching gives, bit for bit, on 5-wall multipath range differences
    whose rows accept at many different halvings."""
    scn = preset("indoor-dense", bandwidth_hz=200e6, wall_count=5)
    rng = np.random.default_rng(31)
    tables = simulate_points(scn, sample_sensor_locations(scn, 200, rng))
    pilots = tables.channels + pilot_noise(scn, tables.channels.shape, rng)
    diffs = tdoa_range_differences(pilots, scn.sample_period)
    diffs = diffs[np.all(np.isfinite(diffs), axis=1)]
    pos = scn.tx_positions()
    xy, cost = localization._srdls_batch(pos, diffs)
    monkeypatch.setattr(localization, "_TRIAL_ROWS", trial_rows)
    xy_other, cost_other = localization._srdls_batch(pos, diffs)
    assert np.array_equal(xy, xy_other, equal_nan=True)
    assert np.array_equal(cost, cost_other, equal_nan=True)


@pytest.mark.parametrize("walls", [0, 5])
def test_active_set_gauss_newton_matches_full_row_reference(walls, monkeypatch):
    """Multipath 200 MHz range differences: the SRD-LS estimates and costs
    of a batch equal those of the full-row reference applied to each row
    on its own, exactly."""
    scn = preset("indoor-dense", bandwidth_hz=200e6, wall_count=walls)
    rng = np.random.default_rng(20 + walls)
    pts = sample_sensor_locations(scn, 300, rng)
    tables = simulate_points(scn, pts)
    pilots = tables.channels + pilot_noise(scn, tables.channels.shape, rng)
    diffs = np.stack([tdoa_feature_set(p, scn.sample_period) for p in pilots])
    diffs = diffs[np.all(np.isfinite(diffs), axis=1)]
    assert diffs.shape[0] >= 250
    pos = scn.tx_positions()
    xy, cost = localization._srdls_batch(pos, diffs)
    monkeypatch.setattr(localization, "_batch_gauss_newton", _reference_per_row)
    xy_ref, cost_ref = localization._srdls_batch(pos, diffs)
    assert np.array_equal(xy, xy_ref)
    assert np.array_equal(cost, cost_ref)


def test_active_set_gauss_newton_non_finite_rows_match_reference():
    """Rows with NaN or infinite costs descend exactly as the full-row
    reference does on each row alone: a non-finite row neither stops nor
    prolongs the descent of the finite ones."""
    pos = np.array([[5.0, 5.0], [55.0, 6.0], [54.0, 35.0], [6.0, 34.0], [30.0, 20.0]])
    rng = np.random.default_rng(2)
    truth = rng.uniform((2.0, 2.0), (58.0, 38.0), (4, 2))
    d = np.linalg.norm(truth[:, None, :] - pos[None], axis=2)
    r = d[:, :1] - d[:, 1:] + rng.normal(0.0, 0.3, (4, 4))
    r[2, 1] = np.nan
    r[3, 0] = np.inf
    center = pos.mean(axis=0)
    x0 = np.broadcast_to(center, (4, 2)).copy()
    for tau in (1e-4, 0.0):
        args = (pos[0], pos[1:], r, np.ones_like(r), center, tau)
        with np.errstate(invalid="ignore", over="ignore"):
            x, cost = localization._batch_gauss_newton(x0, *args)
            x_ref, cost_ref = _reference_per_row(x0, *args)
        assert np.isnan(cost[2]) and not np.isfinite(cost[3])
        assert np.array_equal(x, x_ref, equal_nan=True)
        assert np.array_equal(cost, cost_ref, equal_nan=True)


@pytest.mark.parametrize("walls", [0, 5])
def test_localize_batch_rows_equal_their_own_calls(walls):
    """Every row of a batch equals srdls_localize on that row alone, on a
    noisy 200 MHz grid sample in which some rows have one dead pilot, so
    that several patterns of missing range differences share the batch."""
    scn = preset("indoor-dense", bandwidth_hz=200e6, wall_count=walls)
    grid = precompute_grid(scn)
    rng = np.random.default_rng(40 + walls)
    rows = rng.choice(grid.points.shape[0], size=150, replace=False)
    pilots = grid.channels[rows] + pilot_noise(scn, grid.channels[rows].shape, rng)
    for i, tx in enumerate(rng.integers(0, scn.n_transmitters, size=30)):
        pilots[i, tx] = 0.0
    estimates, residuals = localize_batch(AnchorSet.from_scenario(scn), pilots, scn.sample_period)
    diffs = tdoa_range_differences(pilots, scn.sample_period)
    assert len(np.unique(np.isfinite(diffs), axis=0)) >= 4
    for i in range(pilots.shape[0]):
        # A fresh AnchorSet, so that the row is solved on its own.
        est = srdls_localize(AnchorSet.from_scenario(scn), diffs[i])
        alone = [np.nan] * 3 if est is None else [est.x, est.y, est.residual]
        row = [estimates[i, 0], estimates[i, 1], residuals[i]]
        assert np.array_equal(row, alone, equal_nan=True), i


def _reference_localize_diffs(pos, diffs):
    """One _srdls_batch call per pattern of finite differences over every
    row, copies included.  The oracle for the distinct-row path of
    AnchorSet.localize, which must reproduce it bit for bit."""
    estimates = np.full((diffs.shape[0], 2), np.nan)
    residuals = np.full(diffs.shape[0], np.nan)
    patterns, inverse = np.unique(np.isfinite(diffs), axis=0, return_inverse=True)
    for k, usable in enumerate(patterns):
        if usable.sum() < 3:
            continue
        rows = inverse.reshape(-1) == k
        sub = np.vstack([pos[0], pos[1:][usable]])
        estimates[rows], residuals[rows] = localization._srdls_batch(sub, diffs[rows][:, usable])
    return estimates, residuals


def _count_srdls_rows(monkeypatch):
    """Route _srdls_batch through a wrapper that keeps the diffs of every
    outer call (not the block calls it makes of itself past _BLOCK_ROWS);
    returns the list of them."""
    received, depth = [], []
    solve = localization._srdls_batch

    def counting(pos, diffs):
        if not depth:
            received.append(diffs.copy())
        depth.append(None)
        try:
            return solve(pos, diffs)
        finally:
            depth.pop()

    monkeypatch.setattr(localization, "_srdls_batch", counting)
    return received


def _assert_matches_reference(pos, diffs, monkeypatch):
    """A fresh AnchorSet's localize equals the per-pattern reference, and _srdls_batch
    receives each distinct row with at least 3 usable differences exactly
    once.  Returns the estimates and residuals."""
    xy_ref, cost_ref = _reference_localize_diffs(pos, diffs)
    received = _count_srdls_rows(monkeypatch)
    xy, cost = AnchorSet(pos).localize(diffs)
    assert xy.shape == (diffs.shape[0], 2) and cost.shape == (diffs.shape[0],)
    assert np.array_equal(xy, xy_ref, equal_nan=True)
    assert np.array_equal(cost, cost_ref, equal_nan=True)
    keys = np.where(np.isfinite(diffs), diffs, np.inf)
    solvable = np.isfinite(diffs).sum(axis=1) >= 3
    expected = len(np.unique(keys[solvable], axis=0)) if solvable.any() else 0
    assert sum(block.shape[0] for block in received) == expected
    for block in received:
        assert len(np.unique(block, axis=0)) == block.shape[0]
    return xy, cost


@pytest.mark.parametrize(
    "name, bandwidth, walls",
    [
        ("indoor-fig4", 20e6, 0),
        ("indoor-fig4", 20e6, 5),
        ("indoor-dense", 200e6, 0),
        ("indoor-dense", 200e6, 5),
    ],
)
def test_distinct_rows_match_per_pattern_reference(name, bandwidth, walls, monkeypatch):
    """On a noisy grid with 150 dead pilots, localizing each distinct row
    once gives every row exactly what the per-pattern reference gives it,
    NaN rows included, and _srdls_batch sees only the distinct rows."""
    scn = preset(name, bandwidth_hz=bandwidth, wall_count=walls)
    grid = precompute_grid(scn)
    rng = np.random.default_rng(80 + walls)
    pilots = grid.channels + pilot_noise(scn, grid.channels.shape, rng)
    rows = rng.choice(pilots.shape[0], size=150, replace=False)
    pilots[rows, rng.integers(0, scn.n_transmitters, size=150)] = 0.0
    diffs = tdoa_range_differences(pilots, scn.sample_period)
    keys = np.where(np.isfinite(diffs), diffs, np.inf)
    assert len(np.unique(keys, axis=0)) < diffs.shape[0]
    assert len(np.unique(np.isfinite(diffs), axis=0)) >= 4
    # Lag 0 gives +0.0, never -0.0, so merging the two signs of zero (as
    # np.unique does) never meets a -0.0 from the feature kernel.
    assert np.any(diffs == 0.0) and not np.any(np.signbit(diffs[diffs == 0.0]))
    _assert_matches_reference(scn.tx_positions(), diffs, monkeypatch)


def test_equal_values_in_different_patterns_stay_distinct(monkeypatch, caplog):
    """Rows whose finite values agree but whose dead pilots differ are
    different problems: each is solved on its own pattern's anchors."""
    pos = np.array([[5.0, 5.0], [55.0, 6.0], [54.0, 35.0], [6.0, 34.0], [30.0, 20.0]])
    full = range_diffs_for(AnchorSet(pos), (21.0, 13.0)) + np.array([0.4, -0.3, 0.2, 0.1])
    a, b = full.copy(), np.empty(4)
    a[3] = np.nan
    b[0], b[1:] = np.nan, full[:3]
    diffs = np.stack([full, a, b, a, full, b])
    with caplog.at_level("DEBUG", logger="locfree.localization"):
        xy, cost = _assert_matches_reference(pos, diffs, monkeypatch)
    assert [r.getMessage() for r in caplog.records] == [
        "3 distinct of 6 rows, 3 patterns solved"
    ]
    assert not np.array_equal(xy[1], xy[2]) and np.all(np.isfinite(xy))


def test_all_identical_rows_are_solved_once(monkeypatch):
    pos = np.array([[5.0, 5.0], [55.0, 6.0], [54.0, 35.0], [6.0, 34.0], [30.0, 20.0]])
    row = range_diffs_for(AnchorSet(pos), (40.0, 12.0)) + np.array([0.5, 0.0, -0.5, 1.0])
    xy, cost = _assert_matches_reference(pos, np.tile(row, (9, 1)), monkeypatch)
    assert np.all(xy == xy[0]) and np.all(cost == cost[0])


def test_empty_batch_localizes_to_empty_arrays(monkeypatch):
    pos = np.array([[5.0, 5.0], [55.0, 6.0], [54.0, 35.0], [6.0, 34.0], [30.0, 20.0]])
    _assert_matches_reference(pos, np.empty((0, 4)), monkeypatch)


def test_signed_zeros_give_identical_answers():
    """np.unique merges 0.0 and -0.0; that is exact because the reference
    gives a row with -0.0 the same bits as the row with 0.0."""
    pos = np.array([[5.0, 5.0], [55.0, 6.0], [54.0, 35.0], [6.0, 34.0], [30.0, 20.0]])
    row = range_diffs_for(AnchorSet(pos), (30.0, 8.0)) + np.array([0.5, 0.0, -0.5, 1.0])
    row[[0, 2]] = 0.0
    signed = row.copy()
    signed[[0, 2]] = -0.0
    diffs = np.stack([row, signed])
    xy_ref, cost_ref = _reference_localize_diffs(pos, diffs)
    assert xy_ref[0].tobytes() == xy_ref[1].tobytes()
    assert cost_ref[0].tobytes() == cost_ref[1].tobytes()
    xy, cost = AnchorSet(pos).localize(diffs)
    assert xy.tobytes() == xy_ref.tobytes() and cost.tobytes() == cost_ref.tobytes()


@pytest.mark.parametrize(
    "name, bandwidth, walls", [("indoor-fig4", 20e6, None), ("indoor-dense", 200e6, 5)]
)
def test_filled_table_answers_with_the_bytes_of_a_fresh_call(name, bandwidth, walls):
    """Runs 0-4 localize their training and query pilots, with dead pilots,
    through the grid's AnchorSet, whose rows earlier runs and the run's fit
    solved: every estimate and residual is byte-equal to a fresh AnchorSet's."""
    scn = preset(name, bandwidth_hz=bandwidth, wall_count=walls)
    grid = precompute_grid(scn)
    config = experiments._locb_config(scn)
    seen = 0
    for run_idx in range(5):
        world = _draw_world(config, grid, run_idx)
        rng = np.random.default_rng(90 + run_idx)
        # The world's arrays are read-only: set dead pilots in copies.
        for pilots in (world.train.pilots.copy(), world.queries.pilots.copy()):
            dead = rng.choice(pilots.shape[0], size=pilots.shape[0] // 10, replace=False)
            pilots[dead, rng.integers(0, scn.n_transmitters, size=dead.size)] = 0.0
            filled = localize_batch(grid.anchors, pilots, scn.sample_period)
            fresh = localize_batch(AnchorSet.from_scenario(scn), pilots, scn.sample_period)
            assert filled[0].tobytes() == fresh[0].tobytes()
            assert filled[1].tobytes() == fresh[1].tobytes()
            diffs = tdoa_range_differences(pilots, scn.sample_period)
            seen += len(np.unique(np.where(np.isfinite(diffs), diffs, np.inf), axis=0))
    # The grid's AnchorSet answered rows that earlier calls had solved.
    assert len(grid.anchors.keys) < seen


def test_each_distinct_row_is_solved_once_per_grid(monkeypatch):
    """Across three runs, and across each run's fit and predict,
    _srdls_batch receives each distinct solvable row exactly once, and the
    grid's AnchorSet holds every distinct row, sorted as np.unique sorts,
    with its estimate and residual."""
    scn = preset("indoor-fig4")
    grid = precompute_grid(scn)
    config = experiments._locb_config(scn)
    received = _count_srdls_rows(monkeypatch)
    keys, calls = [], 0
    for run_idx in range(3):
        fit_and_predict(config, grid, run_idx)
        world = _draw_world(config, grid, run_idx)
        for pilots in (world.train.pilots, world.queries.pilots):
            diffs = tdoa_range_differences(pilots, scn.sample_period)
            keys.append(np.where(np.isfinite(diffs), diffs, np.inf))
            calls += len(np.unique(keys[-1], axis=0))
    keys = np.concatenate(keys)
    distinct = np.unique(keys, axis=0)
    solvable = np.isfinite(distinct).sum(axis=1) >= 3
    assert sum(block.shape[0] for block in received) == np.count_nonzero(solvable)
    for block in received:
        assert len(np.unique(block, axis=0)) == block.shape[0]
    anchors = grid.anchors
    assert np.array_equal(anchors.keys, distinct)
    assert np.isnan(anchors.residuals[~solvable]).all()
    assert len(distinct) < calls
    assert anchors.keys.shape == (len(distinct), scn.n_transmitters - 1)
    assert anchors.estimates.shape == (len(distinct), 2)
    assert anchors.residuals.shape == (len(distinct),)
    assert all(a.dtype == np.float64 for a in (anchors.keys, anchors.estimates, anchors.residuals))


def test_rows_of_the_wrong_width_are_refused():
    """Range differences are one per non-reference anchor: pilots of 5
    transmitters on 4 anchors, and a short srdls_localize row, raise a
    ValueError that names both widths, and solve nothing."""
    scn = preset("indoor-fig4")
    pilots = precompute_grid(scn, 3.0).channels[:20]
    fewer = AnchorSet(scn.tx_positions()[:4])
    with pytest.raises(ValueError, match="4 anchors take 3 range differences .* got 4"):
        localize_batch(fewer, pilots, scn.sample_period)
    with pytest.raises(ValueError, match="4 anchors take 3 range differences .* got 4"):
        locb_fit(fewer, pilots, np.zeros(20), scn.sample_period, GaussianKernel(1.0), 1e-3)
    anchors = AnchorSet.from_scenario(scn)
    with pytest.raises(ValueError, match="5 anchors take 4 range differences .* got 3"):
        srdls_localize(anchors, [1.0, 2.0, 3.0])
    assert len(fewer.keys) == len(anchors.keys) == 0


def _awkward_rows(rng, n, p):
    """Rows of mixed magnitudes and signs, with signed zeros, +-inf and NaN."""
    v = rng.standard_normal((n, p)) * 10.0 ** rng.integers(-30, 30, (n, p))
    v[rng.random((n, p)) < 0.1] = -0.0
    v[rng.random((n, p)) < 0.1] = 0.0
    v[rng.random((n, p)) < 0.05] = np.inf
    v[rng.random((n, p)) < 0.05] = -np.inf
    v[rng.random((n, p)) < 0.05] = np.nan
    v[: n // 10] = -0.0
    return v


@pytest.mark.parametrize("p", range(3, 10))
@pytest.mark.parametrize("n", [1, 7, 8400])
def test_row_sum_is_numpy_sum_bit_for_bit(p, n):
    """_row_sum adds the columns left to right from 0.0 because numpy sums
    a short row in that order.  If a numpy release changes the order, this
    fails, not the localizer's bit-identity with its reference."""
    v = _awkward_rows(np.random.default_rng(p * n), n, p)
    with np.errstate(invalid="ignore"):
        total, expected = localization._row_sum(v), np.sum(v, axis=1)
    assert total.tobytes() == expected.tobytes()
    # Finite rows of falling magnitudes round differently in any other order.
    v = np.random.default_rng(p).standard_normal((n, p)) * 10.0 ** np.arange(p)[::-1]
    assert localization._row_sum(v).tobytes() == np.sum(v, axis=1).tobytes()


@pytest.mark.parametrize("p", [3, 4, 5, 6])
def test_row_median_is_numpy_median(p):
    """The median of the sorted columns of squared residuals equals
    np.median's, and a row that holds a NaN gets NaN."""
    rng = np.random.default_rng(p)
    v = np.abs(_awkward_rows(rng, 2000, p))
    v[:50] = np.round(v[:50])  # ties
    assert np.isnan(v).any(axis=1).sum() > 100
    median = localization._row_median(v)
    assert np.array_equal(median, np.median(v, axis=1), equal_nan=True)
    assert np.array_equal(np.isnan(median), np.isnan(v).any(axis=1))
