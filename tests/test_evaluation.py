import gc
import logging
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest

from conftest import pooled_std
from locfree import evaluation, experiments, features, propagation
from locfree.errors import ConfigurationError
from locfree.evaluation import (
    ESTIMATORS,
    ExperimentConfig,
    NmseResult,
    _draw_world,
    fit_estimator,
    mask_features,
    nmse,
    precompute_grid,
    predict_estimator,
    run_experiment,
    run_experiments,
    run_once,
)
from locfree.propagation import measurement_noise_std, simulate_points
from locfree.scenario import Scenario, Transmitter, preset


@pytest.fixture(scope="module")
def small_world():
    """Small free-space world so Monte Carlo runs cost milliseconds."""
    scn = Scenario(
        region=(0.0, 0.0, 24.0, 16.0),
        transmitters=(
            Transmitter(2.0, 2.0),
            Transmitter(22.0, 2.5),
            Transmitter(21.5, 14.0),
            Transmitter(2.5, 13.5),
            Transmitter(12.0, 8.0),
        ),
        bandwidth_hz=200e6,
        num_samples=40,
        noise_variance=1e-10,
    )
    grid = precompute_grid(scn)
    return scn, grid


def test_nmse_examples():
    truth = np.array([1.0, 2.0, 3.0])
    assert nmse(truth, truth, p_bar=2.0) == 0.0
    assert nmse(truth, np.full(3, 2.0), p_bar=2.0) == 1.0


def test_nmse_matches_scalar_loop():
    rng = np.random.default_rng(0)
    truth = rng.normal(size=50)
    pred = rng.normal(size=50)
    p_bar = truth.mean()
    num = sum((t - p) ** 2 for t, p in zip(truth, pred)) / 50
    den = sum((t - p_bar) ** 2 for t in truth) / 50
    assert nmse(truth, pred, p_bar) == pytest.approx(num / den, rel=1e-12)


def test_nmse_constant_field_rejected():
    with pytest.raises(ConfigurationError):
        nmse(np.ones(5), np.zeros(5), p_bar=1.0)


def test_mask_features_extremes():
    rng = np.random.default_rng(1)
    features = rng.normal(size=(10, 6))
    powers = rng.uniform(-90, -40, size=(6, 5))
    nothing = mask_features(features, powers, gamma_dbw=-np.inf)
    assert nothing.observed.all()
    everything = mask_features(features, powers, gamma_dbw=np.inf)
    assert not everything.observed.any()


def test_mask_features_pair_rule():
    features = np.zeros((3, 2))  # pairs (0,1), (0,2), (1,2) of L=3
    powers = np.array([[-50.0, -80.0, -45.0], [-50.0, -40.0, -45.0]])
    inc = mask_features(features, powers, gamma_dbw=-60.0)
    # location 0: transmitter 1 is below the threshold -> pairs (0,1), (1,2) missing
    assert list(inc.observed[:, 0]) == [False, True, False]
    assert list(inc.observed[:, 1]) == [True, True, True]


def test_mask_features_nondecreasing_in_gamma():
    rng = np.random.default_rng(2)
    features = rng.normal(size=(10, 30))
    powers = rng.uniform(-90, -40, size=(30, 5))
    missing = []
    for gamma in np.linspace(-95, -35, 9):
        inc = mask_features(features, powers, gamma)
        missing.append(int(np.sum(~inc.observed)))
    assert all(a <= b for a, b in zip(missing, missing[1:]))


def test_nonfinite_features_always_masked():
    features = np.array([[np.nan, 1.0]])
    powers = np.full((2, 2), -40.0)
    inc = mask_features(features, powers, gamma_dbw=-np.inf)
    assert list(inc.observed[0]) == [False, True]


def test_run_experiment_deterministic(small_world):
    scn, grid = small_world
    cfg = ExperimentConfig(scenario=scn, estimator="locf", n_train=40, runs=3, seed=5,
                           sigma=20.0, lam=1e-4)
    a = run_experiment(cfg, grid=grid)
    b = run_experiment(cfg, grid=grid)
    assert a == b


def test_run_experiment_parallel_matches_serial(small_world):
    scn, grid = small_world
    cfg = ExperimentConfig(scenario=scn, estimator="locf", n_train=40, runs=4, seed=2,
                           sigma=20.0, lam=1e-4)
    serial = run_experiment(cfg, grid=grid, jobs=1)
    parallel = run_experiment(cfg, grid=grid, jobs=2)
    assert serial == parallel


def test_run_experiments_starts_at_most_one_worker_per_run(small_world, monkeypatch):
    """Under fork a pool starts all its max_workers at the first submit, so
    run_experiments asks for no more workers than run indices.  A recording
    stand-in for the pool runs the tasks in this process."""
    scn, grid = small_world
    started = []

    class RecordingPool:
        def __init__(self, max_workers, initializer, initargs):
            started.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(evaluation, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(evaluation, "_worker_grid", None)
    monkeypatch.setattr(evaluation, "_held", None)
    cfg = ExperimentConfig(scenario=scn, estimator="locf", n_train=40, runs=2, seed=2,
                           sigma=20.0, lam=1e-4)
    pooled = run_experiment(cfg, grid=grid, jobs=8)
    run_experiment(replace(cfg, runs=3), grid=grid, jobs=2)
    assert started == [2, 2]
    assert pooled == run_experiment(cfg, grid=grid)


def test_trivial_average_predictor_scores_one(small_world):
    scn, grid = small_world
    pred = np.full(grid.truth.shape, grid.p_bar)
    assert nmse(grid.truth, pred, grid.p_bar) == pytest.approx(1.0)


def test_monte_carlo_mean_std_shrinks_with_runs(small_world):
    scn, grid = small_world
    cfg = ExperimentConfig(scenario=scn, estimator="locf", n_train=30, runs=32, seed=9,
                           sigma=20.0, lam=1e-4)
    result = run_experiment(cfg, grid=grid, jobs=2)
    values = np.array(result.per_run)
    singles = values.std(ddof=1)
    quads = values.reshape(8, 4).mean(axis=1).std(ddof=1)
    # std of 4-run means should be about half the single-run std
    assert quads == pytest.approx(singles / 2.0, rel=0.5)


def test_benign_regime_locb_pipeline_is_accurate():
    """End to end on an analytically easy configuration: free space, wide
    bandwidth (0.43 m range resolution), noiseless pilots and measurements,
    N=200 over a region small enough for dense coverage."""
    scn = Scenario(
        region=(0.0, 0.0, 40.0, 30.0),
        transmitters=(
            Transmitter(2.0, 15.0),
            Transmitter(20.5, 2.0),
            Transmitter(38.0, 15.0),
            Transmitter(20.5, 28.0),
            Transmitter(20.5, 15.0),
        ),
        carrier_hz=400e6,
        bandwidth_hz=700e6,
        num_samples=350,
        noise_variance=0.0,
    )
    grid = precompute_grid(scn)
    cfg = ExperimentConfig(
        scenario=scn, estimator="locb", n_train=200, runs=1, seed=0,
        sigma_loc=3.5, lam_loc=1e-4, center_targets=True,
        measurement_noise=False,
    )
    result = run_experiment(cfg, grid=grid)
    assert result.mean < 0.05


def test_estimator_dispatch_all_kinds(small_world):
    scn, grid = small_world
    for estimator, extra in (
        ("locf", {}),
        ("locf_reduced", {"rank": 4}),
        ("locf_completion", {"rank": 4, "gamma_dbw": -90.0}),
        ("locb", {"sigma_loc": 3.0, "lam_loc": 1e-3, "center_targets": True}),
    ):
        cfg = ExperimentConfig(
            scenario=scn, estimator=estimator, n_train=40, runs=1, seed=1,
            sigma=20.0, lam=1e-4, **extra,
        )
        value, missing = run_once(cfg, grid, 0)
        assert np.isfinite(value) and value >= 0


def test_completion_predict_is_nan_where_nothing_is_observed(small_world):
    """A completion query whose pilots are all below the threshold has no
    input column: predict gives NaN there and the same values elsewhere."""
    scn, grid = small_world
    cfg = ExperimentConfig(
        scenario=scn, estimator="locf_completion", n_train=40, runs=1, seed=3,
        sigma=20.0, lam=1e-4, rank=4, gamma_dbw=-90.0,
    )
    world = _draw_world(cfg, grid, 0)
    model, columns = fit_estimator(cfg, world)
    assert columns.shape == (10, 40)
    powers = grid.pilot_powers.copy()
    powers[:3] = -np.inf
    values = predict_estimator(cfg, model, world.queries, powers)
    observed = predict_estimator(cfg, model, world.queries, grid.pilot_powers)
    assert np.all(np.isnan(values[:3]))
    assert np.array_equal(values[3:], observed[3:])
    assert np.all(np.isfinite(observed))


def test_completion_estimator_reports_missing_counts(small_world):
    scn, grid = small_world
    gamma = float(np.quantile(grid.pilot_powers, 0.3))
    cfg = ExperimentConfig(
        scenario=scn, estimator="locf_completion", n_train=40, runs=2, seed=3,
        sigma=20.0, lam=1e-4, rank=4, gamma_dbw=gamma,
    )
    result = run_experiment(cfg, grid=grid)
    assert result.avg_missing > 0


def test_unknown_estimator_rejected(small_world):
    scn, _ = small_world
    with pytest.raises(ConfigurationError, match="unknown estimator"):
        ExperimentConfig(scenario=scn, estimator="magic")


@pytest.mark.parametrize("gamma", [np.nan, np.inf])
def test_gamma_nan_or_plus_inf_rejected(gamma, small_world):
    """NaN and +inf would mask every feature; -inf, the default, masks none."""
    scn, _ = small_world
    with pytest.raises(ConfigurationError, match="gamma_dbw must be finite or -inf"):
        ExperimentConfig(scenario=scn, gamma_dbw=gamma)
    assert ExperimentConfig(scenario=scn, gamma_dbw=-np.inf).gamma_dbw == -np.inf


def test_pooled_std():
    a = NmseResult(mean=1.0, std=0.3, per_run=(1.0,))
    b = NmseResult(mean=2.0, std=0.4, per_run=(2.0,))
    assert pooled_std(a, b) == pytest.approx(np.sqrt((0.09 + 0.16) / 2))


@pytest.fixture(scope="module")
def fig4_coarse():
    """indoor-fig4 on a 3 m grid and one config per estimator; the
    completion config masks features."""
    scn = preset("indoor-fig4")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = precompute_grid(scn, 3.0)
    gamma = experiments.default_gamma_sweep(grid)[1]
    return grid, {
        "locf": experiments._locf_config(scn),
        "locf_reduced": experiments._locf_config(scn, estimator="locf_reduced", rank=4),
        "locf_completion": experiments._locf_config(
            scn, estimator="locf_completion", rank=4, gamma_dbw=gamma
        ),
        "locb": experiments._locb_config(scn),
    }


def test_every_estimator_runs_without_warnings(fig4_coarse):
    grid, configs = fig4_coarse
    assert sorted(configs) == sorted(ESTIMATORS)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for config in configs.values():
            value, _ = run_once(config, grid, 0)
            assert np.isfinite(value)


def test_unconverged_completion_is_logged_once_per_run(fig4_coarse, caplog):
    grid, configs = fig4_coarse
    with caplog.at_level(logging.WARNING, logger="locfree.evaluation"):
        run_once(configs["locf_completion"], grid, 0)
    records = [r for r in caplog.records if "SVP completion" in r.getMessage()]
    assert len(records) == 1
    assert "after 2000 iterations" in records[0].getMessage()
    assert "final residual" in records[0].getMessage()


@pytest.mark.parametrize(
    "name, bandwidth, walls", [("indoor-fig4", 20e6, None), ("indoor-dense", 200e6, 5)]
)
def test_power_only_grid_mean_is_precomputed_p_bar(name, bandwidth, walls, monkeypatch):
    """Building a grid and reading its powers synthesizes no taps: its mean
    power is p_bar, and the measurement noise is derived from it.  Its map
    and pilot powers are those of simulate_points at its points, and so
    are its channels on first read, bit for bit."""
    scn = preset(name, bandwidth_hz=bandwidth, wall_count=walls)

    def no_taps(*args):
        raise AssertionError("a grid synthesized channel taps before they were read")

    with monkeypatch.context() as patch:
        patch.setattr(propagation, "_batch_channels", no_taps)
        grid = precompute_grid(scn)
        assert grid.p_bar == float(np.mean(grid.truth))
        assert grid.noise_std == measurement_noise_std(grid.p_bar)
    fresh = simulate_points(scn, grid.points)
    assert grid.truth.tobytes() == fresh.true_power.tobytes()
    assert grid.pilot_powers.tobytes() == fresh.pilot_powers.tobytes()
    assert grid.channels.tobytes() == fresh.channels.tobytes()


def test_a_grid_synthesizes_its_taps_once(small_world, monkeypatch):
    """The first run on a grid synthesizes the taps of its training points
    and then of the grid; a second run synthesizes only its training taps."""
    scn, _ = small_world
    grid = precompute_grid(scn)
    rows = []
    synthesize = propagation._batch_channels

    def counted(scenario, rays):
        rows.append(rays[0][0].shape[0])
        return synthesize(scenario, rays)

    monkeypatch.setattr(propagation, "_batch_channels", counted)
    config = _same_world_configs(scn)[0]
    run_once(config, grid, 0)
    assert rows == [40, grid.points.shape[0]]
    rows.clear()
    run_once(config, grid, 1)
    assert rows == [40]


def test_locb_parallel_matches_serial_with_filled_and_fresh_tables():
    """A locb entry gives the same NmseResult at jobs 1 and 2, whether its
    grid's AnchorSet starts empty or holds other runs' rows.  Workers add
    rows to their own copies of it, not to the caller's."""
    scn = preset("indoor-fig4")
    grid = precompute_grid(scn, 3.0)
    cfg = experiments._locb_config(scn, runs=3, seed=4)
    fresh_parallel = run_experiment(cfg, grid=grid, jobs=2)
    assert len(grid.anchors.keys) == 0
    # Seeds 5 and 6: cfg's runs 1 and 2 are solved on the grid, run 0 is not.
    run_experiment(experiments._locb_config(scn, runs=2, seed=5), grid=grid)
    filled = len(grid.anchors.keys)
    assert filled > 0
    filled_parallel = run_experiment(cfg, grid=grid, jobs=2)
    assert len(grid.anchors.keys) == filled
    filled_serial = run_experiment(cfg, grid=grid, jobs=1)
    assert len(grid.anchors.keys) > filled
    fresh_serial = run_experiment(cfg, grid=precompute_grid(scn, 3.0), jobs=1)
    assert fresh_parallel == filled_parallel == filled_serial == fresh_serial


def test_a_grid_that_cannot_localize_still_runs_locf():
    """A 2-transmitter grid serves locf runs, which never make its
    AnchorSet; reading the AnchorSet, or running locb, is refused."""
    scn = preset("indoor-fig4", n_transmitters=2)
    grid = precompute_grid(scn, 3.0)
    locf = ExperimentConfig(scenario=scn, n_train=60, grid_step=3.0, seed=0, runs=1)
    assert run_experiments([locf], grid)[0].mean == pytest.approx(0.8814986005062527, rel=1e-12)
    with pytest.raises(ConfigurationError, match="at least 3 anchors"):
        grid.anchors
    with pytest.raises(ConfigurationError, match="at least 3 anchors"):
        run_experiments([replace(locf, estimator="locb")], grid)


def _same_world_configs(scn):
    """locf, locf_reduced, locb and two n_features configs of one world."""
    common = dict(scenario=scn, n_train=40, runs=3, seed=7, sigma=20.0, lam=1e-4)
    return [
        ExperimentConfig(estimator="locf", **common),
        ExperimentConfig(estimator="locf_reduced", rank=4, **common),
        ExperimentConfig(estimator="locb", sigma_loc=3.0, lam_loc=1e-3,
                         center_targets=True, **common),
        ExperimentConfig(estimator="locf", n_features=6, **common),
        ExperimentConfig(estimator="locf", n_features=8, **common),
    ]


def _count_draws(monkeypatch):
    """Counters of the training traces, pilot-noise draws by shape and
    feature extractions by point count that runs make from now on."""
    calls = {"traces": 0, "noise": [], "features": []}
    trace, noise, extract = (
        evaluation.simulate_points, evaluation.pilot_noise, features.feature_matrix_nosync
    )

    def traced(*args, **kwargs):
        calls["traces"] += 1
        return trace(*args, **kwargs)

    def drawn(scenario, shape, rng):
        calls["noise"].append(shape[0])
        return noise(scenario, shape, rng)

    def extracted(pilots, sample_period):
        calls["features"].append(pilots.shape[0])
        return extract(pilots, sample_period)

    monkeypatch.setattr(evaluation, "simulate_points", traced)
    monkeypatch.setattr(evaluation, "pilot_noise", drawn)
    monkeypatch.setattr(features, "feature_matrix_nosync", extracted)
    return calls


def test_runs_of_one_world_draw_trace_and_extract_it_once(small_world, monkeypatch):
    """locf, locf_reduced, locb and n_features runs of one (seed, run, N)
    trace the training points once, draw the query noise once and extract
    each side's CoM features once."""
    scn, _ = small_world
    grid = precompute_grid(scn)
    calls = _count_draws(monkeypatch)
    for config in _same_world_configs(scn):
        run_once(config, grid, 1)
    n = grid.points.shape[0]
    assert calls == {"traces": 1, "noise": [40, n], "features": [40, n]}


@pytest.mark.parametrize("order", [1, -1])
def test_a_held_world_gives_the_nmse_of_a_fresh_draw(small_world, order):
    """Each run of a shared world scores exactly as the same run alone on
    a fresh grid, whichever run drew the world."""
    scn, _ = small_world
    configs = _same_world_configs(scn)[::order]
    grid = precompute_grid(scn)
    shared = [run_once(config, grid, 2) for config in configs]
    alone = [run_once(config, precompute_grid(scn), 2) for config in configs]
    assert shared == alone


def test_a_changed_draw_option_draws_a_new_world(small_world, monkeypatch):
    scn, _ = small_world
    grid, other_grid = precompute_grid(scn), precompute_grid(scn)
    config = _same_world_configs(scn)[0]
    calls = _count_draws(monkeypatch)
    evaluation._draw_world(config, grid, 0)
    evaluation._draw_world(replace(config, estimator="locf_reduced", rank=4), grid, 0)
    assert calls["traces"] == 1
    for changed, run_idx in (
        (config, 1),
        (replace(config, n_train=41), 1),
        (replace(config, n_train=41, noisy_query=False), 1),
        (replace(config, n_train=41, noisy_query=False, measurement_noise=False), 1),
    ):
        before = calls["traces"]
        evaluation._draw_world(changed, grid, run_idx)
        assert calls["traces"] == before + 1, changed
    evaluation._draw_world(config, other_grid, 0)
    assert calls["traces"] == 6


def test_a_held_world_does_not_keep_its_grid_alive(small_world):
    scn, _ = small_world
    grid = precompute_grid(scn)
    evaluation._draw_world(_same_world_configs(scn)[0], grid, 0)
    ref = weakref.ref(grid)
    del grid
    gc.collect()
    assert ref() is None


def test_run_experiments_releases_the_held_world(small_world):
    """A finished serial sweep keeps no world alive.  run_once calls still
    share theirs (test_runs_of_one_world_draw_trace_and_extract_it_once)."""
    scn, _ = small_world
    grid = precompute_grid(scn)
    run_experiments(_same_world_configs(scn)[:2], grid)
    assert evaluation._held is None


def test_held_world_arrays_are_read_only(small_world):
    scn, grid = small_world
    world = evaluation._draw_world(_same_world_configs(scn)[0], grid, 0)
    for array in (world.train_points, world.train.pilots, world.train_powers, world.targets,
                  world.queries.pilots, world.train.com, world.queries.com):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0
    assert grid.channels.flags.writeable


def test_run_experiments_matches_each_config_alone(small_world):
    """Serial and parallel run_experiments give, config by config, the
    NmseResult of run_experiment on a fresh grid; configs may differ in
    their run counts."""
    scn, _ = small_world
    configs = _same_world_configs(scn)
    configs[1] = replace(configs[1], runs=2)
    grid = precompute_grid(scn)
    serial = run_experiments(configs, grid)
    parallel = run_experiments(configs, grid, jobs=2)
    alone = [run_experiment(config, grid=precompute_grid(scn)) for config in configs]
    assert [len(result.per_run) for result in serial] == [3, 2, 3, 3, 3]
    assert serial == parallel == alone
