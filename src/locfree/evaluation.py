"""Monte Carlo evaluation: NMSE, sensitivity masking, experiment runner.

A run draws sensor locations, synthesizes noisy pilots and power
measurements, fits the configured estimator, predicts the map at every
admissible grid point from (by default noisy) query pilots, and scores

    NMSE = mean (p - p_hat)^2 / mean (p - p_bar)^2

against the true map, where p_bar is the spatial average -- the error of
the best data-agnostic estimator, so NMSE = 1 means "no better than
predicting the average everywhere".

Runs are independent and reproducible: run i uses a fresh generator
seeded with ``seed + i``, and all noise draws happen in a fixed order
before estimator-specific work, so different estimator kinds under the
same seed see identical worlds (common random numbers).  Such a world is
drawn once, not just drawn alike: the process holds the last world it
drew, read-only, with the CoM features of its training and query pilots
extracted on first read, and every run that draws the same world on the
same grid reads it (``_draw_world``).  ``run_experiments`` loops over run
indices on the outside, so the configurations of one sweep that share a
world draw, trace and extract it once per run index.
"""

import copy
import logging
import os
import weakref
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import completion, features, io, kernels, localization, reduction
from .errors import ConfigurationError, SolverError
from .propagation import (
    evaluation_grid,
    measurement_noise_std,
    pilot_noise,
    sample_sensor_locations,
    simulate_points,
)

log = logging.getLogger(__name__)

ESTIMATORS = ("locf", "locf_reduced", "locf_completion", "locb")


def nmse(truth, prediction, p_bar):
    """Normalized mean square error of a map prediction over a grid."""
    truth = np.asarray(truth, dtype=float)
    prediction = np.asarray(prediction, dtype=float)
    if truth.shape != prediction.shape:
        raise ValueError("truth and prediction grids must be aligned")
    denom = np.mean((truth - p_bar) ** 2)
    if denom <= 0:
        raise ConfigurationError("constant truth field: NMSE denominator is zero")
    return float(np.mean((truth - prediction) ** 2) / denom)


def pair_min_power(tx_powers):
    """(M, N) weaker received pilot power of each transmitter pair, in dBW.

    tx_powers -- (N, L) per-location received pilot powers in dBW
    """
    powers = np.asarray(tx_powers, dtype=float)
    pairs = features.pair_indices(powers.shape[1])
    return np.stack([np.minimum(powers[:, i], powers[:, j]) for i, j in pairs])


def mask_features(feature_matrix, tx_powers, gamma_dbw):
    """Missing-feature mask from a pilot sensitivity threshold.

    A pairwise feature at one location is missing when the received power
    of either associated pilot falls below ``gamma_dbw``.  Entries that are
    non-finite (failed extraction) are missing regardless of power.

    feature_matrix -- (M, N) pairwise features
    tx_powers      -- (N, L) per-location received pilot powers in dBW
    """
    values = np.asarray(feature_matrix, dtype=float)
    n_tx = np.shape(tx_powers)[1]
    if n_tx * (n_tx - 1) // 2 != values.shape[0]:
        raise ValueError("one pair per feature row is required")
    observed = (pair_min_power(tx_powers) >= gamma_dbw) & np.isfinite(values)
    return completion.IncompleteFeatureMatrix(values=values, observed=observed)


@dataclass(frozen=True)
class ExperimentConfig:
    """One Monte Carlo experiment: scenario, estimator kind, hyperparameters."""

    scenario: object
    estimator: str = "locf"
    n_train: int = 300
    runs: int = 20
    seed: int = 0
    grid_step: float = 1.0
    lam: float = 1.9e-4          # feature-based ridge weight
    sigma: float = 37.0          # feature-based kernel bandwidth (m)
    lam_loc: float = 3.3e-3      # location-based ridge weight
    sigma_loc: float = 0.5       # location-based kernel bandwidth (m)
    eta: float = 0.99            # energy fraction for rank selection
    rank: int = None             # fixed reduced rank (defaults to L-1 where needed)
    mu: float = 5.42             # query-recovery regularization
    gamma_dbw: float = -np.inf   # pilot sensitivity threshold
    n_features: int = None       # random feature subset size (locf only)
    noisy_query: bool = True     # noisy pilots at evaluation points
    measurement_noise: bool = True
    center_targets: bool = False
    diagnostics_dir: str = None  # completion iteration logs land here if set

    def __post_init__(self):
        if self.estimator not in ESTIMATORS:
            raise ConfigurationError(
                f"unknown estimator {self.estimator!r}; choose from {ESTIMATORS}"
            )
        if self.runs < 1:
            raise ConfigurationError("runs must be >= 1")
        if self.n_train < 2:
            raise ConfigurationError("n_train must be >= 2")
        if not 0.0 < self.eta <= 1.0:
            raise ConfigurationError(f"eta must lie in (0, 1], got {self.eta}")
        if not self.gamma_dbw < np.inf:  # NaN or +inf would mask every feature
            raise ConfigurationError(f"gamma_dbw must be finite or -inf, got {self.gamma_dbw}")
        for name in ("grid_step", "sigma", "sigma_loc", "mu", "lam", "lam_loc"):
            value, ridge = getattr(self, name), name.startswith("lam")
            if not (0.0 <= value < np.inf and (ridge or value > 0.0)):  # NaN fails too
                raise ConfigurationError(
                    f"{name} must be finite and {'>=' if ridge else '>'} 0, got {value}")
        n_pairs = len(features.pair_indices(self.scenario.n_transmitters))
        for name in ("rank", "n_features"):
            value = getattr(self, name)
            if value is not None and not 1 <= value <= n_pairs:
                raise ConfigurationError(f"{name} must lie in 1..M = {n_pairs}, got {value}")


@dataclass(frozen=True)
class NmseResult:
    """Mean/std NMSE across runs, per-run values, and the exclusion count."""

    mean: float
    std: float
    per_run: tuple
    failed: int = 0
    avg_missing: float = 0.0  # average missing feature count per location


@dataclass(frozen=True)
class PrecomputedGrid:
    """Scenario-level tables shared by every run (expensive, compute once)."""

    points: np.ndarray        # (n, 2) admissible cell centers
    shape: tuple              # (ny, nx) full lattice shape
    flat_index: np.ndarray    # positions of admissible cells in the lattice
    tables: object            # the PointTables of simulate_points(points)
    truth: np.ndarray         # (n,) true map in dBW
    pilot_powers: np.ndarray  # (n, L) received pilot powers in dBW
    p_bar: float              # spatial average of the true map
    noise_std: float          # power-measurement noise sigma_eps (dB)
    xs: np.ndarray
    ys: np.ndarray

    @property
    def channels(self):
        """(n, L, K) noiseless query channels, synthesized on first read."""
        return self.tables.channels

    @cached_property
    def anchors(self):
        """AnchorSet of the scenario's transmitters, made on first read
        (ConfigurationError where they cannot localize): every locb fit and
        predict on this grid localizes through it."""
        return localization.AnchorSet.from_scenario(self.tables.scenario)


def precompute_grid(scenario, step=1.0):
    """The PrecomputedGrid of one trace of the grid points; its channel
    taps and its AnchorSet are made on first read."""
    points, shape, flat_index, xs, ys = evaluation_grid(scenario, step)
    tables = simulate_points(scenario, points)
    p_bar = float(np.mean(tables.true_power))
    return PrecomputedGrid(
        points=points,
        shape=shape,
        flat_index=flat_index,
        tables=tables,
        truth=tables.true_power,
        pilot_powers=tables.pilot_powers,
        p_bar=p_bar,
        noise_std=measurement_noise_std(p_bar),
        xs=xs,
        ys=ys,
    )


def _read_only(array):
    """A read-only view of ``array``."""
    view = array.view()
    view.flags.writeable = False
    return view


@dataclass
class PilotSet:
    """(n, L, K) received pilots and, extracted on first read, their (M, n)
    CoM feature matrix ``com`` (features.feature_matrix_nosync)."""

    pilots: np.ndarray
    sample_period: float

    @cached_property
    def com(self):
        return _read_only(features.feature_matrix_nosync(self.pilots, self.sample_period))


@dataclass
class RunWorld:
    """Everything a single run draws before estimator-specific work.

    Its arrays are read-only: one world may serve several runs."""

    train_points: np.ndarray
    train: PilotSet
    train_powers: np.ndarray   # (N, L) pilot powers in dBW at training points
    targets: np.ndarray
    queries: PilotSet
    rng: np.random.Generator


def _draw_training(config, noise_std, run_idx):
    """The training half of run ``run_idx``'s world, with targets of
    measurement noise ``noise_std`` dB; ``queries`` is None."""
    scenario = config.scenario
    rng = np.random.default_rng(config.seed + run_idx)
    pts = sample_sensor_locations(scenario, config.n_train, rng)
    tables = simulate_points(scenario, pts)
    train_pilots = tables.channels + pilot_noise(scenario, tables.channels.shape, rng)
    targets = tables.true_power + (
        rng.normal(0.0, noise_std, config.n_train) if noise_std > 0 else 0.0
    )
    return RunWorld(
        train_points=_read_only(pts),
        train=PilotSet(_read_only(train_pilots), scenario.sample_period),
        train_powers=_read_only(tables.pilot_powers),
        targets=_read_only(targets),
        queries=None,
        rng=rng,
    )


# The world _draw_world drew last: (weak reference to its grid, key, world).
# A grid is held weakly, never by id(): a freed grid's address can be reused.
_held = None


def _draw_world(config, grid, run_idx):
    """Run ``run_idx``'s world on ``grid``: the training draw, then the
    (by default noisy) query pilots at the grid points.

    The process holds the last world drawn and returns it again while the
    grid, the scenario, ``seed + run_idx``, ``n_train``,
    ``measurement_noise`` and ``noisy_query`` match; a miss drops it before
    drawing, so two worlds never coexist.  Each call gets its own copy of
    the post-draw generator, which an ``n_features`` fit draws from.
    """
    global _held
    key = (config.scenario, config.seed + run_idx, config.n_train,
           config.measurement_noise, config.noisy_query)
    if _held is None or _held[0]() is not grid or _held[1] != key:
        _held = None
        world = _draw_training(config, grid.noise_std if config.measurement_noise else 0.0, run_idx)
        pilots = grid.channels
        if config.noisy_query:
            pilots = pilot_noise(config.scenario, grid.channels.shape, world.rng)
            pilots += grid.channels
        world.queries = PilotSet(_read_only(pilots), config.scenario.sample_period)
        _held = (weakref.ref(grid), key, world)
    world = _held[2]
    return replace(world, rng=copy.deepcopy(world.rng))


@dataclass(frozen=True)
class Model:
    """A fitted estimator: its kernel map plus what predict needs besides it.

    fitted   -- FittedMap over feature, reduced-feature or location columns
    subset   -- feature rows a locf fit with ``n_features`` keeps
    recovery -- QueryRecoveryContext of a locf_completion fit
    missing  -- average count of unobserved training features per point
    located  -- LocBFitReport of a locb fit: its training-point estimates
    """

    fitted: kernels.FittedMap
    subset: np.ndarray = None
    recovery: completion.QueryRecoveryContext = None
    missing: float = 0.0
    located: localization.LocBFitReport = None


def fit_estimator(config, world, run_idx=0, *, grid=None):
    """Fit ``config.estimator`` on a run's training draw; a locb fit
    localizes through the AnchorSet of ``grid`` if given, else a fresh one.

    Returns (Model, columns): the (M, N) training features, or for locb the
    (2, N) location estimates, NaN where a point failed to localize.
    """
    if config.estimator == "locb":
        fitted, report = localization.locb_fit(
            _anchors(config, grid), world.train.pilots, world.targets,
            config.scenario.sample_period, kernels.GaussianKernel(config.sigma_loc),
            config.lam_loc, center_targets=config.center_targets,
        )
        if report.n_dropped:
            log.warning("dropped %d unlocalizable measurements", report.n_dropped)
        return Model(fitted, located=report), report.estimates.T
    train_f = world.train.com
    columns, extra = train_f, {}
    if config.estimator == "locf_reduced":
        eta = None if config.rank is not None else config.eta
        basis, columns = reduction.reduce_features(train_f, eta=eta, rank=config.rank)
    elif config.estimator == "locf_completion":
        columns, extra = _complete(config, world, train_f, run_idx)
    elif config.n_features is not None:
        extra["subset"] = np.sort(
            world.rng.choice(train_f.shape[0], size=config.n_features, replace=False)
        )
        train_f = columns = train_f[extra["subset"]]
    fitted = kernels.fit(
        columns, world.targets, kernels.GaussianKernel(config.sigma), config.lam,
        center_targets=config.center_targets,
    )
    if config.estimator == "locf_reduced":
        fitted = kernels.with_basis(fitted, basis)
    return Model(fitted, **extra), train_f


def _complete(config, world, train_f, run_idx):
    """SVP-complete the masked training features; returns the reduced
    training columns and the Model fields recovery and missing."""
    rank = config.rank if config.rank is not None else config.scenario.n_transmitters - 1
    incomplete = mask_features(train_f, world.train_powers, config.gamma_dbw)
    # Noisy structured masks: run the plain monotone iteration to its noise
    # floor rather than the accelerated steps (which can park in a worse
    # basin on approximately-low-rank data).  The 2,000-iteration cap is part
    # of criterion 8's printed NMSE values, and noisy runs reach it: the
    # converged=False warning below is expected there.
    completed = completion.svp_complete(
        incomplete,
        completion.CompletionConfig(rank=rank, max_iters=2000, adaptive_step=False),
    )
    if not completed.converged:
        log.warning("run %d: SVP completion stopped unconverged after %d iterations "
                    "(final residual %.6g)", run_idx, completed.iterations,
                    completed.final_residual)
    if config.diagnostics_dir:
        io.write_iteration_log(
            completed,
            os.path.join(
                config.diagnostics_dir,
                f"svp_gamma{config.gamma_dbw:+.1f}_run{run_idx}.csv",
            ),
        )
    basis = completion.gram_schmidt_basis(completed.matrix, rank)
    reduced_train = basis.T @ completed.matrix
    return reduced_train, {
        "recovery": completion.build_recovery_context(basis, reduced_train, config.mu),
        "missing": float(np.mean(np.sum(~incomplete.observed, axis=0))),
    }


def _anchors(config, grid):
    """The AnchorSet a locb fit or predict localizes through."""
    return localization.AnchorSet.from_scenario(config.scenario) if grid is None else grid.anchors


def predict_estimator(config, model, queries, query_powers, *, grid=None):
    """Map values at the PilotSet ``queries``, whose (n, L) pilot powers in
    dBW mask the completion features.  Returns (n,) values, NaN where no
    input column can be formed: an unlocalized locb query, or a completion
    query with nothing observed (a NaN column predicts NaN).  A locb
    predict localizes through the AnchorSet of ``grid`` if given."""
    if config.estimator == "locb":
        columns = localization.localize_batch(
            _anchors(config, grid), queries.pilots, config.scenario.sample_period
        )[0].T
    else:
        columns = queries.com
    if model.subset is not None:
        columns = columns[model.subset]
    if config.estimator == "locf_completion":
        masked = mask_features(columns, query_powers, config.gamma_dbw)
        columns = completion.rls_recover_queries(model.recovery, masked)
    return kernels.predict(model.fitted, columns)


def fit_and_predict(config, grid, run_idx):
    """Draw run ``run_idx``, fit, and predict the grid map; query points
    without a prediction get the training average.  A locb fit and predict
    localize through the grid's AnchorSet.  Returns (world, model,
    predictions)."""
    world = _draw_world(config, grid, run_idx)
    model, _ = fit_estimator(config, world, run_idx, grid=grid)
    predictions = predict_estimator(config, model, world.queries, grid.pilot_powers, grid=grid)
    fallback = np.isnan(predictions)
    if np.any(fallback):
        log.warning("run %d: substituted the training average at %d query points "
                    "without a prediction", run_idx, int(np.sum(fallback)))
        predictions[fallback] = float(np.mean(world.targets))
    return world, model, predictions


def run_once(config, grid, run_idx):
    """One Monte Carlo run; returns (nmse, avg_missing_feature_count)."""
    _, model, predictions = fit_and_predict(config, grid, run_idx)
    return nmse(grid.truth, predictions, grid.p_bar), model.missing


def _run_safely(config, grid, run_idx):
    try:
        return run_once(config, grid, run_idx), None
    except (SolverError, np.linalg.LinAlgError) as exc:
        return None, f"{type(exc).__name__}: {exc}"


def _run_index(configs, grid, run_idx):
    """Run ``run_idx`` of every config that has one (None for the others)."""
    return [_run_safely(c, grid, run_idx) if run_idx < c.runs else None for c in configs]


# The grid of a run_experiments pool's worker process, shipped once by the
# pool initializer; the worker's locb runs add their rows to its AnchorSet.
_worker_grid = None


def _set_worker_grid(grid):
    global _worker_grid
    _worker_grid = grid


def _run_in_worker(task):
    configs, run_idx = task
    return _run_index(configs, _worker_grid, run_idx)


def _summarize(outcomes):
    """NmseResult of one config's (result, error) outcomes in run order."""
    values, missing, failed = [], [], 0
    for run_idx, (result, error) in enumerate(outcomes):
        if error is None:
            values.append(result[0])
            missing.append(result[1])
        else:
            failed += 1
            log.warning("run %d excluded: %s", run_idx, error)
    if not values:
        raise SolverError("every Monte Carlo run failed")
    values = np.asarray(values)
    return NmseResult(
        mean=float(values.mean()),
        std=float(values.std(ddof=1)) if len(values) > 1 else 0.0,
        per_run=tuple(values.tolist()),
        failed=failed,
        avg_missing=float(np.mean(missing)),
    )


def run_experiments(configs, grid, jobs=1):
    """Monte Carlo NMSE of estimator configurations that share ``grid``:
    one NmseResult per config, in order.

    Runs are seeded ``config.seed + run_index`` and are order-insensitive;
    failed runs are excluded and counted.  The loop over run indices is the
    outer one, so the configs of one run index that draw the same world
    (same scenario, seed + run index, N and noise options) read it drawn
    once.  ``grid`` is the configs' PrecomputedGrid; sharing it amortizes
    the scenario tables, and the rows its AnchorSet solves, across configs.
    With ``jobs`` > 1 one pool of at most one worker per run index serves
    the call: each worker gets the grid once, and a task is one run index
    of every config.  A serial call releases the held world on return, so
    a finished sweep keeps no world.
    """
    global _held
    configs = list(configs)
    indices = range(max(config.runs for config in configs))
    if jobs > 1:
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(indices)), initializer=_set_worker_grid, initargs=(grid,)
        ) as pool:
            by_run = list(pool.map(_run_in_worker, [(configs, i) for i in indices]))
    else:
        by_run = [_run_index(configs, grid, i) for i in indices]
        _held = None
    return [
        _summarize(outcomes[:config.runs])
        for config, outcomes in zip(configs, zip(*by_run))
    ]


def run_experiment(config, grid, jobs=1):
    """Monte Carlo NMSE of one estimator configuration: run_experiments of
    the one config."""
    return run_experiments([config], grid, jobs)[0]
