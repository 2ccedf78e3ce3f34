"""Named experiment presets and their artifact writers.

Each preset reproduces one figure-style study of the toolkit at desk
scale: maps, feature maps, NMSE sweeps over measurement count, wall
count, feature count, reduced rank, and the missing-feature threshold.
The Monte Carlo presets take their kernel widths and ridge weights from
the per-bandwidth ``*_TUNED`` tables below, fitted to this simulator so
that both estimators are compared at their best; their location-based
runs regress centered targets, so that query points isolated in feature
space fall back to the training mean instead of an arbitrary 0 dBW.
``fig4-maps`` renders with ExperimentConfig's defaults.
"""

import itertools
import os
from dataclasses import asdict

import numpy as np

from . import features, io
from .errors import ConfigurationError
from .evaluation import (
    ExperimentConfig,
    fit_and_predict,
    nmse,
    pair_min_power,
    precompute_grid,
    run_experiments,
)
from .propagation import pilot_noise
from .scenario import preset as scenario_preset

# Per-bandwidth kernel parameters (sigma in meters, lambda dimensionless),
# chosen at the nominal indoor scenario, N=300.
LOCF_TUNED = {
    20e6: (85.0, 6e-5),
    50e6: (70.0, 6e-5),
    100e6: (60.0, 3e-5),
    200e6: (53.0, 1.1e-5),
    700e6: (40.0, 1e-4),
}
LOCB_TUNED = {
    20e6: (5.0, 3e-4),
    50e6: (5.0, 3e-4),
    100e6: (4.5, 3e-4),
    200e6: (4.5, 3e-4),
    700e6: (4.0, 3e-4),
}

DEFAULT_RUNS = 20
_GAMMA_QUANTILES = (0.25, 0.4, 0.55)


def _locf_config(scenario, **overrides):
    sigma, lam = LOCF_TUNED.get(scenario.bandwidth_hz, LOCF_TUNED[20e6])
    base = dict(scenario=scenario, estimator="locf", sigma=sigma, lam=lam)
    base.update(overrides)
    return ExperimentConfig(**base)


def _locb_config(scenario, **overrides):
    sigma_loc, lam_loc = LOCB_TUNED.get(scenario.bandwidth_hz, LOCB_TUNED[20e6])
    base = dict(scenario=scenario, estimator="locb", sigma_loc=sigma_loc, lam_loc=lam_loc,
                center_targets=True)
    base.update(overrides)
    return ExperimentConfig(**base)


def _run_sweep(entries, out_dir, jobs, grids=None):
    """Run (label, config) pairs, write results.csv into out_dir (made if
    missing) and return the summary.

    Consecutive entries of one scenario share its grid and one
    run_experiments call, so they draw each of their common worlds once
    and, with ``jobs`` > 1, share the rows their workers' AnchorSets
    solve.  A group's grid is taken from ``grids`` (keyed by id(scenario))
    or computed, and is dropped when the group ends."""
    os.makedirs(out_dir, exist_ok=True)
    rows = []
    summary = {}
    for key, group in itertools.groupby(entries, key=lambda entry: id(entry[1].scenario)):
        group = list(group)
        grid = (grids or {}).get(key)
        if grid is None:
            grid = precompute_grid(group[0][1].scenario, group[0][1].grid_step)
        results = run_experiments([config for _, config in group], grid, jobs)
        for (label, config), result in zip(group, results):
            summary[label] = asdict(result)
            for run, value in enumerate(result.per_run):
                rows.append((label, config.n_train, run, value))
    io.write_results_csv(rows, os.path.join(out_dir, "results.csv"))
    return summary


def _render_single_fit(config, grid, out_dir, tag):
    """Fit once (run 0) and export the predicted map as CSV + PGM."""
    world, model, predictions = fit_and_predict(config, grid, 0)
    io.write_map_csv(grid, predictions, os.path.join(out_dir, f"{tag}_map.csv"))
    io.write_pgm(grid, predictions, os.path.join(out_dir, f"{tag}_map.pgm"))
    return world, model, nmse(grid.truth, predictions, grid.p_bar)


def run_fig4_maps(out_dir, seed=0):
    """True map plus feature-based and location-based estimates, N=300."""
    scenario = scenario_preset("indoor-fig4")
    grid = precompute_grid(scenario)
    io.write_truth_csv(grid, os.path.join(out_dir, "true_map.csv"))
    io.write_pgm(grid, grid.truth, os.path.join(out_dir, "true_map.pgm"))
    summary = {"scenario": "indoor-fig4", "n_train": 300, "seed": seed}
    cfg_f = ExperimentConfig(scenario, n_train=300, runs=1, seed=seed)
    _, _, nmse_f = _render_single_fit(cfg_f, grid, out_dir, "locf")
    summary["locf_nmse"] = nmse_f
    cfg_b = ExperimentConfig(scenario, estimator="locb", n_train=300, runs=1, seed=seed)
    world, model, nmse_b = _render_single_fit(cfg_b, grid, out_dir, "locb")
    summary["locb_nmse"] = nmse_b
    io.write_location_csv(
        os.path.join(out_dir, "locb_locations.csv"),
        world.train_points, model.located.estimates, model.located.residuals,
    )
    return summary


def run_fig5_featuremaps(out_dir, seed=0):
    """Maps of the M = L(L-1)/2 pairwise features over the whole region."""
    scenario = scenario_preset("indoor-fig4")
    grid = precompute_grid(scenario)
    rng = np.random.default_rng(seed)
    pilots = grid.channels + pilot_noise(scenario, grid.channels.shape, rng)
    matrix = features.feature_matrix_nosync(pilots, scenario.sample_period)
    io.write_feature_csv(grid.points, matrix, os.path.join(out_dir, "features.csv"))
    for m in range(matrix.shape[0]):
        io.write_pgm(grid, matrix[m], os.path.join(out_dir, f"feature_{m + 1:02d}.pgm"))
    return {
        "scenario": "indoor-fig4",
        "n_features": int(matrix.shape[0]),
        "feature_csv": "features.csv",
    }


def _nmse_vs_n(runs, seed):
    """Feature-based vs location-based NMSE over the measurement count."""
    scenario = scenario_preset("indoor-fig4")
    entries = []
    for n in (100, 150, 200, 300):
        entries.append((f"locf_n{n}", _locf_config(scenario, n_train=n, runs=runs, seed=seed)))
        entries.append((f"locb_n{n}", _locb_config(scenario, n_train=n, runs=runs, seed=seed)))
    return entries


def _nmse_vs_walls(runs, seed):
    """NMSE as the wall count grows, at 200 MHz pilot bandwidth."""
    common = dict(n_train=300, runs=runs, seed=seed)
    entries = []
    for walls in range(6):
        scenario = scenario_preset("indoor-dense", bandwidth_hz=200e6, wall_count=walls)
        entries.append((f"locf_w{walls}", _locf_config(scenario, **common)))
        entries.append((f"locb_w{walls}", _locb_config(scenario, **common)))
    return entries


def _nmse_vs_m(runs, seed):
    """NMSE over the number of raw features used (random subsets per run)."""
    scenario = scenario_preset("indoor-fig4")
    return [
        (f"locf_m{m}_n{n}", _locf_config(scenario, n_train=n, runs=runs, seed=seed, n_features=m))
        for n in (150, 300)
        for m in (2, 4, 6, 8, 10)
    ]


def _reduced(runs, seed):
    """Full features vs rank-reduced features on the denser indoor scenario."""
    scenario = scenario_preset("indoor-dense")
    common = dict(n_train=300, runs=runs, seed=seed)
    return [("locf_full", _locf_config(scenario, **common))] + [
        (f"locf_r{rank}", _locf_config(scenario, estimator="locf_reduced", rank=rank, **common))
        for rank in (2, 3, 4)
    ]


def default_gamma_sweep(grid):
    """Sensitivity thresholds spanning "nothing missing" to "many missing".

    The first point sits below the weakest pair power on the evaluation
    grid; the rest are _GAMMA_QUANTILES of the per-pair minimum pilot power.
    """
    pair_min = pair_min_power(grid.pilot_powers)
    lo = float(pair_min.min()) - 5.0
    return [lo] + [float(np.quantile(pair_min, q)) for q in _GAMMA_QUANTILES]


def _missing(runs, seed, gamma_sweep=None, diagnostics_dir=None, grids=None):
    """Missing-feature handling: NMSE and miss counts over the threshold.

    The grid is traced here, once: it sets the default ``gamma_sweep``, and
    a ``grids`` dict given receives it under id(scenario) for _run_sweep.
    """
    if gamma_sweep is not None and not np.all(np.isfinite(gamma_sweep)):
        raise ConfigurationError(f"gamma_sweep thresholds must be finite, got {list(gamma_sweep)}")
    scenario = scenario_preset("indoor-fig4")
    grid = precompute_grid(scenario)
    if grids is not None:
        grids[id(scenario)] = grid
    if gamma_sweep is None:
        gamma_sweep = default_gamma_sweep(grid)
    common = dict(n_train=300, runs=runs, seed=seed)
    completion = dict(estimator="locf_completion", rank=scenario.n_transmitters - 1,
                      diagnostics_dir=diagnostics_dir, **common)
    return [("locf_baseline", _locf_config(scenario, **common))] + [
        (f"completion_g{idx}", _locf_config(scenario, gamma_dbw=gamma, **completion))
        for idx, gamma in enumerate(gamma_sweep)
    ]


MAPS = {
    "fig4-maps": run_fig4_maps,
    "fig5-featuremaps": run_fig5_featuremaps,
}
# The (label, config) entries each Monte Carlo preset runs: SWEEPS[name](runs, seed).
SWEEPS = {
    "fig6-nmse-vs-N": _nmse_vs_n,
    "fig7-nmse-vs-walls": _nmse_vs_walls,
    "fig8-nmse-vs-M": _nmse_vs_m,
    "fig10-reduced": _reduced,
    "fig11-missing": _missing,
}
PRESETS = (*MAPS, *SWEEPS)


def run_preset(name, out_dir, runs=None, seed=0, jobs=None, gamma_sweep=None,
               verbose=False):
    """Run a named experiment preset and write its artifacts into out_dir.

    A Monte Carlo preset runs the entries of SWEEPS[name] through
    _run_sweep.  Only the missing-feature preset takes ``gamma_sweep``;
    with ``verbose`` it also dumps per-run SVP iteration logs
    (iter,residual CSVs) into out_dir.  The map presets fit once, so they
    take no ``runs`` or ``jobs``.
    """
    if name not in PRESETS:
        raise ConfigurationError(
            f"unknown experiment preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        )
    fig11 = name == "fig11-missing"
    if gamma_sweep is not None and not fig11:
        raise ConfigurationError(f"gamma_sweep applies only to fig11-missing, not {name}")
    if name in SWEEPS:
        grids, options = {}, {}
        if fig11:
            options = dict(gamma_sweep=gamma_sweep, grids=grids,
                           diagnostics_dir=out_dir if verbose else None)
        entries = SWEEPS[name](DEFAULT_RUNS if runs is None else runs, seed, **options)
        # _run_sweep makes out_dir once its configs are checked
        summary = _run_sweep(entries, out_dir, jobs or 1, grids)
        if fig11:
            summary["gamma_sweep_dbw"] = [config.gamma_dbw for _, config in entries
                                          if config.estimator == "locf_completion"]
    else:
        for option, value in (("runs", runs), ("jobs", jobs)):
            if value is not None:
                raise ConfigurationError(f"{option} applies only to Monte Carlo presets, not {name}")
        os.makedirs(out_dir, exist_ok=True)
        summary = MAPS[name](out_dir, seed)
    io.write_summary_json(summary, os.path.join(out_dir, "summary.json"))
    return summary
