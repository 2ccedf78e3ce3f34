"""Command-line front end.

Subcommands: ``scenario`` (generate a world and its ground-truth map),
``fit`` (train and persist a map), ``predict`` (evaluate a persisted map),
``experiment`` (named Monte Carlo presets), ``features`` (dump extracted
features at random sensor locations).

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

import argparse
import inspect
import json
import logging
import os
import sys
import warnings
from dataclasses import fields

import numpy as np

from . import experiments, io, kernels
from .errors import ConfigurationError, SolverError
from .evaluation import (
    ExperimentConfig,
    Model,
    PilotSet,
    _draw_training,
    fit_estimator,
    mask_features,
    precompute_grid,
    predict_estimator,
)
from .propagation import evaluation_grid, pilot_noise, simulate_points
from .scenario import (
    SCENARIO_PRESETS,
    keyword_args,
    load_scenario,
    preset,
    read_json,
    save_scenario,
    scenario_from_dict,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _scenario_from_config(doc):
    """Scenario from a config section: preset name, file path, or inline.
    A preset section's other keys are preset's keyword arguments; a path
    section has only ``path``."""
    if isinstance(doc, str):
        doc = {"preset": doc}
    if not isinstance(doc, dict):
        raise ConfigurationError("scenario section must be a name, path or object")
    if "preset" in doc:
        params = list(inspect.signature(preset).parameters.values())[1:]
        schema = {p.name: (p.name, p.annotation) for p in params}
        return preset(doc["preset"], **keyword_args(doc, schema, skip="preset"))
    if "path" in doc:
        return load_scenario(keyword_args(doc, {"path": ("path", str)})["path"])
    return scenario_from_dict(doc)


# JSON key -> (ExperimentConfig field, type) for every field but the
# scenario (its own section) and diagnostics_dir (set by the preset runners).
_CONFIG_FIELDS = {
    {"lam": "lambda", "lam_loc": "lambda_loc"}.get(f.name, f.name): (f.name, f.type)
    for f in fields(ExperimentConfig)
    if f.name not in ("scenario", "diagnostics_dir")
}


def _experiment_config(doc, **overrides):
    """ExperimentConfig of a config document; the ``overrides`` that are not
    None (command-line flags) replace their fields."""
    kwargs = keyword_args(doc, _CONFIG_FIELDS, skip="scenario", required=("scenario",))
    scenario = _scenario_from_config(doc["scenario"])
    kwargs.update((key, value) for key, value in overrides.items() if value is not None)
    return ExperimentConfig(scenario=scenario, **kwargs)


def cmd_scenario(args):
    if args.preset is not None:
        scn = preset(args.preset)
        name = args.preset
    else:
        scn = _scenario_from_config(read_json(args.config))
        name = os.path.splitext(os.path.basename(args.config))[0]
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    save_scenario(scn, os.path.join(out, f"{name}.json"))
    grid = precompute_grid(scn)  # the writers read no channel, so none is synthesized
    io.write_truth_csv(grid, os.path.join(out, f"{name}_true_map.csv"))
    io.write_pgm(grid, grid.truth, os.path.join(out, f"{name}_true_map.pgm"))
    print(f"wrote {name}.json, {name}_true_map.csv, {name}_true_map.pgm in {out}")
    return EXIT_OK


def _serving_config(args, command):
    """Config of ``fit``/``predict``: only estimators a model file can hold."""
    config = _experiment_config(read_json(args.config), seed=args.seed)
    if config.estimator == "locf_completion":
        raise ConfigurationError(
            f"estimator 'locf_completion' is experiment-only; {command} supports "
            "locf, locf_reduced and locb"
        )
    if config.n_features is not None:
        raise ConfigurationError(
            f"n_features is experiment-only; {command} uses all feature pairs"
        )
    return config


def cmd_fit(args):
    config = _serving_config(args, "fit")
    # The fit reads no grid taps and no query pilots, so it synthesizes
    # none and draws no query noise.  The grid only sets the measurement
    # noise, from its mean power, and is not traced when there is none.
    if config.measurement_noise:
        noise_std = precompute_grid(config.scenario, config.grid_step).noise_std
    else:
        evaluation_grid(config.scenario, config.grid_step)  # an empty grid still exits 2
        noise_std = 0.0
    world = _draw_training(config, noise_std, 0)
    model, columns = fit_estimator(config, world)
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    model_path = os.path.join(out, "model.json")
    kernels.save_model(model.fitted, model_path)
    io.write_feature_csv(
        world.train_points, columns, os.path.join(out, "training_features.csv")
    )
    print(f"wrote {model_path} and training_features.csv in {out}")
    return EXIT_OK


def cmd_predict(args):
    config = _serving_config(args, "predict")
    model = Model(kernels.load_model(args.model))
    scenario = config.scenario
    rng = np.random.default_rng(config.seed)
    if args.points is not None:
        try:  # skip the x,y header the CLI's own CSV writers put first
            with open(args.points, encoding="utf-8") as fh:
                header = fh.readline().rstrip("\r\n") == "x,y"
            with warnings.catch_warnings():  # a file without rows is named below
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                pts = np.loadtxt(args.points, delimiter=",", ndmin=2, skiprows=int(header))
        except (OSError, ValueError) as exc:
            raise ConfigurationError(f"cannot read --points file {args.points}: {exc}") from exc
        if pts.size == 0:
            raise ConfigurationError(f"cannot read --points file {args.points}: no x,y rows")
    else:
        pts = evaluation_grid(scenario, config.grid_step)[0]
    tables = simulate_points(scenario, pts)
    pilots = tables.channels
    if config.noisy_query:
        pilots = pilots + pilot_noise(scenario, pilots.shape, rng)
    values = predict_estimator(
        config, model, PilotSet(pilots, scenario.sample_period), tables.pilot_powers
    )
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "predictions.csv")
    io.write_predictions_csv(pts, values, path)
    print(f"wrote {path}")
    return EXIT_OK


def cmd_experiment(args):
    if args.jobs is not None and args.jobs < 1:
        raise ConfigurationError(f"--jobs must be at least 1, got {args.jobs}")
    gamma_sweep = None
    if args.gamma_sweep is not None:
        try:
            gamma_sweep = [float(v) for v in args.gamma_sweep.split(",")]
        except ValueError as exc:
            raise ConfigurationError(
                "--gamma-sweep expects comma-separated numbers"
            ) from exc
    out = args.out or args.name
    if args.name in experiments.PRESETS:
        summary = experiments.run_preset(
            args.name, out, runs=args.runs, seed=args.seed or 0,
            jobs=args.jobs, gamma_sweep=gamma_sweep, verbose=args.verbose,
        )
    elif os.path.exists(args.name):
        if gamma_sweep is not None:
            raise ConfigurationError("--gamma-sweep applies only to fig11-missing")
        config = _experiment_config(read_json(args.name), seed=args.seed, runs=args.runs)
        summary = experiments._run_sweep([(config.estimator, config)], out, args.jobs or 1)
        io.write_summary_json(summary, os.path.join(out, "summary.json"))
    else:
        raise ConfigurationError(
            f"unknown experiment {args.name!r}; presets: "
            + ", ".join(sorted(experiments.PRESETS))
        )
    print(json.dumps(summary, default=str))
    print(f"artifacts in {out}")
    return EXIT_OK


def cmd_features(args):
    config = _experiment_config(read_json(args.config), seed=args.seed)
    world = _draw_training(config, 0.0, 0)
    matrix = world.train.com
    if np.isfinite(config.gamma_dbw):
        incomplete = mask_features(matrix, world.train_powers, config.gamma_dbw)
        matrix = np.where(incomplete.observed, incomplete.values, np.nan)
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "features.csv")
    io.write_feature_csv(world.train_points, matrix, path)
    print(f"wrote {path}")
    return EXIT_OK


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="locfree",
        description="Location-free spectrum cartography toolkit",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="output directory")
    common.add_argument("--verbose", action="store_true")
    seeded = argparse.ArgumentParser(add_help=False, parents=[common])
    seeded.add_argument("--seed", type=int, default=None, help="RNG seed override")
    configured = argparse.ArgumentParser(add_help=False, parents=[seeded])
    configured.add_argument("--config", required=True, help="JSON config path")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scenario", parents=[common], help="generate a scenario + truth map")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", choices=SCENARIO_PRESETS)
    source.add_argument("--config", help="JSON scenario section path")
    p.set_defaults(func=cmd_scenario)

    p = sub.add_parser("fit", parents=[configured], help="fit and persist a power map")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", parents=[configured], help="evaluate a persisted map")
    p.add_argument("--model", required=True, help="model blob path")
    p.add_argument("--points", help="CSV of x,y query points (default: whole grid)")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("experiment", parents=[seeded], help="run a named preset or config")
    p.add_argument("name", help="preset name or config path")
    p.add_argument("--runs", type=int, default=None, help="Monte Carlo run count")
    p.add_argument("--jobs", type=int, default=None, help="parallel workers (Monte Carlo only)")
    p.add_argument("--gamma-sweep", default=None,
                   help="comma-separated sensitivity thresholds in dBW; use --gamma-sweep=-90,-80 for negative values")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("features", parents=[configured], help="dump extracted features")
    p.set_defaults(func=cmd_features)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except ValueError as exc:  # ConfigurationError is a ValueError
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SolverError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
