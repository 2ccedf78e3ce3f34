import inspect
import json
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from locfree.cli import _build_parser, _experiment_config, main
from locfree.scenario import preset, save_scenario, scenario_to_dict


def run_cli(*argv):
    return main(list(argv))


def test_scenario_preset_writes_artifacts(tmp_path):
    out = tmp_path / "scn"
    assert run_cli("scenario", "--preset", "freespace", "--out", str(out)) == 0
    assert (out / "freespace.json").exists()
    assert (out / "freespace_true_map.csv").exists()
    pgm = (out / "freespace_true_map.pgm").read_bytes()
    assert pgm.startswith(b"P5\n60 40\n255\n")
    header = (out / "freespace_true_map.csv").read_text().splitlines()[0]
    assert header == "x,y,power_dbw"


def test_scenario_writes_the_precomputed_grid_files(tmp_path, monkeypatch):
    """scenario reads the grid's powers only, so it synthesizes no channel
    taps, and writes the true-map files that the grid of precompute_grid
    gives, byte for byte."""
    from locfree import io, propagation
    from locfree.evaluation import precompute_grid

    grid = precompute_grid(preset("indoor-fig4"))
    io.write_truth_csv(grid, tmp_path / "true_map.csv")
    io.write_pgm(grid, grid.truth, tmp_path / "true_map.pgm")

    def refuse(*args, **kwargs):
        raise AssertionError("scenario synthesized grid channels")

    monkeypatch.setattr(propagation, "_batch_channels", refuse)
    out = tmp_path / "scn"
    assert run_cli("scenario", "--preset", "indoor-fig4", "--out", str(out)) == 0
    for suffix in ("csv", "pgm"):
        written = (out / f"indoor-fig4_true_map.{suffix}").read_bytes()
        assert written == (tmp_path / f"true_map.{suffix}").read_bytes()


def test_scenario_requires_preset_or_config(tmp_path, capsys, monkeypatch):
    """The parser exits 2, naming both options, before any output directory
    is made."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run_cli("scenario", "--out", "out")
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--preset" in err and "--config" in err
    assert not (tmp_path / "out").exists()


def test_invalid_json_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("fit", "--config", str(bad)) == 2
    assert "cannot parse JSON" in capsys.readouterr().err


def test_missing_field_named_in_diagnostic(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"estimator": "locf"}))
    assert run_cli("fit", "--config", str(cfg)) == 2
    assert "scenario" in capsys.readouterr().err


def test_unknown_config_field_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "freespace", "bad_field": 1}))
    assert run_cli("fit", "--config", str(cfg)) == 2
    assert "bad_field" in capsys.readouterr().err


_INLINE = scenario_to_dict(preset("indoor-fig4"))


@pytest.mark.parametrize(
    "doc, field",
    [
        ({"scenario": {"preset": "indoor-fig4", "n_transmitters": "5"}}, "n_transmitters"),
        ({"scenario": "indoor-fig4", "mu": None}, "mu"),
        ({"scenario": {"preset": "indoor-fig4", "wall_cout": 2}}, "wall_cout"),
        ({"scenario": "indoor-fig4", "center_targets": "false"}, "center_targets"),
        ({"scenario": "indoor-fig4", "n_train": 50.7}, "n_train"),
        ({"scenario": {"preset": "freespace", "wall_count": 3}}, "wall_count"),
        ({"scenario": {**_INLINE, "wals": _INLINE["walls"]}}, "wals"),
        ({"scenario": {**_INLINE, "walls": [{**_INLINE["walls"][0], "loss": 30}]}}, "loss"),
        ({"scenario": {**_INLINE, "num_samples": 10.7}}, "num_samples"),
        ({"scenario": {**_INLINE, "carrier_hz": "8e8"}}, "carrier_hz"),
        ({"scenario": {**_INLINE, "noise_dbm": True}}, "noise_dbm"),
        ({"scenario": {**_INLINE, "region": [0, 0, 60, 40]}}, "region"),
        ({"scenario": {"path": "scenario.json", "seed": 4}}, "seed"),
        ({"scenario": {"preset": "indoor-fig4", "seed": 4}}, "seed"),
        ({"scenario": {"path": "missing.json"}}, "missing.json"),
        ({"scenario": "indoor-fig4", "grid_step": 0}, "grid_step"),
        ({"scenario": "indoor-fig4", "estimator": "locf_reduced", "rank": 0}, "rank"),
        ({"scenario": "indoor-fig4", "n_features": 11}, "n_features must lie in 1..M"),
        ({"scenario": "indoor-fig4", "mu": 0}, "mu"),
        ({"scenario": "indoor-fig4", "gamma_dbw": float("inf")}, "gamma_dbw"),
        ({"scenario": "indoor-fig4", "lambda": float("inf")}, "lam must be finite"),
        ({"scenario": "indoor-fig4", "mu": float("inf")}, "mu must be finite"),
        ({"scenario": "indoor-fig4", "sigma": float("-inf")}, "sigma must be finite"),
        ({"scenario": "indoor-fig4", "lambda_loc": float("-inf")}, "lam_loc must be finite"),
        ({"scenario": "indoor-fig4", "sigma_loc": float("inf")}, "sigma_loc must be finite"),
        ({"scenario": "indoor-fig4", "sigma": float("nan")}, "field 'sigma' must not be NaN"),
        ({"scenario": {**_INLINE, "carrier_hz": float("nan")}},
         "field 'carrier_hz' must not be NaN"),
        ({"scenario": "indoor-fig4", "noisy_query": False}, "unknown field 'noisy_query'"),
        ({"scenario": "indoor-fig4", "measurement_noise": False},
         "unknown field 'measurement_noise'"),
        ({"scenario": "indoor-fig4", "eta": 0.9}, "unknown field 'eta'"),
    ],
    ids=[
        "string-count", "null-mu", "misspelled-preset-key", "string-bool", "fractional-int",
        "freespace-walls", "inline-misspelled-key", "misspelled-wall-key",
        "fractional-num-samples", "string-carrier", "bool-noise", "list-region",
        "seed-next-to-path", "seed-in-preset-section", "missing-path-file",
        "zero-grid-step", "zero-rank", "n-features-above-m", "zero-mu",
        "infinite-gamma", "infinite-lambda", "infinite-mu", "minus-infinite-sigma",
        "minus-infinite-lambda-loc", "infinite-sigma-loc", "nan-sigma", "nan-carrier",
        "removed-noisy-query", "removed-measurement-noise", "removed-eta",
    ],
)
def test_bad_config_value_exits_2_before_any_work(doc, field, tmp_path, capsys, monkeypatch):
    """Each bad key is named, at any depth of the config or its scenario,
    before fit or experiment makes its output directory.  Paths are
    relative to tmp_path, which holds a valid scenario.json.  rank and
    n_features lie in 1..M, M = 10 pairs for indoor-fig4's 5 transmitters."""
    monkeypatch.chdir(tmp_path)
    save_scenario(preset("freespace"), tmp_path / "scenario.json")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    for argv in (["fit", "--config", str(cfg)], ["experiment", str(cfg)]):
        assert run_cli(*argv, "--out", str(out)) == 2
        assert field in capsys.readouterr().err
        assert not out.exists()


def test_config_values_keep_their_meaning():
    """Values their field's conversion keeps equal pass, converted; null
    passes where preset takes None."""
    config = _experiment_config({
        "scenario": {"preset": "freespace", "noise_dbm": None, "wall_count": None},
        "n_train": 50.0, "lambda": 1, "center_targets": True, "estimator": "locb",
    })
    assert type(config.n_train) is int and config.n_train == 50
    assert type(config.lam) is float and config.lam == 1.0
    assert config.center_targets is True and config.estimator == "locb"
    assert config.scenario.noise_variance == 0.0


def test_unknown_experiment_preset_lists_options(tmp_path, capsys):
    assert run_cli("experiment", "fig99-nothing", "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert "fig6-nmse-vs-N" in err and "fig11-missing" in err


def test_gamma_sweep_rejected_outside_fig11(tmp_path, capsys):
    out = tmp_path / "fig6"
    assert run_cli("experiment", "fig6-nmse-vs-N", "--gamma-sweep=-90", "--out", str(out)) == 2
    assert "fig11-missing" in capsys.readouterr().err
    assert not out.exists()


def test_gamma_sweep_rejected_for_config_experiment(tmp_path, capsys):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"scenario": "freespace", "n_train": 30, "runs": 1}))
    out = tmp_path / "out"
    assert run_cli("experiment", str(cfg), "--gamma-sweep=-90", "--out", str(out)) == 2
    assert "fig11-missing" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("gamma", ["-inf", "nan", "inf"])
def test_non_finite_gamma_sweep_rejected_before_tracing(gamma, tmp_path, capsys, monkeypatch):
    """A non-finite threshold exits 2 before fig11-missing traces its grid,
    so no run happens and neither results.csv nor summary.json is written."""
    from locfree import experiments

    def refuse(*args, **kwargs):
        raise AssertionError("fig11-missing traced its grid")

    monkeypatch.setattr(experiments, "precompute_grid", refuse)
    out = tmp_path / "fig11"
    argv = ("experiment", "fig11-missing", "--runs", "1", f"--gamma-sweep=-90,{gamma}")
    assert run_cli(*argv, "--out", str(out)) == 2
    assert "gamma_sweep thresholds must be finite" in capsys.readouterr().err
    assert not (out / "results.csv").exists() and not (out / "summary.json").exists()


@pytest.mark.parametrize("runs", ["0", "-2"])
def test_runs_below_one_rejected_for_monte_carlo_presets(runs, tmp_path, capsys):
    out = tmp_path / "fig6"
    assert run_cli("experiment", "fig6-nmse-vs-N", "--runs", runs, "--out", str(out)) == 2
    assert "runs must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name", ["fig4-maps", "fig5-featuremaps"])
def test_runs_rejected_for_map_presets(name, tmp_path, capsys):
    out = tmp_path / name
    assert run_cli("experiment", name, "--runs", "3", "--out", str(out)) == 2
    assert "Monte Carlo" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name", ["fig4-maps", "fig5-featuremaps"])
def test_jobs_rejected_where_ignored(name, tmp_path, capsys):
    """Only experiments take --jobs: the map presets exit 2 before creating
    their output directory, and the other subcommands do not parse it."""
    out = tmp_path / name
    assert run_cli("experiment", name, "--jobs", "2", "--out", str(out)) == 2
    assert "Monte Carlo" in capsys.readouterr().err
    assert not out.exists()
    cfg = _fit_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run_cli("fit", "--config", str(cfg), "--jobs", "4", "--out", str(out))
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_rejected(jobs, tmp_path, capsys):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"scenario": "freespace", "n_train": 30, "runs": 1}))
    out = tmp_path / "out"
    assert run_cli("experiment", str(cfg), "--jobs", jobs, "--out", str(out)) == 2
    assert "--jobs must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_readme_config_format_loads():
    """The README's fit/experiment config is a document the reader takes,
    each key landing on its ExperimentConfig field."""
    from locfree.cli import _CONFIG_FIELDS

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("A `fit`/`experiment` config is JSON:", 1)[1].split("```json", 1)[1]
    doc = json.loads(block.split("```", 1)[0])
    config = _experiment_config(doc)
    for key, value in doc.items():
        if key != "scenario":
            assert getattr(config, _CONFIG_FIELDS[key][0]) == value


@pytest.mark.parametrize(
    "argv",
    [["experiment", "fig4-maps", "--config", "cfg.json"],
     ["scenario", "--preset", "freespace", "--config", "cfg.json"]],
    ids=["experiment-config", "scenario-preset-and-config"],
)
def test_options_a_command_does_not_read_are_rejected(argv, tmp_path, capsys, monkeypatch):
    """experiment reads no --config, and scenario reads one of --preset and
    --config: the parser exits 2 before any output directory is made."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps("freespace"))
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, "--out", "out")
    assert exc.value.code == 2
    assert "--config" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_scenario_config_takes_no_seed(tmp_path, capsys):
    """No scenario draws from a seed, so scenario takes no --seed, next to
    --preset or --config: the parser exits 2 before any output directory."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"preset": "freespace"}))
    out = tmp_path / "out"
    for source in (["--preset", "indoor-fig4"], ["--config", str(cfg)]):
        with pytest.raises(SystemExit) as exc:
            run_cli("scenario", *source, "--seed", "3", "--out", str(out))
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()


def test_scenario_config_reads_a_scenario_section(tmp_path, monkeypatch):
    """scenario --config reads a scenario section: a preset name, a preset
    section, a path section and an inline document each write the true map
    of scenario --preset, byte for byte."""
    monkeypatch.chdir(tmp_path)
    assert run_cli("scenario", "--preset", "indoor-fig4", "--out", "preset") == 0
    expected = (tmp_path / "preset" / "indoor-fig4_true_map.csv").read_bytes()
    save_scenario(preset("indoor-fig4"), tmp_path / "scenario.json")
    sections = {
        "name": "indoor-fig4",
        "section": {"preset": "indoor-fig4"},
        "path": {"path": "scenario.json"},
        "inline": json.loads((tmp_path / "scenario.json").read_text()),
    }
    for name, section in sections.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(section))
        assert run_cli("scenario", "--config", f"{name}.json", "--out", name) == 0
        assert (tmp_path / name / f"{name}_true_map.csv").read_bytes() == expected


def test_readme_command_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("locfree ")]
    assert len(commands) >= 6
    parser = _build_parser()
    for argv in commands:
        parser.parse_args(argv)


def test_readme_lists_the_preset_section_keys():
    """The keys the README lists for a preset section are preset's keyword
    parameters, in order."""
    readme = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text().split())
    listed = readme.split("`preset`'s keyword arguments (", 1)[1].split(";", 1)[0]
    assert re.findall(r"`(\w+)`", listed) == list(inspect.signature(preset).parameters)[1:]


def _fit_config(tmp_path, **overrides):
    doc = {
        "scenario": {
            "preset": "freespace",
            "noise_dbm": None,
            "bandwidth_hz": 100e6,
        },
        "estimator": "locf",
        "n_train": 25,
        "seed": 3,
        "sigma": 40.0,
        "lambda": 0.0,
    }
    doc.update(overrides)
    path = tmp_path / "fit.json"
    path.write_text(json.dumps(doc))
    return path


def test_fit_writes_model_and_features(tmp_path):
    cfg = _fit_config(tmp_path, **{"lambda": 1e-4})
    out = tmp_path / "out"
    assert run_cli("fit", "--config", str(cfg), "--out", str(out)) == 0
    assert (out / "model.json").exists()
    lines = (out / "training_features.csv").read_text().splitlines()
    assert lines[0] == "x,y," + ",".join(f"f{i}" for i in range(1, 11))
    assert len(lines) == 26


def test_fit_draws_no_query_pilot_noise(tmp_path, monkeypatch):
    """The fit reads no query pilots, so only the training pilots get noise."""
    from locfree import evaluation

    shapes = []
    draw = evaluation.pilot_noise

    def spy(scenario, shape, rng):
        shapes.append(shape)
        return draw(scenario, shape, rng)

    monkeypatch.setattr(evaluation, "pilot_noise", spy)
    cfg = _fit_config(tmp_path)
    assert run_cli("fit", "--config", str(cfg), "--out", str(tmp_path / "out")) == 0
    assert [shape[0] for shape in shapes] == [25]


def test_fit_then_predict_reproduces_training_targets(tmp_path):
    """Interpolating fit (lambda=0, noiseless pilots): predicting at a
    training location returns the fit's own noisy measured target."""
    cfg = _fit_config(tmp_path)
    out = tmp_path / "out"
    assert run_cli("fit", "--config", str(cfg), "--out", str(out)) == 0

    feats = (out / "training_features.csv").read_text().splitlines()[1:]
    x, y = (float(v) for v in feats[0].split(",")[:2])

    points = tmp_path / "points.csv"
    points.write_text(f"{x},{y}\n")
    pred_out = tmp_path / "pred"
    assert (
        run_cli(
            "predict",
            "--model", str(out / "model.json"),
            "--config", str(cfg),
            "--points", str(points),
            "--out", str(pred_out),
        )
        == 0
    )
    pred = float((pred_out / "predictions.csv").read_text().splitlines()[1].split(",")[2])

    from locfree.cli import _experiment_config
    from locfree.evaluation import _draw_training, precompute_grid

    config = _experiment_config(json.loads(cfg.read_text()))
    noise_std = precompute_grid(config.scenario, config.grid_step).noise_std
    world = _draw_training(config, noise_std, 0)
    assert tuple(world.train_points[0]) == (x, y)
    assert pred == pytest.approx(world.targets[0], abs=1e-6)


def test_fit_rejects_completion_estimator(tmp_path, capsys):
    cfg = _fit_config(tmp_path, estimator="locf_completion")
    assert run_cli("fit", "--config", str(cfg)) == 2
    assert "experiment-only" in capsys.readouterr().err


def test_fit_rejects_feature_subset(tmp_path, capsys):
    """A model file holds no feature subset, so fit does not drop n_features."""
    cfg = _fit_config(tmp_path, n_features=4)
    assert run_cli("fit", "--config", str(cfg), "--out", str(tmp_path / "out")) == 2
    assert "n_features" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_predict_rejects_completion_estimator(tmp_path, capsys):
    cfg = _fit_config(tmp_path, **{"lambda": 1e-4})
    out = tmp_path / "out"
    assert run_cli("fit", "--config", str(cfg), "--out", str(out)) == 0
    cfg = _fit_config(tmp_path, estimator="locf_completion")
    argv = ["predict", "--model", str(out / "model.json"), "--config", str(cfg)]
    assert run_cli(*argv, "--out", str(tmp_path / "pred")) == 2
    assert "experiment-only" in capsys.readouterr().err
    assert not (tmp_path / "pred").exists()


_MODEL = {
    "format": "locfree-krr-map/1", "sigma": 40.0, "lambda": 0.0, "target_mean": 0.0,
    "features": [[0.0]] * 10, "alpha": [0.0], "basis": None,
}
# Orthonormal (10, 2) columns: a basis onto 2 reduced rows, not the model's 10.
_BASIS = {"mean": [0.0] * 10, "vectors": [[1.0, 0.0], [0.0, 1.0]] + [[0.0, 0.0]] * 8,
          "singular_values": [1.0, 1.0]}


@pytest.mark.parametrize(
    "model, points, named",
    [
        (None, None, "missing.json"),
        ({key: value for key, value in _MODEL.items() if key != "alpha"}, None, "alpha"),
        ([_MODEL], None, "model.json"),
        (_MODEL, ("nope.csv", None), "nope.csv"),
        ({**_MODEL, "features": [[0.0] * 3] * 10, "alpha": [0.0] * 2}, None, "alpha"),
        ({**_MODEL, "features": [[0.0]] * 9 + [[0.0, 1.0]]}, None, "features"),
        ({**_MODEL, "basis": _BASIS}, None, "vectors"),
        (_MODEL, ("points.csv", "10.0\n20.0\n"), "(n, 2)"),
        (_MODEL, ("points.csv", "10.0,10.0,1.0\n"), "(n, 2)"),
        (_MODEL, ("points.csv", "10.0,10.0\n100.0,10.0\n"), "inside the region"),
        (_MODEL, ("points.csv", "10.0,10.0\n3.5,20.0\n"), "wavelengths from every transmitter"),
        (_MODEL, ("points.csv", "lon,lat\n10.0,10.0\n"), "--points file points.csv"),
        (_MODEL, ("points.csv", ""), "--points file points.csv: no x,y rows"),
        (_MODEL, ("points.csv", "x,y\n"), "--points file points.csv: no x,y rows"),
    ],
    ids=["missing-model-file", "model-without-alpha", "list-model", "missing-points-file",
         "alpha-short-of-features", "ragged-features", "basis-vectors-off-features",
         "one-column-points", "three-column-points", "point-outside-the-region",
         "point-in-a-far-field-disc", "foreign-header-points", "empty-points",
         "header-only-points"],
)
def test_bad_predict_input_exits_2_before_any_work(model, points, named, tmp_path, capsys, monkeypatch):
    """A model or points file that predict cannot read is named, before the
    output directory is made and without a warning.  Paths are relative to
    tmp_path.  Points are at least one x,y row inside the region and outside
    the far-field discs (3 wavelengths, 1.12 m, around each transmitter, one
    at (3, 20)); a points file of None rows is not written."""
    monkeypatch.chdir(tmp_path)
    argv = ["predict", "--config", str(_fit_config(tmp_path)), "--out", "out"]
    if model is None:
        argv += ["--model", "missing.json"]
    else:
        (tmp_path / "model.json").write_text(json.dumps(model))
        argv += ["--model", "model.json"]
    if points is not None:
        name, rows = points
        if rows is not None:
            (tmp_path / name).write_text(rows)
        argv += ["--points", name]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(*argv) == 2
    assert [str(w.message) for w in caught] == []
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_fit_then_predict_locb_matches_in_process_predict(tmp_path):
    """locb through the CLI: the model equals the in-process fit, and the
    grid predictions equal predict_estimator on the same noisy pilots.  On
    the 1.5 m grid the query at (21.75, 15.75) has all range differences 0,
    so it cannot be localized and is written as an empty field."""
    from locfree.cli import _experiment_config
    from locfree.evaluation import (
        PilotSet, _draw_world, fit_estimator, precompute_grid, predict_estimator,
    )
    from locfree.kernels import save_model
    from locfree.propagation import pilot_noise

    doc = {
        "scenario": {"preset": "indoor-fig4"},
        "estimator": "locb",
        "n_train": 100,
        "seed": 3,
        "sigma_loc": 5.0,
        "lambda_loc": 3e-4,
        "center_targets": True,
        "grid_step": 1.5,
    }
    cfg = tmp_path / "locb.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run_cli("fit", "--config", str(cfg), "--out", str(out)) == 0
    pred_out = tmp_path / "pred"
    argv = ["predict", "--model", str(out / "model.json"), "--config", str(cfg)]
    assert run_cli(*argv, "--out", str(pred_out)) == 0

    config = _experiment_config(doc)
    grid = precompute_grid(config.scenario, config.grid_step)
    model, _ = fit_estimator(config, _draw_world(config, grid, 0))
    save_model(model.fitted, tmp_path / "in_process.json")
    assert (tmp_path / "in_process.json").read_bytes() == (out / "model.json").read_bytes()
    rng = np.random.default_rng(config.seed)
    pilots = grid.channels + pilot_noise(config.scenario, grid.channels.shape, rng)
    expected = predict_estimator(
        config, model, PilotSet(pilots, config.scenario.sample_period), grid.pilot_powers
    )

    rows = [row.split(",") for row in (pred_out / "predictions.csv").read_text().splitlines()[1:]]
    assert len(rows) == grid.points.shape[0]
    unlocalized = np.isnan(expected)
    assert grid.points[unlocalized].tolist() == [[21.75, 15.75]]
    assert [row[2] == "" for row in rows] == unlocalized.tolist()
    written = np.array([float(row[2]) for row in rows if row[2]])
    assert np.array_equal(written, expected[~unlocalized])


def test_fit_indoor_reference_parameters(tmp_path):
    """The historical feature-map configuration fits the indoor world."""
    doc = {
        "scenario": {"preset": "indoor-fig4"},
        "estimator": "locf",
        "n_train": 300,
        "seed": 4,
        "sigma": 37.0,
        "lambda": 1.9e-4,
    }
    cfg = tmp_path / "fit.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run_cli("fit", "--config", str(cfg), "--out", str(out)) == 0
    model = json.loads((out / "model.json").read_text())
    assert model["sigma"] == 37.0 and model["lambda"] == 1.9e-4
    assert len(model["alpha"]) == 300


def test_experiment_with_custom_config(tmp_path):
    doc = {
        "scenario": {"preset": "freespace", "bandwidth_hz": 20e6},
        "estimator": "locf",
        "n_train": 30,
        "runs": 2,
        "seed": 1,
        "sigma": 37.0,
        "lambda": 1.9e-4,
    }
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run_cli("experiment", str(cfg), "--out", str(out)) == 0
    rows = (out / "results.csv").read_text().splitlines()
    assert rows[0] == "estimator,N,run,nmse"
    assert len(rows) == 3
    summary = json.loads((out / "summary.json").read_text())
    assert "locf" in summary and len(summary["locf"]["per_run"]) == 2


def test_config_experiment_without_out_writes_next_to_the_config(tmp_path, monkeypatch):
    """Without --out, a config experiment writes to a directory named after
    the config file's stem, as ``scenario --config`` names its outputs."""
    monkeypatch.chdir(tmp_path)
    doc = {"scenario": {"preset": "freespace", "bandwidth_hz": 20e6}, "n_train": 30, "runs": 1}
    (tmp_path / "cfg.json").write_text(json.dumps(doc))
    assert run_cli("experiment", "cfg.json") == 0
    assert (tmp_path / "cfg" / "results.csv").exists()
    assert (tmp_path / "cfg" / "summary.json").exists()


@pytest.mark.parametrize(
    "argv, out, file",
    [
        (["scenario", "--preset", "freespace", "--out", "afile"], "afile", "afile"),
        (["fit", "--config", "cfg.json", "--out", "afile"], "afile", "afile"),
        (["predict", "--config", "cfg.json", "--model", "model.json", "--out", "afile"],
         "afile", "afile"),
        (["features", "--config", "cfg.json", "--out", "afile"], "afile", "afile"),
        (["experiment", "fig4-maps", "--out", "afile"], "afile", "afile"),
        (["experiment", "cfg.json", "--out", "afile"], "afile", "afile"),
        (["experiment", "cfg"], "cfg", "cfg"),
        (["fit", "--config", "cfg.json", "--out", "afile/sub/dir"], "afile/sub/dir", "afile"),
    ],
    ids=["scenario", "fit", "predict", "features", "experiment-preset", "experiment-config",
         "experiment-extensionless-config", "inside-a-file"],
)
def test_output_path_naming_a_file_exits_2_before_any_work(argv, out, file, tmp_path, capsys, monkeypatch):
    """An --out that names an existing file or a path inside one, or a config
    experiment's default --out (the config's stem) when that is the config
    file itself, is named before any grid is traced, world drawn or run
    started."""
    from locfree import cli

    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    for name in ("precompute_grid", "_draw_training", "simulate_points"):
        monkeypatch.setattr(cli, name, no_work)
    monkeypatch.setattr(cli.experiments, "run_preset", no_work)
    monkeypatch.setattr(cli.experiments, "_run_sweep", no_work)
    monkeypatch.chdir(tmp_path)
    doc = json.dumps({"scenario": "freespace", "n_train": 30, "runs": 1})
    for name in ("cfg.json", "cfg"):
        (tmp_path / name).write_text(doc)
    (tmp_path / "afile").write_text("")
    assert run_cli(*argv) == 2
    assert f"output directory {out}: {file} is an existing file" in capsys.readouterr().err
    assert (tmp_path / file).read_text() in ("", doc)


def test_features_command_serializes_missing_as_empty(tmp_path):
    doc = {
        "scenario": {"preset": "indoor-fig4"},
        "n_train": 8,
        "seed": 2,
        "gamma_dbw": -60.0,
    }
    cfg = tmp_path / "feat.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run_cli("features", "--config", str(cfg), "--out", str(out)) == 0
    lines = (out / "features.csv").read_text().splitlines()
    assert lines[0].startswith("x,y,f1")
    assert len(lines) == 9
    assert any(",," in line for line in lines[1:])  # at least one masked entry


def test_numerical_failure_exits_3(tmp_path, capsys):
    """An interpolating fit on a numerically singular Gram matrix."""
    doc = {
        "scenario": {"preset": "freespace", "noise_dbm": None},
        "estimator": "locf",
        "n_train": 150,
        "seed": 0,
        "sigma": 1e7,  # kernel sees every pair as identical -> singular K
        "lambda": 0.0,
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert run_cli("fit", "--config", str(cfg), "--out", str(tmp_path)) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_verbose_fig11_emits_svp_iteration_logs(tmp_path):
    out = tmp_path / "fig11"
    assert (
        run_cli(
            "experiment", "fig11-missing", "--out", str(out),
            "--runs", "1", "--gamma-sweep=-99,-80", "--verbose",
        )
        == 0
    )
    logs = sorted(out.glob("svp_gamma*.csv"))
    assert len(logs) == 2
    first = logs[0].read_text().splitlines()
    assert first[0] == "iter,residual"
    assert len(first) > 1


def test_predict_writes_query_points_bit_exactly(tmp_path):
    """The x,y columns of predictions.csv parse back to the query points.
    A points file that starts with the x,y header of the CLI's own CSVs
    predicts the same bytes as one without it."""
    cfg = _fit_config(tmp_path, **{"lambda": 1e-4})
    out = tmp_path / "out"
    assert run_cli("fit", "--config", str(cfg), "--out", str(out)) == 0
    query = [(0.1, 1.0 / 3.0), (12.345678901234567, 7.0), (41.5, 2.0 ** -20)]
    written = []
    for header in ("", "x,y\r\n"):
        points = tmp_path / f"points{len(header)}.csv"
        points.write_text(header + "".join(f"{x!r},{y!r}\n" for x, y in query))
        pred_out = tmp_path / f"pred{len(header)}"
        argv = ["predict", "--model", str(out / "model.json"), "--config", str(cfg)]
        assert run_cli(*argv, "--points", str(points), "--out", str(pred_out)) == 0
        written.append((pred_out / "predictions.csv").read_bytes())
    assert written[0] == written[1]
    rows = written[0].decode().splitlines()[1:]
    assert [tuple(float(v) for v in row.split(",")[:2]) for row in rows] == query


def test_fit_locb_writes_dropped_training_points_as_empty_fields(tmp_path):
    """Seed 1002 draws a training point that fails to localize; the fit
    still succeeds and writes one row per training point."""
    doc = {
        "scenario": {"preset": "indoor-fig4"},
        "estimator": "locb",
        "n_train": 300,
        "seed": 1002,
    }
    cfg = tmp_path / "fit.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run_cli("fit", "--config", str(cfg), "--out", str(out)) == 0
    lines = (out / "training_features.csv").read_text().splitlines()
    assert lines[0] == "x,y,f1,f2"
    assert len(lines) == 301
    assert any(line.endswith(",,") for line in lines[1:])


def test_predict_on_grid_matches_points_run_on_grid_points(tmp_path):
    """Without --points, predict evaluates the grid; the output equals a
    --points run on the grid's own points, byte for byte."""
    from locfree.cli import _experiment_config
    from locfree.propagation import evaluation_grid

    cfg = _fit_config(tmp_path, **{"lambda": 1e-4, "grid_step": 4.0})
    out = tmp_path / "out"
    assert run_cli("fit", "--config", str(cfg), "--out", str(out)) == 0
    config = _experiment_config(json.loads(cfg.read_text()))
    grid_points = evaluation_grid(config.scenario, config.grid_step)[0]
    points = tmp_path / "points.csv"
    points.write_text("".join(f"{x!r},{y!r}\n" for x, y in grid_points.tolist()))
    outputs = []
    for extra in ([], ["--points", str(points)]):
        pred_out = tmp_path / f"pred{len(extra)}"
        argv = ["predict", "--model", str(out / "model.json"), "--config", str(cfg)]
        assert run_cli(*argv, *extra, "--out", str(pred_out)) == 0
        outputs.append((pred_out / "predictions.csv").read_bytes())
    assert outputs[0].count(b"\n") == grid_points.shape[0] + 1
    assert outputs[0] == outputs[1]


def _fit_by_precomputed_grid(doc, out):
    """``locfree fit`` as a Monte Carlo run draws its world: the grid's
    channels read, its noise_std read, and the world drawn as a run draws
    it; the training half is drawn before the query noise."""
    from locfree import io
    from locfree.cli import _experiment_config
    from locfree.evaluation import _draw_world, fit_estimator, precompute_grid
    from locfree.kernels import save_model

    config = _experiment_config(doc)
    grid = precompute_grid(config.scenario, config.grid_step)
    world = _draw_world(config, grid, 0)
    model, columns = fit_estimator(config, world)
    out.mkdir()
    save_model(model.fitted, out / "model.json")
    io.write_feature_csv(world.train_points, columns, out / "training_features.csv")


@pytest.mark.parametrize("estimator", ["locf", "locb"])
def test_fit_writes_the_precomputed_grid_files(estimator, tmp_path):
    """Reading only the grid's powers changes no byte of what fit writes."""
    doc = {"scenario": {"preset": "indoor-fig4"}, "estimator": estimator, "n_train": 120,
           "seed": 11, "grid_step": 2.0}
    cfg = tmp_path / "fit.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run_cli("fit", "--config", str(cfg), "--out", str(out)) == 0
    _fit_by_precomputed_grid(doc, tmp_path / "reference")
    for name in ("model.json", "training_features.csv"):
        assert (out / name).read_bytes() == (tmp_path / "reference" / name).read_bytes()


def test_fit_traces_only_grid_powers(tmp_path, monkeypatch):
    """fit synthesizes channel taps only at the training points; the grid
    is traced for its mean power, which sets the measurement noise."""
    from locfree import evaluation, propagation

    traced, synthesized = [], []
    trace, synthesize = evaluation.simulate_points, propagation._batch_channels

    def spy_trace(scenario, points):
        traced.append(len(points))
        return trace(scenario, points)

    def spy_synthesize(scenario, rays):
        synthesized.append(rays[0][0].shape[0])
        return synthesize(scenario, rays)

    monkeypatch.setattr(evaluation, "simulate_points", spy_trace)
    monkeypatch.setattr(propagation, "_batch_channels", spy_synthesize)
    cfg = _fit_config(tmp_path, **{"lambda": 1e-4, "grid_step": 5.0})
    assert run_cli("fit", "--config", str(cfg), "--out", str(tmp_path / "out")) == 0
    assert traced == [96, 25]
    assert synthesized == [25]


def test_fit_on_an_empty_grid_exits_2(tmp_path, capsys):
    cfg = _fit_config(tmp_path, grid_step=1000.0)
    assert run_cli("fit", "--config", str(cfg), "--out", str(tmp_path / "out")) == 2
    assert "evaluation grid is empty" in capsys.readouterr().err


def test_locfree_loads_no_scipy():
    """locfree runs on numpy alone: in a fresh interpreter, importing the
    package, its CLI and every other module of it loads no scipy module."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import importlib, pkgutil, sys, locfree, locfree.cli\n"
            "for module in pkgutil.iter_modules(locfree.__path__):\n"
            "    importlib.import_module('locfree.' + module.name)\n"
            "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
