import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from locfree.cli import _build_parser, _experiment_config, main


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
    """scenario traces the grid's powers only, and writes the true-map files
    that the grid of precompute_grid gives, byte for byte."""
    from locfree import io, propagation
    from locfree.evaluation import precompute_grid
    from locfree.scenario import preset

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


def test_scenario_requires_preset_or_config(capsys):
    assert run_cli("scenario") == 2
    assert "configuration error" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "doc, field",
    [
        ({"scenario": {"preset": "indoor-fig4", "n_transmitters": "5"}}, "n_transmitters"),
        ({"scenario": "indoor-fig4", "eta": None}, "eta"),
        ({"scenario": {"preset": "indoor-fig4", "wall_cout": 2}}, "wall_cout"),
        ({"scenario": "indoor-fig4", "noisy_query": "false"}, "noisy_query"),
        ({"scenario": "indoor-fig4", "n_train": 50.7}, "n_train"),
    ],
    ids=["string-count", "null-eta", "misspelled-preset-key", "string-bool", "fractional-int"],
)
def test_bad_config_value_exits_2_before_any_work(doc, field, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run_cli("fit", "--config", str(cfg), "--out", str(out)) == 2
    assert field in capsys.readouterr().err
    assert not out.exists()


def test_config_values_keep_their_meaning():
    """Values their field's conversion keeps equal pass, converted; null
    passes where preset takes None."""
    config = _experiment_config({
        "scenario": {"preset": "freespace", "noise_dbm": None, "wall_count": None, "seed": 3},
        "n_train": 50.0, "lambda": 1, "noisy_query": False, "estimator": "locb",
    })
    assert type(config.n_train) is int and config.n_train == 50
    assert type(config.lam) is float and config.lam == 1.0
    assert config.noisy_query is False and config.estimator == "locb"
    assert config.scenario.noise_variance == 0.0 and config.scenario.seed == 3


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


def test_readme_command_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("locfree ")]
    assert len(commands) >= 6
    parser = _build_parser()
    for argv in commands:
        parser.parse_args(argv)


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
        "measurement_noise": False,
        "noisy_query": False,
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
    cfg = _fit_config(tmp_path, noisy_query=True)
    assert run_cli("fit", "--config", str(cfg), "--out", str(tmp_path / "out")) == 0
    assert [shape[0] for shape in shapes] == [25]


def test_fit_then_predict_reproduces_training_targets(tmp_path):
    """Interpolating fit (lambda=0, noiseless world): predicting at a
    training location returns the measured target."""
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
    from locfree.propagation import true_power

    config = _experiment_config(json.loads(cfg.read_text()))
    assert pred == pytest.approx(true_power(config.scenario, (x, y)), abs=1e-6)


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
        "measurement_noise": False,
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
    """The x,y columns of predictions.csv parse back to the query points."""
    cfg = _fit_config(tmp_path, **{"lambda": 1e-4})
    out = tmp_path / "out"
    assert run_cli("fit", "--config", str(cfg), "--out", str(out)) == 0
    query = [(0.1, 1.0 / 3.0), (12.345678901234567, 7.0), (41.5, 2.0 ** -20)]
    points = tmp_path / "points.csv"
    points.write_text("".join(f"{x!r},{y!r}\n" for x, y in query))
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
    rows = (pred_out / "predictions.csv").read_text().splitlines()[1:]
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

    cfg = _fit_config(tmp_path, **{"lambda": 1e-4, "grid_step": 4.0, "noisy_query": True})
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
    """``locfree fit`` as it ran on a full precompute_grid: the grid's
    channels traced, its noise_std read, and the world drawn as a run draws
    it without query noise."""
    from dataclasses import replace

    from locfree import io
    from locfree.cli import _experiment_config
    from locfree.evaluation import _draw_world, fit_estimator, precompute_grid
    from locfree.kernels import save_model

    config = _experiment_config(doc)
    grid = precompute_grid(config.scenario, config.grid_step)
    world = _draw_world(replace(config, noisy_query=False), grid, 0)
    model, columns = fit_estimator(config, world)
    out.mkdir()
    save_model(model.fitted, out / "model.json")
    io.write_feature_csv(world.train_points, columns, out / "training_features.csv")


@pytest.mark.parametrize("estimator", ["locf", "locb"])
def test_fit_writes_the_precomputed_grid_files(estimator, tmp_path):
    """The power-only grid trace changes no byte of what fit writes."""
    doc = {"scenario": {"preset": "indoor-fig4"}, "estimator": estimator, "n_train": 120,
           "seed": 11, "grid_step": 2.0}
    cfg = tmp_path / "fit.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run_cli("fit", "--config", str(cfg), "--out", str(out)) == 0
    _fit_by_precomputed_grid(doc, tmp_path / "reference")
    for name in ("model.json", "training_features.csv"):
        assert (out / name).read_bytes() == (tmp_path / "reference" / name).read_bytes()


@pytest.mark.parametrize("noise", [True, False])
def test_fit_traces_grid_powers_only_for_measurement_noise(noise, tmp_path, monkeypatch):
    """fit traces channels only at the training points; the grid gets a
    power-only trace when measurement noise needs its mean, else none."""
    from locfree import evaluation

    traced = []
    for name in ("simulate_points", "simulate_powers"):
        original = getattr(evaluation, name)

        def spy(scenario, points, *args, _name=name, _original=original, **kwargs):
            traced.append((_name, len(points)))
            return _original(scenario, points, *args, **kwargs)

        monkeypatch.setattr(evaluation, name, spy)
    cfg = _fit_config(tmp_path, **{"lambda": 1e-4, "grid_step": 5.0, "measurement_noise": noise})
    assert run_cli("fit", "--config", str(cfg), "--out", str(tmp_path / "out")) == 0
    grid = [("simulate_powers", 96)] if noise else []
    assert traced == grid + [("simulate_points", 25)]


@pytest.mark.parametrize("noise", [True, False])
def test_fit_on_an_empty_grid_exits_2(noise, tmp_path, capsys):
    cfg = _fit_config(tmp_path, grid_step=1000.0, measurement_noise=noise)
    assert run_cli("fit", "--config", str(cfg), "--out", str(tmp_path / "out")) == 2
    assert "evaluation grid is empty" in capsys.readouterr().err
