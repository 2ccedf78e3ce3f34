import json

import numpy as np
import pytest

from locfree import experiments, localization
from locfree.errors import ConfigurationError
from locfree.experiments import (
    LOCB_TUNED,
    LOCF_TUNED,
    PRESETS,
    default_gamma_sweep,
    run_preset,
)
from locfree.io import write_map_csv, write_pgm, write_results_csv
from locfree.evaluation import precompute_grid


def test_parameter_tables_cover_all_bandwidths():
    for table in (LOCF_TUNED, LOCB_TUNED):
        assert set(table) == {20e6, 50e6, 100e6, 200e6, 700e6}
        for sigma, lam in table.values():
            assert sigma > 0 and lam > 0


def test_unknown_preset_raises_configuration_error(tmp_path):
    with pytest.raises(ConfigurationError, match="unknown experiment preset"):
        run_preset("fig1-nope", str(tmp_path))


def test_preset_names():
    assert set(PRESETS) == {
        "fig4-maps",
        "fig5-featuremaps",
        "fig6-nmse-vs-N",
        "fig7-nmse-vs-walls",
        "fig8-nmse-vs-M",
        "fig10-reduced",
        "fig11-missing",
    }


def test_default_gamma_sweep_starts_below_every_pair_power(indoor_grid):
    sweep = default_gamma_sweep(indoor_grid)
    assert sweep[0] < indoor_grid.pilot_powers.min()
    assert all(a < b for a, b in zip(sweep, sweep[1:]))


def test_fig4_maps_preset_writes_artifacts(tmp_path, monkeypatch):
    """The locb map localizes the training pilots once, in its fit, and the
    query grid once; locb_locations.csv reuses the fit's estimates."""
    calls = []
    original = localization.localize_batch

    def counted(*args, **kwargs):
        calls.append(args[1].shape[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(localization, "localize_batch", counted)
    out = tmp_path / "fig4"
    summary = run_preset("fig4-maps", str(out), seed=0)
    assert calls == [300, 2375]
    for name in (
        "true_map.csv",
        "true_map.pgm",
        "locf_map.csv",
        "locf_map.pgm",
        "locb_map.csv",
        "locb_map.pgm",
        "locb_locations.csv",
        "summary.json",
    ):
        assert (out / name).exists(), name
    assert summary["locf_nmse"] < summary["locb_nmse"]  # degraded baseline map
    doc = json.loads((out / "summary.json").read_text())
    assert doc["n_train"] == 300


def test_results_csv_format(tmp_path):
    path = tmp_path / "results.csv"
    write_results_csv([("locf", 100, 0, 0.25), ("locb", 100, 1, 1.5)], path)
    lines = path.read_text().strip().splitlines()
    assert lines == ["estimator,N,run,nmse", "locf,100,0,0.25", "locb,100,1,1.5"]


def test_map_csv_and_pgm_round_trip(tmp_path, indoor_grid):
    rng = np.random.default_rng(0)
    predictions = rng.normal(-50, 3, size=len(indoor_grid.points))
    csv_path = tmp_path / "map.csv"
    write_map_csv(indoor_grid, predictions, csv_path)
    lines = csv_path.read_text().strip().splitlines()
    ny, nx = indoor_grid.shape
    assert lines[0] == "x,y,true_dbw,pred_dbw"
    assert len(lines) == 1 + ny * nx
    # excluded lattice cells serialize as empty fields
    assert any(line.endswith(",,") or ",," in line for line in lines[1:])

    from locfree.io import lattice_field

    pgm_path = tmp_path / "map.pgm"
    write_pgm(indoor_grid, predictions, pgm_path)
    blob = pgm_path.read_bytes()
    header = f"P5\n{nx} {ny}\n255\n".encode()
    assert blob.startswith(header)
    pixels = np.frombuffer(blob[len(header):], dtype=np.uint8)
    assert pixels.size == nx * ny
    field = lattice_field(indoor_grid, predictions)
    assert np.all(pixels[~np.isfinite(field.ravel())] == 0)  # holes are black
    assert pixels.max() == 255 and pixels[np.isfinite(field.ravel())].min() >= 1


def test_sweep_artifacts_match_entries_run_alone(tmp_path):
    """fig11-missing at jobs 1 and 2 writes the same bytes, and every
    entry's runs score as that entry alone on a fresh grid, where no run
    reads another entry's world."""
    from locfree.evaluation import run_experiments

    outputs = []
    for jobs in (1, 2):
        run_preset("fig11-missing", str(tmp_path / f"j{jobs}"), runs=2, seed=3, jobs=jobs)
        outputs.append([(tmp_path / f"j{jobs}" / name).read_bytes()
                        for name in ("results.csv", "summary.json")])
    assert outputs[0] == outputs[1]
    summary = json.loads(outputs[0][1])
    entries = experiments.SWEEPS["fig11-missing"](2, 3)
    assert [label for label, _ in entries] == [key for key in summary if key != "gamma_sweep_dbw"]
    for label, config in entries:
        alone = run_experiments([config], grid=precompute_grid(config.scenario))[0]
        assert tuple(summary[label]["per_run"]) == alone.per_run, label
