import itertools
import json
from dataclasses import fields
from pathlib import Path

import pytest

from locfree.errors import ConfigurationError
from locfree.scenario import (
    SCENARIO_PRESETS,
    Scenario,
    Transmitter,
    WallSegment,
    load_scenario,
    preset,
    samples_for_bandwidth,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)


def test_sample_period_is_derived():
    scn = preset("freespace", bandwidth_hz=20e6)
    assert scn.sample_period == 1.0 / 20e6


def test_transmitter_outside_region_rejected():
    with pytest.raises(ConfigurationError):
        Scenario(region=(0, 0, 10, 10), transmitters=(Transmitter(11.0, 5.0),))


def test_wall_outside_region_rejected():
    with pytest.raises(ConfigurationError):
        Scenario(
            region=(0, 0, 10, 10),
            walls=(WallSegment(1, 1, 20, 1),),
            transmitters=(Transmitter(5.0, 5.0),),
        )


def test_degenerate_wall_rejected_at_construction():
    with pytest.raises(ConfigurationError):
        WallSegment(1.0, 1.0, 1.0, 1.0)


def test_zero_transmitters_rejected():
    with pytest.raises(ConfigurationError):
        Scenario(region=(0, 0, 10, 10), transmitters=())


@pytest.mark.parametrize(
    "kwargs",
    [
        {"bandwidth_hz": 0.0},
        {"num_samples": 0},
        {"noise_variance": -1.0},
    ],
)
def test_invalid_rf_parameters_rejected(kwargs):
    with pytest.raises(ConfigurationError):
        Scenario(region=(0, 0, 10, 10), transmitters=(Transmitter(5, 5),), **kwargs)


def test_negative_pilot_power_rejected():
    with pytest.raises(ConfigurationError):
        Transmitter(1.0, 1.0, power_w=0.0)


def test_reflection_coefficient_bound_checked():
    with pytest.raises(ConfigurationError):
        WallSegment(0, 0, 1, 0, max_reflection=1.2)


def test_json_round_trip(tmp_path):
    path = tmp_path / "scn.json"
    for name, bandwidth, noise_dbm in itertools.product(
        SCENARIO_PRESETS, (20e6, 200e6), (-70.0, None)
    ):
        scn = preset(name, bandwidth_hz=bandwidth, noise_dbm=noise_dbm)
        save_scenario(scn, path)
        assert load_scenario(path) == scn


_MINIMAL = {
    "region": {"x_min": 0, "y_min": 0, "x_max": 60, "y_max": 40},
    "transmitters": [{"x": 3, "y": 20}],
    "carrier_hz": 8e8,
    "bandwidth_hz": 2e7,
    "num_samples": 10,
}
_WALL = {"x1": 30, "y1": 6.5, "x2": 30, "y2": 33.5}


def test_omitted_optional_keys_keep_their_meaning():
    """No walls, the dataclass defaults of loss_db, max_reflection and
    power_w, and noiseless pilots without noise_dbm."""
    expected = Scenario(
        region=(0.0, 0.0, 60.0, 40.0), transmitters=(Transmitter(3.0, 20.0, 1.0),),
        carrier_hz=8e8, bandwidth_hz=2e7, num_samples=10, noise_variance=0.0,
    )
    assert scenario_from_dict(_MINIMAL) == expected
    walled = scenario_from_dict({**_MINIMAL, "walls": [_WALL]})
    assert walled.walls == (WallSegment(30.0, 6.5, 30.0, 33.5, loss_db=6.0, max_reflection=0.7),)


def test_a_saved_seed_key_is_ignored(tmp_path):
    """Scenario files written while a scenario carried a seed label still
    load, equal to the same document without it."""
    path = tmp_path / "scn.json"
    path.write_text(json.dumps({**scenario_to_dict(preset("indoor-fig4")), "seed": 4}))
    assert load_scenario(path) == preset("indoor-fig4")
    assert scenario_from_dict({**_MINIMAL, "seed": 4}) == scenario_from_dict(_MINIMAL)
    assert "seed" not in scenario_to_dict(preset("indoor-fig4"))


@pytest.mark.parametrize(
    "doc, key",
    [({k: v for k, v in _MINIMAL.items() if k != key}, key) for key in _MINIMAL]
    + [
        ({**_MINIMAL, "region": {"x_min": 0, "y_min": 0, "x_max": 60}}, "y_max"),
        ({**_MINIMAL, "walls": [{"y1": 6.5, "x2": 30, "y2": 33.5}]}, "x1"),
        ({**_MINIMAL, "transmitters": [{"x": 3}]}, "y"),
    ],
)
def test_required_keys_stay_required(doc, key):
    with pytest.raises(ConfigurationError, match=f"missing required field '{key}'"):
        scenario_from_dict(doc)


def test_readme_scenario_format_loads():
    """The README's scenario file format is a document the reader takes."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("### Scenario file format", 1)[1].split("```json", 1)[1]
    doc = json.loads(block.split("```", 1)[0])
    assert json.loads(json.dumps(scenario_to_dict(scenario_from_dict(doc)))) == doc


def test_scenario_document_has_a_key_for_every_field():
    """A saved scenario drops no field: each init field of Scenario,
    WallSegment and Transmitter has its key (noise_variance as noise_dbm)."""
    doc = scenario_to_dict(preset("indoor-fig4"))
    renamed = {"noise_variance": "noise_dbm"}
    for cls, written in (
        (Scenario, doc), (WallSegment, doc["walls"][0]), (Transmitter, doc["transmitters"][0]),
    ):
        assert {renamed.get(f.name, f.name) for f in fields(cls) if f.init} == set(written)


def test_noise_dbm_null_means_zero_variance(tmp_path):
    scn = preset("freespace", noise_dbm=None)
    assert scn.noise_variance == 0.0
    path = tmp_path / "scn.json"
    save_scenario(scn, path)
    doc = json.loads(path.read_text())
    assert doc["noise_dbm"] is None
    assert load_scenario(path).noise_variance == 0.0


def test_noise_dbm_conversion():
    scn = preset("freespace", noise_dbm=-70.0)
    assert scn.noise_variance == pytest.approx(1e-10, rel=1e-12)


def test_missing_field_is_configuration_error():
    with pytest.raises(ConfigurationError, match="transmitters"):
        scenario_from_dict({"region": {"x_min": 0, "y_min": 0, "x_max": 1, "y_max": 1}})


def test_presets():
    indoor = preset("indoor-fig4")
    assert len(indoor.walls) == 5
    assert indoor.n_transmitters == 5
    assert len(preset("indoor-dense").walls) == 6
    assert preset("freespace").walls == ()
    assert preset("freespace", wall_count=0).walls == ()
    with pytest.raises(ConfigurationError, match="wall_count"):
        preset("freespace", wall_count=3)
    with pytest.raises(ConfigurationError, match="unknown scenario preset"):
        preset("nope")


@pytest.mark.parametrize(
    "bandwidth,k", [(20e6, 10), (50e6, 25), (100e6, 50), (200e6, 100), (700e6, 350)]
)
def test_samples_track_bandwidth(bandwidth, k):
    assert samples_for_bandwidth(bandwidth) == k
    assert preset("indoor-fig4", bandwidth_hz=bandwidth).num_samples == k
