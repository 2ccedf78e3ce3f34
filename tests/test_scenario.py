import json
from dataclasses import fields

import pytest

from locfree.errors import ConfigurationError
from locfree.scenario import (
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
    scn = preset("indoor-fig4", seed=7)
    path = tmp_path / "scn.json"
    save_scenario(scn, path)
    again = load_scenario(path)
    assert again == scn


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
    with pytest.raises(ConfigurationError, match="unknown scenario preset"):
        preset("nope")


@pytest.mark.parametrize(
    "bandwidth,k", [(20e6, 10), (50e6, 25), (100e6, 50), (200e6, 100), (700e6, 350)]
)
def test_samples_track_bandwidth(bandwidth, k):
    assert samples_for_bandwidth(bandwidth) == k
    assert preset("indoor-fig4", bandwidth_hz=bandwidth).num_samples == k
