"""Scenario description: region, walls, transmitters and RF parameters.

A scenario is the immutable ground truth world that everything else is
computed from.  Geometry is 2-D (building floor plan), walls are straight
segments with a per-crossing transmission loss and an angle-dependent
specular reflection coefficient.  Each transmitter broadcasts a unit-sample
pilot with power ``sigma_a^2`` watts; the receiver samples at the Nyquist
rate ``T = 1/B``.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

SPEED_OF_LIGHT = 299_792_458.0  # m/s

# Far-field guard: measurements are only taken at least this many
# wavelengths away from every transmitter.
FAR_FIELD_WAVELENGTHS = 3.0


@dataclass(frozen=True)
class WallSegment:
    """Straight wall with transmission loss and specular reflection.

    ``loss_db`` applies once per crossing (amplitude factor
    ``10**(-loss_db/20)``).  The reflection amplitude at incidence angle
    ``theta`` from the wall normal is ``max_reflection * |cos(theta)|``.
    """

    x1: float
    y1: float
    x2: float
    y2: float
    loss_db: float = 6.0
    max_reflection: float = 0.7

    def __post_init__(self):
        if (self.x1, self.y1) == (self.x2, self.y2):
            raise ConfigurationError("wall endpoints must be distinct")
        if self.loss_db < 0:
            raise ConfigurationError("wall transmission loss must be >= 0 dB")
        if not 0.0 <= self.max_reflection <= 1.0:
            raise ConfigurationError("max_reflection must lie in [0, 1]")

    @property
    def p1(self):
        return (self.x1, self.y1)

    @property
    def p2(self):
        return (self.x2, self.y2)


@dataclass(frozen=True)
class Transmitter:
    """Pilot anchor at a known position with pilot power sigma_a^2 in watts."""

    x: float
    y: float
    power_w: float = 1.0

    def __post_init__(self):
        if self.power_w <= 0:
            raise ConfigurationError("transmitter pilot power must be > 0 W")


@dataclass(frozen=True)
class Scenario:
    """Immutable simulation world.

    region   -- (x_min, y_min, x_max, y_max) in meters
    walls    -- tuple of WallSegment inside the region
    transmitters -- tuple of Transmitter (at least one)
    carrier_hz   -- carrier frequency f_c
    bandwidth_hz -- pilot bandwidth B; the sample period is T = 1/B
    num_samples  -- K, taps per channel / samples per pilot row
    noise_variance -- sigma_w^2, watts per complex pilot sample
    seed     -- a label saved with the scenario; no draw reads it (runs
                are seeded by ExperimentConfig.seed)
    """

    region: tuple
    walls: tuple = ()
    transmitters: tuple = ()
    carrier_hz: float = 800e6
    bandwidth_hz: float = 20e6
    num_samples: int = 10
    noise_variance: float = 1e-10
    seed: int = 0

    def __post_init__(self):
        x_min, y_min, x_max, y_max = self.region
        if not (x_min < x_max and y_min < y_max):
            raise ConfigurationError("region must satisfy x_min < x_max and y_min < y_max")
        object.__setattr__(self, "walls", tuple(self.walls))
        object.__setattr__(self, "transmitters", tuple(self.transmitters))
        if len(self.transmitters) < 1:
            raise ConfigurationError("at least one transmitter is required")
        if self.bandwidth_hz <= 0:
            raise ConfigurationError("bandwidth must be > 0")
        if self.carrier_hz <= 0:
            raise ConfigurationError("carrier frequency must be > 0")
        if int(self.num_samples) < 1:
            raise ConfigurationError("num_samples must be >= 1")
        if self.noise_variance < 0:
            raise ConfigurationError("noise variance must be >= 0")
        for tx in self.transmitters:
            if not self.contains((tx.x, tx.y))[0]:
                raise ConfigurationError(f"transmitter ({tx.x}, {tx.y}) outside region")
        for w in self.walls:
            if not np.all(self.contains([w.p1, w.p2])):
                raise ConfigurationError("wall endpoints must lie inside the region")

    @property
    def sample_period(self):
        """T = 1/B in seconds (always derived, never stored)."""
        return 1.0 / self.bandwidth_hz

    @property
    def wavelength(self):
        return SPEED_OF_LIGHT / self.carrier_hz

    @property
    def n_transmitters(self):
        return len(self.transmitters)

    def tx_positions(self):
        """Transmitter coordinates as an (L, 2) array."""
        return np.array([[t.x, t.y] for t in self.transmitters], dtype=float)

    def pilot_powers(self):
        """Per-transmitter pilot powers sigma_a^2 as an (L,) array."""
        return np.array([t.power_w for t in self.transmitters], dtype=float)

    def contains(self, points):
        """Boolean mask of points inside the region (inclusive bounds)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        x_min, y_min, x_max, y_max = self.region
        return (
            (pts[:, 0] >= x_min)
            & (pts[:, 0] <= x_max)
            & (pts[:, 1] >= y_min)
            & (pts[:, 1] <= y_max)
        )

    def far_field(self, points):
        """Mask of points at least FAR_FIELD_WAVELENGTHS from every transmitter."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        txs = self.tx_positions()
        d = np.linalg.norm(pts[:, None, :] - txs[None, :, :], axis=2)
        return np.all(d >= FAR_FIELD_WAVELENGTHS * self.wavelength, axis=1)


def _watts_from_dbm(dbm):
    return 10.0 ** ((dbm - 30.0) / 10.0)


def _dbm_from_watts(watts):
    return 10.0 * math.log10(watts) + 30.0


def scenario_from_dict(doc):
    """Build a Scenario from its JSON document form."""
    try:
        region = (
            float(doc["region"]["x_min"]),
            float(doc["region"]["y_min"]),
            float(doc["region"]["x_max"]),
            float(doc["region"]["y_max"]),
        )
        walls = tuple(
            WallSegment(
                float(w["x1"]), float(w["y1"]), float(w["x2"]), float(w["y2"]),
                loss_db=float(w.get("loss_db", 6.0)),
                max_reflection=float(w.get("max_reflection", 0.7)),
            )
            for w in doc.get("walls", [])
        )
        txs = tuple(
            Transmitter(float(t["x"]), float(t["y"]), float(t.get("power_w", 1.0)))
            for t in doc["transmitters"]
        )
        noise_dbm = doc.get("noise_dbm", None)
        noise_variance = 0.0 if noise_dbm is None else _watts_from_dbm(float(noise_dbm))
        return Scenario(
            region=region,
            walls=walls,
            transmitters=txs,
            carrier_hz=float(doc["carrier_hz"]),
            bandwidth_hz=float(doc["bandwidth_hz"]),
            num_samples=int(doc["num_samples"]),
            noise_variance=noise_variance,
            seed=int(doc.get("seed", 0)),
        )
    except KeyError as exc:
        raise ConfigurationError(f"scenario document missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigurationError):
            raise
        raise ConfigurationError(f"invalid scenario document: {exc}") from exc


def scenario_to_dict(scenario):
    x_min, y_min, x_max, y_max = scenario.region
    return {
        "region": {"x_min": x_min, "y_min": y_min, "x_max": x_max, "y_max": y_max},
        "walls": [
            {
                "x1": w.x1, "y1": w.y1, "x2": w.x2, "y2": w.y2,
                "loss_db": w.loss_db, "max_reflection": w.max_reflection,
            }
            for w in scenario.walls
        ],
        "transmitters": [
            {"x": t.x, "y": t.y, "power_w": t.power_w} for t in scenario.transmitters
        ],
        "carrier_hz": scenario.carrier_hz,
        "bandwidth_hz": scenario.bandwidth_hz,
        "num_samples": scenario.num_samples,
        "noise_dbm": (
            None if scenario.noise_variance == 0.0
            else _dbm_from_watts(scenario.noise_variance)
        ),
        "seed": scenario.seed,
    }


def load_scenario(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"cannot parse scenario JSON {path}: {exc}") from exc
    return scenario_from_dict(doc)


def save_scenario(scenario, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario_to_dict(scenario), fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Built-in presets
# ---------------------------------------------------------------------------

_REGION = (0.0, 0.0, 60.0, 40.0)
_BUILDING_Y = (6.5, 33.5)  # vertical planes span 27 m
_BUILDING_X = (9.0, 51.0)  # outer planes 42 m apart

# Canonical wall list for wall-count sweeps, ordered so that prefixes give
# progressively richer multipath: inner planes first, outer planes next,
# horizontal room divider last.
_CANONICAL_WALL_X = (30.0, 19.5, 40.5, 9.0, 51.0)


def canonical_walls(count=5):
    """First ``count`` walls of the canonical 6-wall indoor layout.

    Walls 1..5 are vertical planes spanning the 27 m building depth; wall 6
    is a horizontal divider splitting the structure in two.  Every wall has
    the WallSegment default loss (6 dB) and reflection (0.7).
    """
    if not 0 <= count <= 6:
        raise ConfigurationError("canonical wall count must be in 0..6")
    y0, y1 = _BUILDING_Y
    walls = [WallSegment(x, y0, x, y1) for x in _CANONICAL_WALL_X]
    x0, x1 = _BUILDING_X
    # Room divider at 19.75 m keeps every anchor off every wall plane.
    walls.append(WallSegment(x0, 19.75, x1, 19.75))
    return tuple(walls[:count])


# Up to seven anchors; the first five are the default layout (midpoint
# ring around the building plus a central one: two inside, three outside).
_CANONICAL_TX = (
    (3.0, 20.0),
    (30.5, 3.5),
    (57.0, 20.0),
    (30.5, 30.0),
    (30.5, 20.0),
    (12.0, 10.0),
    (47.0, 31.0),
)


def samples_for_bandwidth(bandwidth_hz):
    """K sized so the longest multipath delays fit the tap window (K = B / 2 MHz)."""
    k = int(round(bandwidth_hz / 2e6))
    return max(k, 1)


def preset(name, n_transmitters=5, bandwidth_hz=20e6, wall_count=None,
           noise_dbm=-70.0, seed=0):
    """Built-in scenarios: ``indoor-fig4``, ``indoor-dense`` and ``freespace``.

    ``indoor-fig4``  -- 42 x 27 m five-plane structure in a 60 x 40 m area.
    ``indoor-dense`` -- same plus a horizontal room divider (6 walls).
    ``freespace``    -- same region and anchors, no walls.
    """
    if not 1 <= n_transmitters <= len(_CANONICAL_TX):
        raise ConfigurationError(
            f"n_transmitters must be in 1..{len(_CANONICAL_TX)}"
        )
    if name == "indoor-fig4":
        walls = canonical_walls(5 if wall_count is None else wall_count)
    elif name == "indoor-dense":
        walls = canonical_walls(6 if wall_count is None else wall_count)
    elif name == "freespace":
        walls = ()
    else:
        raise ConfigurationError(
            f"unknown scenario preset {name!r} (choose from indoor-fig4, indoor-dense, freespace)"
        )
    txs = tuple(Transmitter(x, y, 1.0) for x, y in _CANONICAL_TX[:n_transmitters])
    noise_variance = 0.0 if noise_dbm is None else _watts_from_dbm(noise_dbm)
    return Scenario(
        region=_REGION,
        walls=walls,
        transmitters=txs,
        carrier_hz=800e6,
        bandwidth_hz=bandwidth_hz,
        num_samples=samples_for_bandwidth(bandwidth_hz),
        noise_variance=noise_variance,
        seed=seed,
    )


SCENARIO_PRESETS = ("indoor-fig4", "indoor-dense", "freespace")
