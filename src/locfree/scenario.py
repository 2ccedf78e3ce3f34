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
import typing
from dataclasses import MISSING, asdict, dataclass, fields

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
    """

    region: tuple
    walls: tuple = ()
    transmitters: tuple = ()
    carrier_hz: float = 800e6
    bandwidth_hz: float = 20e6
    num_samples: int = 10
    noise_variance: float = 1e-10

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


def read_json(path):
    """The JSON document in the file at ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read {path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"cannot parse JSON {path}: {exc}") from exc


def keyword_args(doc, schema, skip=None, required=()):
    """Keyword arguments from the keys of the JSON object ``doc`` but ``skip``.

    ``schema`` maps each allowed key to its (argument name, type), and each
    ``required`` key must be there.  A value is taken if the type's
    conversion keeps it equal (1 passes as a float; "5", 50.7 and true fail
    as an int, a list as a dict), and null is taken where the type is
    ``X | None``.  NaN, which equals nothing, is refused as such.
    """
    if not isinstance(doc, dict):
        raise ConfigurationError(f"expected a JSON object, got {doc!r}")
    for key in required:
        if key not in doc:
            raise ConfigurationError(f"missing required field {key!r}")
    kwargs = {}
    for key, value in doc.items():
        if key == skip:
            continue
        if key not in schema:
            raise ConfigurationError(f"unknown field {key!r}")
        if isinstance(value, float) and math.isnan(value):
            raise ConfigurationError(f"field {key!r} must not be NaN")
        name, kind = schema[key]
        kind, *nullable = typing.get_args(kind) or (kind,)
        try:
            kwargs[name] = None if value is None and nullable else kind(value)
            kept = kwargs[name] == value and isinstance(value, bool) == (kind is bool)
        except (TypeError, ValueError, OverflowError):
            kept = False
        if not kept:
            raise ConfigurationError(f"field {key!r} must be {kind.__name__}, got {value!r}")
    return kwargs


def _field_args(doc, cls):
    """Keyword arguments of dataclass ``cls`` from the JSON object ``doc``:
    a key per field, of its type, required where the field has no default."""
    return keyword_args(
        doc, {f.name: (f.name, f.type) for f in fields(cls)},
        required=[f.name for f in fields(cls) if f.default is MISSING],
    )


_REGION_KEYS = ("x_min", "y_min", "x_max", "y_max")
_DOCUMENT_KEYS = {"noise_variance": "noise_dbm"}


def scenario_from_dict(doc):
    """Build a Scenario from its JSON document form.

    The document has a key per Scenario field, of the field's type, but
    ``region`` is an object of x_min, y_min, x_max and y_max, ``walls`` and
    ``transmitters`` are lists of WallSegment and Transmitter objects (read
    by their fields), and ``noise_dbm`` (null: noiseless) stands for
    noise_variance.  Only ``walls`` and ``noise_dbm`` may be omitted.  A
    ``seed`` key, which older scenario files carry, is ignored.
    """
    kinds = {"region": dict, "walls": list, "transmitters": list, "noise_variance": float | None}
    schema = {
        _DOCUMENT_KEYS.get(f.name, f.name): (f.name, kinds.get(f.name, f.type))
        for f in fields(Scenario)
    }
    required = [key for key in schema if key not in ("walls", "noise_dbm")]
    kwargs = keyword_args(doc, schema, skip="seed", required=required)
    region_schema = {key: (key, float) for key in _REGION_KEYS}
    region = keyword_args(kwargs["region"], region_schema, required=_REGION_KEYS)
    kwargs["region"] = tuple(region[key] for key in _REGION_KEYS)
    for name, cls in (("walls", WallSegment), ("transmitters", Transmitter)):
        kwargs[name] = tuple(cls(**_field_args(item, cls)) for item in kwargs.get(name, ()))
    noise_dbm = kwargs.get("noise_variance")
    kwargs["noise_variance"] = 0.0 if noise_dbm is None else _watts_from_dbm(noise_dbm)
    return Scenario(**kwargs)


def scenario_to_dict(scenario):
    """The JSON document form of ``scenario`` (see scenario_from_dict)."""
    doc = asdict(scenario)
    doc["region"] = dict(zip(_REGION_KEYS, scenario.region))
    noise = scenario.noise_variance
    doc["noise_variance"] = None if noise == 0.0 else _dbm_from_watts(noise)
    return {_DOCUMENT_KEYS.get(key, key): value for key, value in doc.items()}


def load_scenario(path):
    return scenario_from_dict(read_json(path))


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


# Canonical wall count of each built-in scenario; freespace keeps none.
_PRESET_WALLS = {"indoor-fig4": 5, "indoor-dense": 6, "freespace": 0}
SCENARIO_PRESETS = tuple(_PRESET_WALLS)


def preset(name, n_transmitters: int = 5, bandwidth_hz: float = 20e6,
           wall_count: int | None = None, noise_dbm: float | None = -70.0):
    """Built-in scenarios: ``indoor-fig4``, ``indoor-dense`` and ``freespace``.

    ``indoor-fig4``  -- 42 x 27 m five-plane structure in a 60 x 40 m area.
    ``indoor-dense`` -- same plus a horizontal room divider (6 walls).
    ``freespace``    -- same region and anchors, no walls.

    ``wall_count=None`` keeps the preset's walls; ``noise_dbm=None`` is
    noiseless.  The CLI checks a config's preset keys by these annotations.
    """
    if not 1 <= n_transmitters <= len(_CANONICAL_TX):
        raise ConfigurationError(
            f"n_transmitters must be in 1..{len(_CANONICAL_TX)}"
        )
    if name not in _PRESET_WALLS:
        raise ConfigurationError(
            f"unknown scenario preset {name!r} (choose from {', '.join(SCENARIO_PRESETS)})"
        )
    if wall_count is None:
        wall_count = _PRESET_WALLS[name]
    elif name == "freespace" and wall_count != 0:
        raise ConfigurationError(
            f"freespace has no walls; wall_count must be 0 or null, got {wall_count}"
        )
    txs = tuple(Transmitter(x, y, 1.0) for x, y in _CANONICAL_TX[:n_transmitters])
    noise_variance = 0.0 if noise_dbm is None else _watts_from_dbm(noise_dbm)
    return Scenario(
        region=_REGION,
        walls=canonical_walls(wall_count),
        transmitters=txs,
        carrier_hz=800e6,
        bandwidth_hz=bandwidth_hz,
        num_samples=samples_for_bandwidth(bandwidth_hz),
        noise_variance=noise_variance,
    )

