"""Multipath synthesis: ray tracing, band-limited channels, pilots, power maps.

The propagation model is a 2-D multi-wall ray model.  For a transmitter /
receiver pair it enumerates

* the direct ray,
* up to ``MAX_FIRST_ORDER`` strongest single-bounce specular reflections,
* up to ``MAX_SECOND_ORDER`` strongest wall-to-wall double bounces.

Both bounce orders come from one image-method pass over wall sequences
(every wall, then every ordered pair of distinct walls): the transmitter is
mirrored through each wall of the sequence in turn, and the ray is unfolded
back from the receiver through those images to find the bounce points.  A
sequence has no ray when the transmitter or an image lies on the plane of
the next wall.  One pass traces every sequence of a bounce order at once,
on (sequence, receiver row) entries.  The first unfold, from the receiver
back to the last image, runs over every entry and gives each its path
length and delay.  After each bounce-point hit test only the entries that
still hit go on: to the next unfold, to their reflection coefficients and
at the end to their wall-crossing factors, where each leg is tested
against all walls at once.  Rows are taken in blocks of at most
``_BLOCK_ENTRIES`` entries, so memory does not grow with the sequence count.
All of it is elementwise arithmetic, with no matrix product, so the rays
of a receiver are the same bits whichever rows are traced with it, for any
wall geometry.

Path amplitude combines the free-space magnitude law
``alpha = c / (4 pi f_c d)`` over the unfolded path length d, an
angle-dependent reflection coefficient at each bounce, and a fixed
transmission loss for every wall crossed by any leg of the ray.  A path's
delay is its unfolded length divided by the speed of light.

Band-limited sampling at the Nyquist rate T = 1/B turns a path set into K
complex taps::

    h[k] = sum_p alpha_p * exp(-j 2 pi f_c t_p) * sinc(k - t_p / T)

which is also the noiseless received pilot row for unit-sample pilots.
simulate_points traces points once and returns their pilot powers and map
values; it keeps the traced rays and synthesizes the taps from them on
first read, so callers that read only powers synthesize none.
"""

import itertools
import sys
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, DomainError
from .scenario import FAR_FIELD_WAVELENGTHS, SPEED_OF_LIGHT

MAX_FIRST_ORDER = 5
MAX_SECOND_ORDER = 5

# Strict-interior tolerance for "the leg crosses this wall"; keeps the
# reflection point itself from counting as a crossing of its own wall.
_EPS_T = 1e-9

# Upper bound on the (wall sequence x receiver row) entries one reflection
# pass works on at a time.
_BLOCK_ENTRIES = 1 << 13

# p_bar^2 / sigma_eps^2 of the power measurements, in dB.
_MEASUREMENT_SNR_DB = 40.0


@dataclass(frozen=True)
class PathComponent:
    """One ray: real amplitude, positive delay (s), bounce count 0/1/2."""

    amplitude: float
    delay: float
    order: int


@dataclass(frozen=True)
class PointTables:
    """Batched per-point synthesis products for one scenario.

    rays         -- per transmitter, the (n, P) amplitudes and delays of _trace_tx
    pilot_powers -- (n, L) received pilot power in dBW (noiseless)
    true_power   -- (n,) aggregate received power map value in dBW
    channels     -- (n, L, K) complex noiseless channel taps, synthesized
                    from ``rays`` on first read
    """

    scenario: object
    rays: tuple
    pilot_powers: np.ndarray
    true_power: np.ndarray

    @cached_property
    def channels(self):
        return _batch_channels(self.scenario, self.rays)


def _wall_geometry(scenario):
    """Stacked wall arrays: endpoints, normals, crossing factors, max_reflection."""
    walls = scenario.walls
    if not walls:
        zeros = np.zeros((0, 2))
        return zeros, zeros, zeros, np.zeros(0), np.zeros(0)
    p1 = np.array([w.p1 for w in walls], dtype=float)
    p2 = np.array([w.p2 for w in walls], dtype=float)
    d = p2 - p1
    normals = np.stack([-d[:, 1], d[:, 0]], axis=1)
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    cross_factor = 10.0 ** (-np.array([w.loss_db for w in walls]) / 20.0)
    reflect = np.array([w.max_reflection for w in walls], dtype=float)
    return p1, p2, normals, cross_factor, reflect


def _wall_hit(starts, legs, a, b):
    """Where the legs starts -> starts + legs cross the walls (a, b).

    All four broadcast against each other, with x, y on the first axis.
    Returns (t, hit): ``t`` along the leg, and ``hit`` True where the
    crossing lies strictly inside the leg and on the wall (parallel legs
    never hit).  Elementwise, so no entry's bits depend on its neighbours.
    """
    s = b - a
    denom = legs[0] * s[1]
    denom -= legs[1] * s[0]
    hit = np.abs(denom) > 1e-15
    denom[~hit] = 1.0  # parallel: any finite t, the leg misses anyway
    qp = a - starts
    t = qp[0] * s[1] - qp[1] * s[0]
    t = t / denom  # not in place: t may broadcast smaller than denom
    u = qp[0] * legs[1]
    u -= qp[1] * legs[0]
    u /= denom
    hit &= t > _EPS_T
    hit &= t < 1.0 - _EPS_T
    hit &= u >= 0.0
    hit &= u <= 1.0
    return t, hit


def _crossing_factors(starts, ends, geom, exclude=()):
    """Amplitude factor from wall crossings along each leg (strict interior).

    ``starts`` and ``ends`` are (2, m) x, y rows, m = 1 broadcasting.  Each
    leg is tested against all walls at once, and the factors of the walls
    it crosses multiply in wall order.  ``exclude`` holds (m,) wall indices
    whose crossings a leg does not count.
    """
    p1, p2, _, factors, _ = geom
    legs = ends - starts
    _, crossed = _wall_hit(starts[:, None], legs[:, None], p1.T[..., None], p2.T[..., None])
    for walls in exclude:
        crossed &= walls != np.arange(p1.shape[0])[:, None]
    out = np.ones(crossed.shape[1])
    for w in range(p1.shape[0]):
        np.multiply(out, factors[w], out=out, where=crossed[w])
    return out


def _friis_amplitude(distance, carrier_hz):
    return SPEED_OF_LIGHT / (4.0 * np.pi * carrier_hz * distance)


def _top_k(amps, delays, k):
    """Keep the k strongest |amplitude| per row; weaker entries zeroed out."""
    n, c = amps.shape
    if c <= k:
        return amps, delays
    idx = np.argpartition(-np.abs(amps), k - 1, axis=1)[:, :k]
    rows = np.arange(n)[:, None]
    return amps[rows, idx], delays[rows, idx]


def _wall_sequences(tx, geom, order):
    """Wall sequences of length ``order`` that have images, and the images.

    Returns (seqs, images): (S, order) wall indices in permutation order,
    and (S, order + 1, 2) points, tx first and then its mirror through each
    wall of the sequence in turn.  A sequence is left out when the source
    or an image lies on the plane of the next wall.
    """
    p1, _, normals, _, _ = geom
    seqs, images = [], []
    for seq in itertools.permutations(range(p1.shape[0]), order):
        chain = [tx]
        for w in seq:
            offset = np.dot(chain[-1] - p1[w], normals[w])
            if abs(offset) < 1e-12:
                break
            chain.append(chain[-1] - 2.0 * offset * normals[w])
        else:
            seqs.append(seq)
            images.append(chain)
    seqs = np.array(seqs, dtype=int).reshape(-1, order)
    return seqs, np.array(images).reshape(-1, order + 1, 2)


def _length(legs):
    """Euclidean length over the first axis: the bits of np.linalg.norm."""
    return np.sqrt(legs[0] * legs[0] + legs[1] * legs[1])


def _reflections(scenario, tx, rx, geom, order):
    """Image-method rays tx -> ``order`` walls -> each receiver, every sequence.

    ``tx`` is (2, 1) and ``rx`` (2, n), x and y as rows.  Returns (amps,
    delays) of shape (n, S) over the S sequences of _wall_sequences, with
    zero amplitude where a bounce point misses its wall.  Every entry keeps
    its delay, hit or not.
    """
    p1, p2, normals, _, reflect = geom
    seqs, images = _wall_sequences(tx[:, 0], geom, order)
    n_seq, n = seqs.shape[0], rx.shape[1]
    amps = np.zeros((n, n_seq))
    delays = np.zeros((n, n_seq))
    if n_seq == 0:
        return amps, delays
    images = images.transpose(1, 2, 0).copy()  # (order + 1, 2, S)
    walls_at = seqs.T.copy()  # (order, S): the wall of each bounce
    p1, p2, normals = p1.T, p2.T, normals.T
    last = walls_at[-1, :, None]
    block = max(1, _BLOCK_ENTRIES // n_seq)
    for start in range(0, n, block):
        rx_block = rx[:, start:start + block]
        n_rows = rx_block.shape[1]
        # Every (sequence, receiver) entry, from the receiver back to the
        # last image: the unfolded path and the delay.
        image = images[order, :, :, None]
        leg = rx_block[:, None, :] - image
        path = _length(leg)
        delays[start:start + n_rows] = (path / SPEED_OF_LIGHT).T
        t, hit = _wall_hit(image, leg, p1[:, last], p2[:, last])
        # From here on only the live entries, flat: every bounce point so
        # far hits its wall.
        live = np.flatnonzero(hit)
        seq, row = np.divmod(live, n_rows)
        leg = leg.reshape(2, -1).take(live, axis=1)
        path, t = path.take(live), t.take(live)
        length = path
        points = [rx_block.take(row, axis=1)]
        refl = np.ones(live.size)
        for j in range(order - 1, -1, -1):
            points.insert(0, images[j + 1].take(seq, axis=1) + t * leg)
            walls = walls_at[j].take(seq)
            normal = normals.take(walls, axis=1)
            # x*nx + y*ny elementwise: a matmul fuses multiply-adds for
            # some row counts and not others.
            cos = np.abs(leg[0] * normal[0] + leg[1] * normal[1])
            cos /= np.maximum(length, 1e-12)
            refl = reflect.take(walls) * cos * refl
            if j:  # through the previous image back to the previous bounce point
                image = images[j].take(seq, axis=1)
                leg = points[0] - image
                length = _length(leg)
                prev = walls_at[j - 1].take(seq)
                t, hit = _wall_hit(image, leg, p1.take(prev, axis=1), p2.take(prev, axis=1))
                live = np.flatnonzero(hit)
                seq, row, length, t, path, refl = (
                    a.take(live) for a in (seq, row, length, t, path, refl)
                )
                leg = leg.take(live, axis=1)
                points = [q.take(live, axis=1) for q in points]
        amp = _friis_amplitude(np.maximum(path, 1e-12), scenario.carrier_hz) * refl
        ray = [tx] + points
        # Each leg crosses walls freely except the ones it starts or ends on.
        for j in range(order + 1):
            amp = amp * _crossing_factors(
                ray[j], ray[j + 1], geom,
                exclude=[walls_at[i].take(seq) for i in (j - 1, j) if 0 <= i < order],
            )
        amps[start + row, seq] = amp
    return amps, delays


def _trace_tx(scenario, tx, rx, geom):
    """All kept ray amplitudes/delays from one transmitter to rx (n, 2).

    Returns (amps, delays, orders): (n, P) float arrays plus a (P,) order
    vector; invalid candidate slots carry zero amplitude.
    """
    d = np.linalg.norm(rx - tx, axis=1)
    if np.any(d <= 0.0):
        raise DomainError("receiver coincides with a transmitter (near-field singularity)")
    # x and y as rows from here on: contiguous components for the wall tests.
    tx, rx = np.asarray(tx, dtype=float)[:, None], np.ascontiguousarray(rx.T)
    amp_direct = _friis_amplitude(d, scenario.carrier_hz) * _crossing_factors(tx, rx, geom)
    amps = [amp_direct[:, None]]
    delays = [(d / SPEED_OF_LIGHT)[:, None]]
    orders = [np.zeros(1, dtype=int)]
    for order, keep in ((1, MAX_FIRST_ORDER), (2, MAX_SECOND_ORDER)):
        cand_a, cand_d = _reflections(scenario, tx, rx, geom, order)
        if cand_a.shape[1]:
            a, t = _top_k(cand_a, cand_d, keep)
            amps.append(a)
            delays.append(t)
            orders.append(np.full(a.shape[1], order, dtype=int))
    return np.concatenate(amps, axis=1), np.concatenate(delays, axis=1), np.concatenate(orders)


def trace_paths(scenario, tx, rx):
    """Rays between one transmitter and one receiver, sorted by delay.

    Returns the direct path plus the strongest single- and double-bounce
    reflections as a list of PathComponent.
    """
    tx = np.asarray(tx, dtype=float)
    rx = np.asarray(rx, dtype=float)
    if not scenario.contains(rx)[0]:
        raise DomainError(f"receiver {tuple(rx)} lies outside the region")
    geom = _wall_geometry(scenario)
    amps, delays, orders = _trace_tx(scenario, tx, rx[None, :], geom)
    paths = [
        PathComponent(float(a), float(t), int(o))
        for a, t, o in zip(amps[0], delays[0], orders)
        if a != 0.0
    ]
    return sorted(paths, key=lambda p: p.delay)


def discretize_channel(paths, scenario):
    """K complex taps of the band-limited channel for a traced path list.

    Implements ``h[k] = sum_p alpha_p exp(-j 2 pi f_c t_p) sinc(k - t_p/T)``
    with sinc(x) = sin(pi x)/(pi x).  The 1-row, 1-transmitter case of
    _batch_channels.
    """
    amps = np.array([[p.amplitude for p in paths]], dtype=float)
    delays = np.array([[p.delay for p in paths]], dtype=float)
    return _batch_channels(scenario, ((amps, delays),))[0, 0]


def _batch_channels(scenario, rays):
    """Taps (n, L, K) complex of L transmitters' (n, P) amplitude/delay
    path tables ``rays``.

    Paths (nonzero amplitudes) whose delay exceeds the tap window (t/T >
    K-1) are kept, with one warning at the first line outside this package
    and functools (cached_property): their energy leaks into the sinc tails.
    """
    k_taps = scenario.num_samples
    t_samp = scenario.sample_period
    if any(np.any((amps != 0.0) & (delays / t_samp > k_taps - 1)) for amps, delays in rays):
        internal, frame, level = (__package__ + ".", "functools"), sys._getframe(1), 2
        while frame.f_back and frame.f_globals.get("__name__", "").startswith(internal):
            frame, level = frame.f_back, level + 1
        warnings.warn(
            "path delays exceed the tap window (t/T > K-1); energy leaks into the "
            "sinc tails, consider increasing num_samples",
            stacklevel=level,
        )
    k_grid = np.arange(k_taps)
    out = np.zeros((rays[0][0].shape[0], len(rays), k_taps), dtype=complex)
    for l, (amps, delays) in enumerate(rays):
        for p in range(amps.shape[1]):
            a = amps[:, p]
            if not np.any(a):
                continue
            t = delays[:, p]
            phase = np.exp(-2j * np.pi * scenario.carrier_hz * t)
            out[:, l] += (a * phase)[:, None] * np.sinc(k_grid[None, :] - (t / t_samp)[:, None])
    return out


def simulate_points(scenario, points):
    """Pilot powers, the true power map and, on first read of ``channels``,
    the noiseless channels at (n, 2) points inside the region and outside
    the far-field discs (else DomainError).

    The true map value aggregates the received power from every transmitter
    over all traced paths::

        p(x) = 10 log10( sum_l sigma_a_l^2 sum_p alpha_{l,p}(x)^2 )  [dBW]
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise DomainError(f"points must be an (n, 2) array of x, y; got shape {pts.shape}")
    if not np.all(scenario.contains(pts)):
        raise DomainError("all points must lie inside the region")
    if not np.all(scenario.far_field(pts)):
        raise DomainError(
            f"all points must lie at least {FAR_FIELD_WAVELENGTHS} wavelengths "
            "from every transmitter"
        )
    geom = _wall_geometry(scenario)
    powers = scenario.pilot_powers()
    rays = tuple(_trace_tx(scenario, tx, pts, geom)[:2] for tx in scenario.tx_positions())
    rx_power = np.zeros((pts.shape[0], len(rays)))
    for l, (amps, _) in enumerate(rays):
        rx_power[:, l] = powers[l] * np.sum(amps**2, axis=1)
    with np.errstate(divide="ignore"):
        pilot_powers = 10.0 * np.log10(rx_power)
        true_power_dbw = 10.0 * np.log10(np.sum(rx_power, axis=1))
    return PointTables(scenario, rays, pilot_powers, true_power_dbw)


def true_power(scenario, point):
    """Aggregate noiseless received power at one point, in dBW."""
    return float(simulate_points(scenario, np.asarray(point, dtype=float)[None, :]).true_power[0])


def synthesize_pilot_matrix(scenario, rx, rng):
    """L x K received pilot matrix: noiseless channel rows plus circular
    complex Gaussian noise of per-sample variance sigma_w^2."""
    tables = simulate_points(scenario, np.asarray(rx, dtype=float)[None, :])
    noiseless = tables.channels[0]
    return noiseless + pilot_noise(scenario, noiseless.shape, rng)


def pilot_noise(scenario, shape, rng):
    """Circular complex Gaussian pilot noise, variance sigma_w^2 per sample."""
    if scenario.noise_variance == 0.0:
        return np.zeros(shape, dtype=complex)
    # The real part, then the imaginary part, drawn through one reused
    # buffer: the stream and values of normal(0, scale, shape) for each
    # part, without complex temporaries.
    scale = np.sqrt(scenario.noise_variance / 2.0)
    noise = np.empty(shape, dtype=complex)
    part = np.empty(shape)
    for view in (noise.real, noise.imag):
        rng.standard_normal(out=part)
        part *= scale
        view[...] = part
    return noise


def sample_sensor_locations(scenario, count, rng):
    """Uniform draws over the region, rejecting the far-field exclusion discs."""
    if count < 1:
        raise ConfigurationError("count must be >= 1")
    x_min, y_min, x_max, y_max = scenario.region
    out = np.empty((count, 2))
    filled = 0
    attempts = 0
    max_attempts = 1000 * count + 10000
    while filled < count:
        draw = min(count - filled, count) * 2
        pts = rng.uniform((x_min, y_min), (x_max, y_max), size=(draw, 2))
        keep = pts[scenario.far_field(pts)]
        take = min(len(keep), count - filled)
        out[filled:filled + take] = keep[:take]
        filled += take
        attempts += draw
        if attempts > max_attempts:
            raise ConfigurationError(
                "far-field exclusion discs leave (almost) no admissible area"
            )
    return out


def evaluation_grid(scenario, step=1.0):
    """Cell-center lattice over the admissible region (ConfigurationError if empty).

    Returns (points, shape, flat_index, xs, ys): ``points`` are the
    admissible cell centers; ``flat_index`` maps them into the row-major
    (ny, nx) lattice whose rows run from the top (max y) down, which is the
    scan order used by all grid exports.
    """
    x_min, y_min, x_max, y_max = scenario.region
    xs = np.arange(x_min + step / 2.0, x_max, step)
    ys = np.arange(y_min + step / 2.0, y_max, step)[::-1]
    gx, gy = np.meshgrid(xs, ys)
    lattice = np.stack([gx.ravel(), gy.ravel()], axis=1)
    admissible = scenario.far_field(lattice)
    if not np.any(admissible):
        raise ConfigurationError("evaluation grid is empty")
    return (
        lattice[admissible],
        (len(ys), len(xs)),
        np.flatnonzero(admissible),
        xs,
        ys,
    )


def measurement_noise_std(p_bar):
    """Power-measurement noise sigma_eps from the dB-domain SNR rule.

    Solves ``10 log10(p_bar^2 / sigma_eps^2) = _MEASUREMENT_SNR_DB`` for the
    spatial average ``p_bar`` of the map (PrecomputedGrid.p_bar).
    """
    return abs(p_bar) / 10.0 ** (_MEASUREMENT_SNR_DB / 20.0)
