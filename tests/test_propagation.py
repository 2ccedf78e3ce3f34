import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from locfree import propagation
from locfree.errors import ConfigurationError, DomainError
from locfree.evaluation import ExperimentConfig, _draw_training, precompute_grid
from locfree.propagation import (
    PathComponent,
    discretize_channel,
    evaluation_grid,
    measurement_noise_std,
    pilot_noise,
    sample_sensor_locations,
    simulate_points,
    synthesize_pilot_matrix,
    trace_paths,
    true_power,
)
from locfree.scenario import (
    SPEED_OF_LIGHT,
    Scenario,
    Transmitter,
    WallSegment,
    canonical_walls,
    preset,
)


def test_free_space_single_path(free_space):
    paths = trace_paths(free_space, (0.0, 0.0), (30.0, 0.0))
    assert len(paths) == 1
    assert paths[0].order == 0
    assert paths[0].delay == pytest.approx(30.0 / SPEED_OF_LIGHT, rel=1e-12)


def test_wall_between_attenuates_by_its_loss(free_space):
    walled = Scenario(
        region=free_space.region,
        walls=(WallSegment(15.0, -4.0, 15.0, 44.0, loss_db=6.0),),
        transmitters=free_space.transmitters,
        noise_variance=0.0,
    )
    direct = [p for p in trace_paths(walled, (0, 0), (30, 0)) if p.order == 0][0]
    reference = trace_paths(free_space, (0, 0), (30, 0))[0]
    assert direct.amplitude == pytest.approx(
        reference.amplitude * 10 ** (-6.0 / 20.0), rel=1e-12
    )


def test_wall_between_never_increases_direct_amplitude(free_space):
    reference = trace_paths(free_space, (0, 0), (30, 0))[0].amplitude
    for loss in (0.0, 3.0, 9.0):
        walled = Scenario(
            region=free_space.region,
            walls=(WallSegment(10.0, -4.0, 10.0, 44.0, loss_db=loss),),
            transmitters=free_space.transmitters,
            noise_variance=0.0,
        )
        direct = [p for p in trace_paths(walled, (0, 0), (30, 0)) if p.order == 0][0]
        assert direct.amplitude <= reference + 1e-18


def _unfolded_reflection_length(tx, rx, y_wall):
    """Image-method oracle: shortest tx -> wall -> rx path by brute search."""
    xs = np.linspace(-5.0, 5.0, 200001)
    lengths = np.hypot(xs - tx[0], y_wall - tx[1]) + np.hypot(rx[0] - xs, rx[1] - y_wall)
    return lengths.min()


def test_single_mirror_wall_reflection_length():
    scn = Scenario(
        region=(-6.0, -1.0, 10.0, 10.0),
        walls=(WallSegment(-5.0, 0.0, 5.0, 0.0),),
        transmitters=(Transmitter(0.0, 1.0),),
        noise_variance=0.0,
    )
    paths = trace_paths(scn, (0.0, 1.0), (2.0, 1.0))
    reflections = [p for p in paths if p.order == 1]
    assert len(reflections) == 1
    length = reflections[0].delay * SPEED_OF_LIGHT
    assert length == pytest.approx(math.sqrt(8.0), rel=1e-9)
    oracle = _unfolded_reflection_length((0.0, 1.0), (2.0, 1.0), 0.0)
    assert length == pytest.approx(oracle, rel=1e-8)


def test_path_count_cap():
    walls = tuple(
        WallSegment(x, 0.5, x, 39.0, loss_db=3.0) for x in (5.0, 15.0, 25.0, 35.0, 45.0, 55.0)
    )
    scn = Scenario(
        region=(0.0, 0.0, 60.0, 40.0),
        walls=walls,
        transmitters=(Transmitter(2.0, 20.0),),
        noise_variance=0.0,
    )
    paths = trace_paths(scn, (2.0, 20.0), (50.0, 21.0))
    assert len(paths) <= 11
    assert sum(1 for p in paths if p.order == 1) <= 5
    assert sum(1 for p in paths if p.order == 2) <= 5


def test_geometry_reciprocity_free_space(free_space):
    a = trace_paths(free_space, (0.0, 0.0), (25.0, 13.0))
    b = trace_paths(free_space, (25.0, 13.0), (0.0, 0.0))
    pa = sorted((abs(p.amplitude), p.delay) for p in a)
    pb = sorted((abs(p.amplitude), p.delay) for p in b)
    assert pa == pytest.approx(pb)


def test_simulate_rejects_points_outside_the_domain(free_space):
    """Every traced point passes one check: an (n, 2) array of points inside
    the region and outside every transmitter's far-field disc."""
    inside = [[10.0, 10.0]]
    cases = [
        (np.array([[10.0], [20.0]]), r"\(n, 2\)"),
        (np.array([[10.0, 10.0, 1.0]]), r"\(n, 2\)"),
        (np.array(inside + [[100.0, 10.0]]), "inside the region"),
        (np.array(inside + [(free_space.tx_positions()[0] + [0.5, 0.0]).tolist()]), "wavelengths"),
    ]
    for points, message in cases:
        with pytest.raises(DomainError, match=message):
            simulate_points(free_space, points)


def test_near_field_and_region_domain_errors(free_space):
    with pytest.raises(DomainError, match="near-field"):
        trace_paths(free_space, (0.0, 0.0), (0.0, 0.0))
    with pytest.raises(DomainError):
        trace_paths(free_space, (0.0, 0.0), (100.0, 0.0))


# ---------------------------------------------------------------------------
# image-method oracle: one hand-unrolled block per bounce order
# ---------------------------------------------------------------------------

_EPS_T = 1e-9


def _oracle_segment_params(starts, ends, a, b):
    starts = np.atleast_2d(starts)
    ends = np.atleast_2d(ends)
    r = ends - starts
    s = b - a
    denom = r[:, 0] * s[1] - r[:, 1] * s[0]
    ok = np.abs(denom) > 1e-15
    safe = np.where(ok, denom, 1.0)
    qp = a - starts
    t = (qp[:, 0] * s[1] - qp[:, 1] * s[0]) / safe
    u = (qp[:, 0] * r[:, 1] - qp[:, 1] * r[:, 0]) / safe
    return t, u, ok


def _oracle_crossing_factors(starts, ends, geom, exclude=()):
    p1, p2, _, factors, _ = geom
    n = np.atleast_2d(ends).shape[0]
    out = np.ones(n)
    for w in range(p1.shape[0]):
        if w in exclude:
            continue
        t, u, ok = _oracle_segment_params(starts, ends, p1[w], p2[w])
        crossed = ok & (t > _EPS_T) & (t < 1.0 - _EPS_T) & (u >= 0.0) & (u <= 1.0)
        out = np.where(crossed, out * factors[w], out)
    return out


def _oracle_mirror(point, p1, normal):
    return point - 2.0 * np.dot(point - p1, normal) * normal


def _dot(legs, normal):
    """x*nx + y*ny per row, rounded the same for any row count (a matmul
    fuses a multiply-add for many rows but not for one)."""
    return legs[:, 0] * normal[0] + legs[:, 1] * normal[1]


def _two_block_trace_tx(scenario, tx, rx, geom):
    """The tracer with single and double bounces written out as two blocks."""
    friis = propagation._friis_amplitude
    top_k = propagation._top_k
    walls = scenario.walls
    n_walls = len(walls)
    p1, p2, normals, _, _ = geom
    rx = np.atleast_2d(np.asarray(rx, dtype=float))
    n = rx.shape[0]
    fc = scenario.carrier_hz

    d = np.linalg.norm(rx - tx, axis=1)
    if np.any(d <= 0.0):
        raise DomainError("receiver coincides with a transmitter (near-field singularity)")
    amp_direct = friis(d, fc) * _oracle_crossing_factors(tx, rx, geom)
    amps = [amp_direct[:, None]]
    delays = [(d / SPEED_OF_LIGHT)[:, None]]
    orders = [np.zeros(1, dtype=int)]

    first_amp = np.zeros((n, 0))
    first_delay = np.ones((n, 0))
    if n_walls:
        cand_a, cand_d = [], []
        for w in range(n_walls):
            offset = np.dot(tx - p1[w], normals[w])
            if abs(offset) < 1e-12:
                continue
            image = _oracle_mirror(tx, p1[w], normals[w])
            t, u, ok = _oracle_segment_params(image, rx, p1[w], p2[w])
            valid = ok & (t > _EPS_T) & (t < 1.0 - _EPS_T) & (u >= 0.0) & (u <= 1.0)
            q = image + t[:, None] * (rx - image)
            length = np.linalg.norm(rx - image, axis=1)
            with np.errstate(invalid="ignore", divide="ignore"):
                cos_inc = np.abs(_dot(rx - image, normals[w])) / length
            refl = walls[w].max_reflection * cos_inc
            amp = (
                friis(np.maximum(length, 1e-12), fc)
                * refl
                * _oracle_crossing_factors(tx, q, geom, exclude=(w,))
                * _oracle_crossing_factors(q, rx, geom, exclude=(w,))
            )
            cand_a.append(np.where(valid, amp, 0.0))
            cand_d.append(length / SPEED_OF_LIGHT)
        if cand_a:
            first_amp, first_delay = top_k(
                np.stack(cand_a, axis=1), np.stack(cand_d, axis=1), propagation.MAX_FIRST_ORDER
            )
    if first_amp.shape[1]:
        amps.append(first_amp)
        delays.append(first_delay)
        orders.append(np.ones(first_amp.shape[1], dtype=int))

    second_amp = np.zeros((n, 0))
    second_delay = np.ones((n, 0))
    if n_walls >= 2:
        cand_a, cand_d = [], []
        for w1 in range(n_walls):
            if abs(np.dot(tx - p1[w1], normals[w1])) < 1e-12:
                continue
            image1 = _oracle_mirror(tx, p1[w1], normals[w1])
            for w2 in range(n_walls):
                if w2 == w1:
                    continue
                if abs(np.dot(image1 - p1[w2], normals[w2])) < 1e-12:
                    continue
                image2 = _oracle_mirror(image1, p1[w2], normals[w2])
                t2, u2, ok2 = _oracle_segment_params(image2, rx, p1[w2], p2[w2])
                valid = ok2 & (t2 > _EPS_T) & (t2 < 1.0 - _EPS_T) & (u2 >= 0.0) & (u2 <= 1.0)
                q2 = image2 + t2[:, None] * (rx - image2)
                t1, u1, ok1 = _oracle_segment_params(image1, q2, p1[w1], p2[w1])
                valid &= ok1 & (t1 > _EPS_T) & (t1 < 1.0 - _EPS_T) & (u1 >= 0.0) & (u1 <= 1.0)
                q1 = image1 + t1[:, None] * (q2 - image1)
                length = np.linalg.norm(rx - image2, axis=1)
                leg2 = np.linalg.norm(q2 - image1, axis=1)
                with np.errstate(invalid="ignore", divide="ignore"):
                    cos2 = np.abs(_dot(rx - image2, normals[w2])) / length
                    cos1 = np.abs(_dot(q2 - image1, normals[w1])) / np.maximum(leg2, 1e-12)
                refl = (walls[w1].max_reflection * cos1) * (walls[w2].max_reflection * cos2)
                amp = (
                    friis(np.maximum(length, 1e-12), fc)
                    * refl
                    * _oracle_crossing_factors(tx, q1, geom, exclude=(w1,))
                    * _oracle_crossing_factors(q1, q2, geom, exclude=(w1, w2))
                    * _oracle_crossing_factors(q2, rx, geom, exclude=(w2,))
                )
                cand_a.append(np.where(valid, amp, 0.0))
                cand_d.append(length / SPEED_OF_LIGHT)
        if cand_a:
            second_amp, second_delay = top_k(
                np.stack(cand_a, axis=1), np.stack(cand_d, axis=1), propagation.MAX_SECOND_ORDER
            )
    if second_amp.shape[1]:
        amps.append(second_amp)
        delays.append(second_delay)
        orders.append(np.full(second_amp.shape[1], 2, dtype=int))

    return np.concatenate(amps, axis=1), np.concatenate(delays, axis=1), np.concatenate(orders)


def _tx_on_wall_plane():
    """Two vertical walls plus a divider at y = 20: three anchors on its plane,
    and every mirror of them through a vertical wall as well."""
    walls = canonical_walls(2) + (WallSegment(9.0, 20.0, 51.0, 20.0),)
    return replace(preset("indoor-fig4"), walls=walls)


def _custom_reflection_walls():
    """Mixed max_reflection values, so every bounce position has sequences
    on walls with different coefficients."""
    walls = tuple(
        replace(w, max_reflection=m)
        for w, m in zip(canonical_walls(6), (0.3, 0.9, 0.7, 0.5, 0.7, 1.0))
    )
    return replace(preset("indoor-dense", bandwidth_hz=200e6), walls=walls)


def _slanted_walls():
    """Three walls at odd angles: normals with two nonzero components, so
    the incidence cosine rounds like a general dot product."""
    walls = (
        WallSegment(8.0, 5.0, 22.0, 34.0),
        WallSegment(30.0, 36.0, 52.0, 24.0),
        WallSegment(35.0, 4.0, 55.0, 15.0),
    )
    return replace(preset("indoor-fig4"), walls=walls)


_ORACLE_SCENARIOS = {
    "fig4-20MHz": lambda: preset("indoor-fig4"),
    "fig4-200MHz": lambda: preset("indoor-fig4", bandwidth_hz=200e6),
    "fig4-700MHz": lambda: preset("indoor-fig4", bandwidth_hz=700e6),
    **{
        f"dense-200MHz-w{w}": (
            lambda w=w: preset("indoor-dense", bandwidth_hz=200e6, wall_count=w)
        )
        for w in range(7)
    },
    "freespace": lambda: preset("freespace"),
    "dense-7tx": lambda: preset("indoor-dense", n_transmitters=7),
    "tx-on-wall-plane": _tx_on_wall_plane,
    "custom-reflection": _custom_reflection_walls,
    "slanted": _slanted_walls,
}


@pytest.mark.parametrize("name", sorted(_ORACLE_SCENARIOS))
def test_wall_sequence_tracer_matches_two_block_oracle(name, monkeypatch):
    """Bit-identical rays, taps, pilot powers and map values on 2,000 points."""
    scn = _ORACLE_SCENARIOS[name]()
    pts = sample_sensor_locations(scn, 2000, np.random.default_rng(17))
    geom = propagation._wall_geometry(scn)
    for tx in scn.tx_positions():
        got = propagation._trace_tx(scn, tx, pts, geom)
        want = _two_block_trace_tx(scn, tx, pts, geom)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
    new_tables = simulate_points(scn, pts)
    new_paths = [trace_paths(scn, tx, p) for tx in scn.tx_positions() for p in pts[:4]]
    monkeypatch.setattr(propagation, "_trace_tx", _two_block_trace_tx)
    old_tables = simulate_points(scn, pts)
    old_paths = [trace_paths(scn, tx, p) for tx in scn.tx_positions() for p in pts[:4]]
    for field in ("channels", "pilot_powers", "true_power"):
        assert np.array_equal(getattr(new_tables, field), getattr(old_tables, field))
    assert new_paths == old_paths


def test_traced_rows_do_not_depend_on_their_batch(monkeypatch):
    """A row's rays equal its 1-row call, and the row blocking changes
    nothing, for axis-aligned and for slanted walls."""
    for name in ("fig4-20MHz", "slanted"):
        scn = _ORACLE_SCENARIOS[name]()
        grid = evaluation_grid(scn)[0]
        rng = np.random.default_rng(29)
        pts = grid[rng.choice(grid.shape[0], 2000, replace=False)]
        pts = pts + rng.uniform(-0.5, 0.5, pts.shape)
        geom = propagation._wall_geometry(scn)
        txs = scn.tx_positions()
        batch = [propagation._trace_tx(scn, tx, pts, geom) for tx in txs]
        for i, p in enumerate(pts):  # one transmitter per row, in turn
            k = i % len(txs)
            got = propagation._trace_tx(scn, txs[k], p[None, :], geom)
            for g, w in zip(got[:2], batch[k][:2]):
                assert np.array_equal(g[0], w[i]), (name, i)
        with monkeypatch.context() as patch:
            patch.setattr(propagation, "_BLOCK_ENTRIES", 997)  # several blocks plus a remainder
            for tx, want in zip(txs, batch):
                for g, w in zip(propagation._trace_tx(scn, tx, pts, geom), want):
                    assert np.array_equal(g, w), name


@pytest.mark.parametrize("name", ["fig4-20MHz", "dense-200MHz-w5", "custom-reflection", "slanted"])
def test_taps_are_synthesized_on_first_read(name, monkeypatch):
    """simulate_points traces powers without synthesizing a tap; the first
    read of ``channels`` gives the taps of each transmitter's own rays, bit
    for bit.  true_power is the 1-row case of simulate_points."""
    scn = _ORACLE_SCENARIOS[name]()
    pts = sample_sensor_locations(scn, 500, np.random.default_rng(31))

    def no_taps(*args):
        raise AssertionError("a trace synthesized channel taps before they were read")

    with monkeypatch.context() as patch:
        patch.setattr(propagation, "_batch_channels", no_taps)
        tables = simulate_points(scn, pts)
        assert tables.pilot_powers.shape == (500, scn.n_transmitters)
    geom = propagation._wall_geometry(scn)
    eager = np.zeros((500, scn.n_transmitters, scn.num_samples), dtype=complex)
    for l, tx in enumerate(scn.tx_positions()):
        eager[:, l, :] = propagation._batch_channels(
            scn, (propagation._trace_tx(scn, tx, pts, geom)[:2],)
        )[:, 0]
    assert tables.channels.tobytes() == eager.tobytes()
    assert tables.channels is tables.channels
    assert [true_power(scn, p) for p in pts[:20]] == tables.true_power[:20].tolist()
    with pytest.raises(DomainError):
        true_power(scn, (1e3, 1e3))
    with pytest.raises(DomainError):
        true_power(scn, scn.tx_positions()[0])


# ---------------------------------------------------------------------------
# discretize_channel
# ---------------------------------------------------------------------------


def _channel_scenario(k=8, bandwidth=1e6, carrier=1e6):
    return Scenario(
        region=(0, 0, 10, 10),
        transmitters=(Transmitter(5, 5),),
        bandwidth_hz=bandwidth,
        carrier_hz=carrier,
        num_samples=k,
        noise_variance=0.0,
    )


def test_discretize_integer_delay_collapses_to_kronecker():
    scn = _channel_scenario(k=8, bandwidth=1e6, carrier=1e6)
    t = scn.sample_period
    taps = discretize_channel([PathComponent(1.0, 3 * t, 0)], scn)
    expected = np.zeros(8, dtype=complex)
    expected[3] = 1.0  # f_c * t = 3 -> phase term is exactly 1
    assert np.allclose(taps, expected, atol=1e-15)


def test_discretize_magnitude_ignores_carrier_phase():
    scn = _channel_scenario(k=8, bandwidth=1e6, carrier=812.37e6)
    t = scn.sample_period
    taps = discretize_channel([PathComponent(1.0, 3 * t, 0)], scn)
    assert abs(taps[3]) == pytest.approx(1.0, abs=1e-12)
    others = np.delete(np.abs(taps), 3)
    assert np.all(others < 1e-12)


def test_discretize_matches_scalar_sum_of_sincs():
    scn = _channel_scenario(k=16, bandwidth=5e6, carrier=791.3e6)
    t = scn.sample_period
    paths = [PathComponent(1.0, 2.0 * t, 0), PathComponent(0.5, 2.5 * t, 1)]
    taps = discretize_channel(paths, scn)

    def sinc(x):
        return 1.0 if x == 0 else math.sin(math.pi * x) / (math.pi * x)

    for k in range(16):
        expected = 0.0 + 0.0j
        for p in paths:
            phase = complex(
                math.cos(-2 * math.pi * scn.carrier_hz * p.delay),
                math.sin(-2 * math.pi * scn.carrier_hz * p.delay),
            )
            expected += p.amplitude * phase * sinc(k - p.delay / t)
        assert taps[k] == pytest.approx(expected, abs=1e-12)


def _scalar_discretize(paths, scenario):
    """The per-path loop discretize_channel replaced: the reference."""
    taps = np.zeros(scenario.num_samples, dtype=complex)
    k_grid = np.arange(scenario.num_samples)
    for p in paths:
        phase = np.exp(-2j * np.pi * scenario.carrier_hz * p.delay)
        taps += p.amplitude * phase * np.sinc(k_grid - p.delay / scenario.sample_period)
    return taps


def test_discretize_equals_scalar_loop_on_traced_paths(indoor):
    """Bit-identical taps on multipath indoor rays, at 20 and 200 MHz."""
    rng = np.random.default_rng(5)
    rx_points = sample_sensor_locations(indoor, 20, rng)
    path_counts = []
    for scn in (indoor, replace(indoor, bandwidth_hz=200e6, num_samples=100)):
        for tx in scn.tx_positions():
            for rx in rx_points:
                paths = trace_paths(scn, tx, rx)
                path_counts.append(len(paths))
                assert np.array_equal(discretize_channel(paths, scn), _scalar_discretize(paths, scn))
    assert np.median(path_counts) >= 5


def test_discretize_empty_paths_gives_zero_channel():
    scn = _channel_scenario()
    assert np.array_equal(discretize_channel([], scn), np.zeros(8, dtype=complex))


TAP_WINDOW = r"path delays exceed the tap window \(t/T > K-1\)"


def test_discretize_overflow_warns_but_keeps_path():
    scn = _channel_scenario(k=4, bandwidth=1e6)
    t = scn.sample_period
    with pytest.warns(UserWarning, match=TAP_WINDOW):
        taps = discretize_channel([PathComponent(1.0, 9.5 * t, 0)], scn)
    assert np.linalg.norm(taps) > 0


def test_traced_overflow_warns_from_both_channel_paths():
    """A point whose direct ray arrives after the tap window warns on the
    first read of simulate_points' channels, not at the trace, and from
    discretize_channel(trace_paths(...)); a point inside the window warns
    from neither."""
    # T = 50 ns, so the window (K-1) T holds 30 m of path.
    scn = Scenario(
        region=(0.0, 0.0, 60.0, 40.0),
        transmitters=(Transmitter(5.0, 20.0),),
        bandwidth_hz=20e6,
        num_samples=3,
        noise_variance=0.0,
    )
    tx = scn.tx_positions()[0]
    far, near = np.array([50.0, 20.0]), np.array([20.0, 20.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tables = simulate_points(scn, far[None, :])
        assert tables.true_power.shape == (1,)
    with pytest.warns(UserWarning, match=TAP_WINDOW):
        tables.channels
    with pytest.warns(UserWarning, match=TAP_WINDOW):
        discretize_channel(trace_paths(scn, tx, far), scn)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        simulate_points(scn, near[None, :]).channels
        discretize_channel(trace_paths(scn, tx, near), scn)


def test_tap_window_warning_names_the_caller_once():
    """One channels read past the tap window warns once, not once per
    transmitter, and names the first line outside the package that asked
    for the taps: a direct read, a read through a grid, a training draw and
    discretize_channel alike."""
    scn = replace(preset("indoor-fig4"), num_samples=2)
    tables = simulate_points(scn, np.array([[20.0, 20.0]]))
    grid = precompute_grid(scn, 20.0)
    config = ExperimentConfig(scenario=scn, n_train=5, seed=0)
    paths = trace_paths(scn, scn.tx_positions()[0], (20.0, 20.0))
    for read in (
        lambda: tables.channels,
        lambda: grid.channels,
        lambda: _draw_training(config, 0.0, 0),
        lambda: discretize_channel(paths, scn),
    ):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            read()
        assert [w.filename for w in caught] == [__file__]
        assert re.search(TAP_WINDOW, str(caught[0].message))


def test_tap_magnitudes_invariant_to_carrier_on_grid_delays():
    t = 1e-6
    paths = [PathComponent(1.0, 2 * t, 0), PathComponent(0.4, 5 * t, 1)]
    mags = []
    for carrier in (1e6, 537e6, 800e6):
        scn = _channel_scenario(k=10, bandwidth=1e6, carrier=carrier)
        mags.append(np.abs(discretize_channel(paths, scn)))
    assert np.allclose(mags[0], mags[1], atol=1e-12)
    assert np.allclose(mags[0], mags[2], atol=1e-12)


# ---------------------------------------------------------------------------
# pilot synthesis
# ---------------------------------------------------------------------------


def test_noiseless_pilot_matrix_equals_channel(free_space):
    rng = np.random.default_rng(0)
    pilot = synthesize_pilot_matrix(free_space, (30.0, 0.0), rng)
    taps = discretize_channel(trace_paths(free_space, (0.0, 0.0), (30.0, 0.0)), free_space)
    assert np.array_equal(pilot[0], taps)


def test_pilot_matrix_shape_matches_preset(indoor):
    rng = np.random.default_rng(1)
    pilot = synthesize_pilot_matrix(indoor, (33.0, 22.0), rng)
    assert pilot.shape == (5, 10)


def test_pilot_noise_power_calibration(free_space):
    sigma2 = 4e-9
    noisy = Scenario(
        region=free_space.region,
        transmitters=free_space.transmitters,
        noise_variance=sigma2,
        num_samples=32,
    )
    rng = np.random.default_rng(42)
    tables = simulate_points(noisy, np.array([[30.0, 0.0]]))
    clean = tables.channels[0]
    draws = 400
    samples = np.empty((draws, clean.size))
    for i in range(draws):
        pilot = synthesize_pilot_matrix(noisy, (30.0, 0.0), rng)
        samples[i] = np.abs(pilot - clean).ravel() ** 2
    mean_power = samples.mean()
    n = samples.size
    std_err = sigma2 / math.sqrt(n)  # var(|w|^2) = sigma^4 for circular Gaussian
    assert abs(mean_power - sigma2) < 3 * std_err


@pytest.mark.parametrize(
    "name, bandwidth, walls", [("indoor-fig4", 20e6, None), ("indoor-dense", 200e6, 5)]
)
def test_pilot_noise_matches_two_normal_draws(name, bandwidth, walls):
    """One standard-normal draw for both parts gives the bytes (signs
    included) of normal(0, s) for the real part plus 1j * normal(0, s) for
    the imaginary part, and leaves the generator where those draws did."""
    scn = preset(name, bandwidth_hz=bandwidth, wall_count=walls)
    shape = (300, scn.n_transmitters, scn.num_samples)
    rng, ref_rng = np.random.default_rng(17), np.random.default_rng(17)
    noise = pilot_noise(scn, shape, rng)
    scale = np.sqrt(scn.noise_variance / 2.0)
    ref = ref_rng.normal(0.0, scale, shape) + 1j * ref_rng.normal(0.0, scale, shape)
    assert noise.dtype == ref.dtype and noise.shape == ref.shape
    assert noise.view(float).tobytes() == ref.view(float).tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_pilot_matrix_deterministic(indoor):
    a = synthesize_pilot_matrix(indoor, (33.0, 22.0), np.random.default_rng(9))
    b = synthesize_pilot_matrix(indoor, (33.0, 22.0), np.random.default_rng(9))
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# power map
# ---------------------------------------------------------------------------


def test_free_space_inverse_square_law(free_space):
    p1 = true_power(free_space, (10.0, 0.0))
    p2 = true_power(free_space, (20.0, 0.0))
    assert p1 - p2 == pytest.approx(20.0 * math.log10(2.0), rel=1e-9)


def test_true_power_near_field_rejected(free_space):
    with pytest.raises(DomainError):
        true_power(free_space, (0.5 * free_space.wavelength, 0.0))


def _scalar_power_oracle(scn, x):
    """Per-pixel re-trace with independent scalar geometry (direct + single
    mirror off one wall), for a one-wall scenario."""
    total = 0.0
    wall = scn.walls[0]
    assert wall.x1 == wall.x2  # vertical wall
    for tx in scn.transmitters:
        d = math.hypot(x[0] - tx.x, x[1] - tx.y)
        amp = SPEED_OF_LIGHT / (4 * math.pi * scn.carrier_hz * d)
        crosses = (tx.x - wall.x1) * (x[0] - wall.x1) < 0
        if crosses:
            t_cross = (wall.x1 - tx.x) / (x[0] - tx.x)
            y_cross = tx.y + t_cross * (x[1] - tx.y)
            if wall.y1 <= y_cross <= wall.y2 or wall.y2 <= y_cross <= wall.y1:
                amp *= 10 ** (-wall.loss_db / 20)
        total += tx.power_w * amp**2
        # single-bounce image across the wall line
        image = (2 * wall.x1 - tx.x, tx.y)
        same_side = (tx.x - wall.x1) * (x[0] - wall.x1) > 0
        if same_side:
            length = math.hypot(x[0] - image[0], x[1] - image[1])
            t_hit = (wall.x1 - image[0]) / (x[0] - image[0])
            y_hit = image[1] + t_hit * (x[1] - image[1])
            lo, hi = sorted((wall.y1, wall.y2))
            if 0 < t_hit < 1 and lo <= y_hit <= hi:
                cos_inc = abs(x[0] - image[0]) / length
                refl = wall.max_reflection * cos_inc
                amp_r = SPEED_OF_LIGHT / (4 * math.pi * scn.carrier_hz * length) * refl
                total += tx.power_w * amp_r**2
    return 10 * math.log10(total)


def test_power_map_matches_scalar_retrace_oracle():
    scn = Scenario(
        region=(0, 0, 40, 30),
        walls=(WallSegment(20.0, 2.0, 20.0, 28.0, loss_db=5.0, max_reflection=0.6),),
        transmitters=(Transmitter(5.0, 15.0), Transmitter(35.0, 10.0)),
        noise_variance=0.0,
    )
    probes = [(10.0, 10.0), (25.0, 20.0), (30.0, 5.0), (12.0, 25.0)]
    for x in probes:
        assert true_power(scn, x) == pytest.approx(_scalar_power_oracle(scn, x), rel=1e-9)


# ---------------------------------------------------------------------------
# sensor sampling and noisy measurements
# ---------------------------------------------------------------------------


def test_sample_sensor_locations_respects_exclusion(indoor):
    rng = np.random.default_rng(3)
    pts = sample_sensor_locations(indoor, 300, rng)
    assert pts.shape == (300, 2)
    assert np.all(indoor.far_field(pts))
    assert np.all(indoor.contains(pts))


def test_sample_sensor_locations_deterministic(indoor):
    a = sample_sensor_locations(indoor, 1, np.random.default_rng(5))
    b = sample_sensor_locations(indoor, 1, np.random.default_rng(5))
    assert np.array_equal(a, b)


def test_min_distance_over_many_draws(indoor):
    rng = np.random.default_rng(11)
    pts = sample_sensor_locations(indoor, 10_000, rng)
    txs = indoor.tx_positions()
    d = np.linalg.norm(pts[:, None, :] - txs[None], axis=2).min()
    assert d >= 3.0 * SPEED_OF_LIGHT / indoor.carrier_hz


def test_exclusion_covering_region_is_configuration_error():
    tiny = Scenario(
        region=(0.0, 0.0, 0.5, 0.5),
        transmitters=(Transmitter(0.25, 0.25),),
        carrier_hz=800e6,  # 3 wavelengths = 1.12 m covers the whole region
    )
    with pytest.raises(ConfigurationError):
        sample_sensor_locations(tiny, 10, np.random.default_rng(0))


def test_measurement_noise_free_case(free_space):
    """Training targets without measurement noise are the true map values."""
    world = _draw_training(ExperimentConfig(free_space, n_train=20), 0.0, 0)
    assert world.targets.tolist() == [true_power(free_space, p) for p in world.train_points]


def test_measurement_noise_variance(free_space):
    """Training targets add N(0, sigma_eps^2) dB to the true map values."""
    sigma = 0.7
    world = _draw_training(ExperimentConfig(free_space, n_train=10_000, seed=21), sigma, 0)
    truth = simulate_points(free_space, world.train_points).true_power
    draws = world.targets
    sample_var = np.var(draws - truth, ddof=1)
    std_err = sigma**2 * math.sqrt(2.0 / (len(draws) - 1))
    assert abs(sample_var - sigma**2) < 3 * std_err


def test_snr_rule_is_exact_by_construction(indoor_grid):
    p_bar = indoor_grid.p_bar
    sigma = measurement_noise_std(p_bar)
    snr = 10.0 * math.log10(p_bar**2 / sigma**2)
    assert snr == pytest.approx(40.0, abs=0.01)
