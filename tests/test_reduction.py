import numpy as np
import pytest

from conftest import grid_aligned_free_space
from locfree.errors import ConfigurationError
from locfree.features import feature_matrix_nosync, pair_indices
from locfree.propagation import sample_sensor_locations, simulate_points
from locfree.reduction import (
    ReducedBasis,
    center,
    project,
    reduce_features,
    select_rank,
)
from locfree.scenario import Scenario, Transmitter


def tdoa_matrix(scenario, points):
    """Exact range-difference features from direct free-space geometry."""
    txs = scenario.tx_positions()
    d = np.linalg.norm(np.asarray(points)[:, None, :] - txs[None], axis=2)
    pairs = pair_indices(len(txs))
    return np.stack([d[:, i] - d[:, j] for i, j in pairs], axis=0)


def free_space_scenario(n_tx, seed=0):
    rng = np.random.default_rng(seed)
    txs = rng.uniform((2, 2), (58, 38), size=(n_tx, 2))
    return Scenario(
        region=(0.0, 0.0, 60.0, 40.0),
        transmitters=tuple(Transmitter(x, y) for x, y in txs),
        noise_variance=0.0,
    )


def test_center_constant_matrix():
    const = np.full((3, 5), 4.2)
    mean, centered = center(const)
    assert np.allclose(mean, 4.2)
    assert np.allclose(centered, 0.0, atol=1e-15)


def test_center_idempotent_and_invertible():
    rng = np.random.default_rng(0)
    f = rng.normal(size=(4, 9))
    mean, centered = center(f)
    assert np.max(np.abs(centered.mean(axis=1))) < 1e-12
    mean2, centered2 = center(centered)
    assert np.allclose(centered2, centered, atol=1e-12)
    assert np.array_equal(centered + mean[:, None], f) or np.allclose(
        centered + mean[:, None], f, atol=1e-12
    )


def test_select_rank_examples():
    assert select_rank([10.0, 1e-6, 1e-7], eta=0.99) == 1
    assert select_rank([3.0, 2.0, 1.0], eta=1.0) == 3
    with pytest.raises(ConfigurationError):
        select_rank([0.0, 0.0], eta=0.9)
    with pytest.raises(ConfigurationError):
        select_rank([1.0], eta=0.0)


def test_select_rank_boundary():
    # energies 4 and 1: one value reaches exactly 80%
    assert select_rank([2.0, 1.0], eta=0.8) == 1
    assert select_rank([2.0, 1.0], eta=0.81) == 2


def test_reduce_rank_one_matrix_exact():
    u = np.array([1.0, 2.0, -1.0])
    v = np.linspace(-1, 1, 8)
    matrix = np.outer(u, v)
    basis, reduced = reduce_features(matrix, eta=0.99)
    assert basis.rank == 1
    centered = matrix - matrix.mean(axis=1, keepdims=True)
    recon = basis.vectors @ reduced
    assert np.allclose(recon, centered, atol=1e-10)


def test_reduce_requires_exactly_one_selector():
    with pytest.raises(ConfigurationError):
        reduce_features(np.eye(3))
    with pytest.raises(ConfigurationError):
        reduce_features(np.eye(3), eta=0.9, rank=2)


def test_noiseless_tdoa_matrix_has_tiny_tail_energy():
    scn = free_space_scenario(5, seed=1)
    pts = sample_sensor_locations(scn, 200, np.random.default_rng(2))
    matrix = tdoa_matrix(scn, pts)
    basis, _ = reduce_features(matrix, rank=4)
    s = basis.singular_values
    tail = np.sum(s[4:] ** 2) / np.sum(s**2)
    assert tail <= 1e-20


def test_energy_split_identities():
    rng = np.random.default_rng(3)
    matrix = rng.normal(size=(6, 30))
    basis, reduced = reduce_features(matrix, rank=4)
    _, centered = center(matrix)
    s = basis.singular_values
    # projected energy equals the kept spectrum energy
    assert np.sum(reduced**2) == pytest.approx(np.sum(s[:4] ** 2), rel=1e-10)
    # reconstruction error equals the tail spectrum energy
    recon = basis.vectors @ reduced
    err = np.sum((centered - recon) ** 2)
    assert err == pytest.approx(np.sum(s[4:] ** 2), rel=1e-8)
    # orthogonal split preserves total energy
    assert np.sum(reduced**2) + err == pytest.approx(np.sum(centered**2), rel=1e-8)


def test_nested_reconstruction_error_nonincreasing():
    rng = np.random.default_rng(4)
    matrix = rng.normal(size=(6, 25))
    _, centered = center(matrix)
    errors = []
    for rank in range(1, 7):
        basis, reduced = reduce_features(matrix, rank=rank)
        errors.append(np.sum((centered - basis.vectors @ reduced) ** 2))
    assert all(a >= b - 1e-10 for a, b in zip(errors, errors[1:]))


@pytest.mark.parametrize("n_tx", [3, 4, 5, 7])
def test_uncentered_tdoa_rank_law(n_tx):
    scn = free_space_scenario(n_tx, seed=n_tx)
    pts = sample_sensor_locations(scn, 200, np.random.default_rng(5))
    matrix = tdoa_matrix(scn, pts)
    s = np.linalg.svd(matrix, compute_uv=False)
    rank = np.sum(s > 1e-9 * s[0])
    assert rank <= n_tx - 1


def test_project_examples():
    rng = np.random.default_rng(6)
    matrix = rng.normal(size=(5, 20))
    basis, _ = reduce_features(matrix, rank=3)
    assert np.allclose(project(basis, basis.mean), 0.0, atol=1e-12)
    phi = basis.mean + 5.0 * basis.vectors[:, 0]
    out = project(basis, phi)
    assert out == pytest.approx([5.0, 0.0, 0.0], abs=1e-10)
    # scalar-loop oracle
    phi = rng.normal(size=5)
    expected = [(phi - basis.mean) @ basis.vectors[:, j] for j in range(3)]
    assert project(basis, phi) == pytest.approx(expected, rel=1e-12)


def test_project_dimension_mismatch():
    basis, _ = reduce_features(np.eye(4), rank=2)
    with pytest.raises(ValueError, match="dimension"):
        project(basis, np.zeros(3))


def test_basis_sign_flip_does_not_change_predictions():
    from locfree.kernels import GaussianKernel, fit, predict, with_basis

    rng = np.random.default_rng(7)
    matrix = rng.normal(size=(6, 30))
    targets = rng.normal(size=30)
    basis, reduced = reduce_features(matrix, rank=3)
    flipped = ReducedBasis(
        mean=basis.mean,
        vectors=basis.vectors * np.array([1.0, -1.0, 1.0]),
        singular_values=basis.singular_values,
    )
    reduced_f = flipped.vectors.T @ (matrix - basis.mean[:, None])
    kernel = GaussianKernel(1.0)
    a = with_basis(fit(reduced, targets, kernel, 1e-3), basis)
    b = with_basis(fit(reduced_f, targets, kernel, 1e-3), flipped)
    queries = rng.normal(size=(6, 8))
    assert np.allclose(predict(a, queries), predict(b, queries), atol=1e-9)


def test_deterministic_sign_convention():
    rng = np.random.default_rng(8)
    matrix = rng.normal(size=(5, 20))
    basis, _ = reduce_features(matrix, rank=3)
    for j in range(3):
        col = basis.vectors[:, j]
        assert col[np.argmax(np.abs(col))] > 0


def test_com_features_lie_near_low_dimensional_subspace():
    """Noisy band-limited pairwise features still concentrate in L-1 dims."""
    scn = grid_aligned_free_space([2, 5, 8, 11], k=16)
    rng = np.random.default_rng(10)
    region = scn.region
    pts = rng.uniform((region[0] + 1, region[1] + 1), (region[2] - 1, region[3] - 1), (150, 2))
    pts = pts[scn.far_field(pts)]
    tables = simulate_points(scn, pts)
    matrix = feature_matrix_nosync(tables.channels, scn.sample_period)
    basis, _ = reduce_features(matrix, eta=0.99)
    assert basis.rank <= 3
