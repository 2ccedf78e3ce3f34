import numpy as np
import pytest

from conftest import difference_sqdist, objective_value
from locfree import kernels
from locfree.errors import SolverError
from locfree.kernels import (
    FittedMap,
    GaussianKernel,
    fit,
    load_model,
    predict,
    save_model,
    with_basis,
)


def _random_instance(rng, n, m, sigma=None):
    features = rng.uniform(0.0, 10.0, size=(m, n))
    targets = rng.normal(-50.0, 3.0, size=n)
    kernel = GaussianKernel(sigma if sigma is not None else rng.uniform(0.5, 2.0))
    return features, targets, kernel


def test_kernel_requires_positive_sigma():
    with pytest.raises(ValueError):
        GaussianKernel(0.0)


@pytest.mark.parametrize("sigma", [np.inf, np.nan])
def test_kernel_rejects_nonfinite_sigma(sigma):
    with pytest.raises(ValueError, match="sigma must be finite"):
        GaussianKernel(sigma)


@pytest.mark.parametrize("lam", [np.inf, np.nan, -1e-3])
def test_fit_rejects_nonfinite_or_negative_lambda(lam):
    """An infinite ridge weight solved to an all-NaN alpha."""
    features, targets, kernel = _random_instance(np.random.default_rng(4), n=20, m=3)
    with pytest.raises(ValueError, match="lambda must be finite and >= 0"):
        fit(features, targets, kernel, lam)


def test_kernel_unit_diagonal_and_range():
    rng = np.random.default_rng(0)
    f = rng.normal(size=(3, 6))
    k = GaussianKernel(1.5)(f, f)
    assert np.allclose(np.diag(k), 1.0)
    assert np.all((k > 0) & (k <= 1.0 + 1e-15))


def test_gram_single_column_is_one():
    f = np.array([[1.0], [2.0]])
    k = GaussianKernel(1.0)(f, f)
    assert np.array_equal(k, np.array([[1.0]]))


def test_gram_identical_columns_all_ones():
    f = np.array([[1.0, 1.0], [2.0, 2.0]])
    assert np.allclose(GaussianKernel(0.7)(f, f), np.ones((2, 2)))


def test_gram_symmetric_psd_matches_elementwise():
    rng = np.random.default_rng(1)
    f = rng.normal(size=(4, 5))
    k = GaussianKernel(1.2)(f, f)
    assert np.allclose(k, k.T, atol=1e-15)
    assert np.linalg.eigvalsh(k).min() >= -1e-10
    assert np.allclose(k, np.exp(-difference_sqdist(f, f) / (2 * 1.2**2)), rtol=1e-12, atol=0)


@pytest.mark.parametrize("scale", [1.0, 30.0, 1e8])
@pytest.mark.parametrize("m", [2, 4, 10])
def test_gram_is_the_kernel_exactly_symmetric_with_unit_diagonal(m, scale):
    """kernel(f, f), the Gram matrix fit solves with, is exactly symmetric
    with an exact unit diagonal, duplicate columns included, at in-region
    and far-out scales."""
    rng = np.random.default_rng(m)
    f = rng.normal(scale=scale, size=(m, 300))
    f[:, 150:160] = f[:, :10]
    k = GaussianKernel(1.2 * scale)(f, f)
    assert np.array_equal(k, k.T)
    assert np.all(np.diag(k) == 1.0)
    assert np.all(k[np.arange(10), np.arange(150, 160)] == 1.0)


@pytest.mark.parametrize("m,sigma", [(2, 0.5), (2, 9.0), (4, 85.0), (10, 37.0)])
def test_kernel_matches_difference_distances_in_region(m, sigma):
    """In-region columns (0-20 m coordinates) at the kernel widths of the
    presets, over blocks of the distance accumulation and a part block:
    the kernel has the difference oracle's bits."""
    rng = np.random.default_rng(m)
    a = rng.uniform(0.0, 20.0, size=(m, 300))
    b = rng.uniform(0.0, 20.0, size=(m, 400))
    b[:, :10] = a[:, :10]
    k = GaussianKernel(sigma)(a, b)
    assert np.array_equal(k, np.exp(np.divide(difference_sqdist(a, b), -2 * sigma**2)))
    assert np.all(k[np.arange(10), np.arange(10)] == 1.0)
    assert np.count_nonzero(k > 1e-3) > 100


@pytest.mark.parametrize("shape", [(1, 1, 300), (2, 300, 1), (4, 1, 300), (10, 300, 2375),
                                   (45, 30, 40)])
def test_distances_equal_cdist_bit_for_bit(shape):
    """The kernel's squared distances are scipy's sqeuclidean cdist, bit
    for bit, at the feature counts of the presets and across blocks, with
    far-out and NaN columns; unequal coordinate counts are a ValueError,
    as in cdist."""
    distance = pytest.importorskip("scipy.spatial.distance")
    m, na, nb = shape
    rng = np.random.default_rng(na + nb)
    a = rng.uniform(-40.0, 40.0, size=(m, na)) * 10.0 ** rng.integers(-3, 17, size=na)
    b = rng.uniform(-40.0, 40.0, size=(m, nb))
    b[:, -1] = np.nan
    assert np.array_equal(kernels._sqdist(a, b), distance.cdist(a.T, b.T, "sqeuclidean"),
                          equal_nan=True)
    with pytest.raises(ValueError):
        GaussianKernel(1.0)(a, b[:-1] if m > 1 else np.ones((2, nb)))


@pytest.mark.parametrize("order", ["far-in-a", "far-in-b"])
def test_far_out_columns_take_difference_distances(order):
    """Location estimates of a failed localization lie 1e8-1e17 m out.
    Equal far-out columns keep kernel exactly 1, distinct ones 0, and one
    0.3 m from another at 1e8 m its difference distance; a NaN column in
    the same call stays NaN and leaves the others alone."""
    far = np.array([[1e16, 1e16, -1e16, 1e8, 1e8 + 0.3, 5.0, np.nan],
                    [1e16, 1e16, 1e16, 2e8, 2e8, 5.0, 0.0]])
    inside = np.array([[1e16, 1e8, 5.0, 3.0], [1e16, 2e8, 5.0, 4.0]])
    kernel = GaussianKernel(0.5)
    a, b = (far, inside) if order == "far-in-a" else (inside, far)
    k = kernel(a, b)
    oracle = np.exp(np.divide(difference_sqdist(a, b), -0.5))
    assert np.array_equal(k, oracle, equal_nan=True)
    k = k if order == "far-in-a" else k.T
    assert np.all(k[:2, 0] == 1.0) and k[2, 0] == 0.0
    assert np.all(k[:3, 1:] == 0.0) and np.all(k[3:6, 0] == 0.0)
    assert k[3, 1] == 1.0 and k[4, 1] == pytest.approx(np.exp(-0.09 / 0.5), rel=1e-7)
    assert np.all(np.isnan(k[6]))
    assert np.array_equal(kernel(far[:, :6], far[:, :6])[:2, :2], np.ones((2, 2)))


def test_gram_rejects_nonfinite_features():
    """fit checks its features before it forms the Gram matrix."""
    f = np.array([[1.0, np.nan]])
    with pytest.raises(ValueError, match="training data must be finite"):
        fit(f, np.zeros(2), GaussianKernel(1.0), 1e-3)


def test_fit_diagonal_case_closed_form():
    # Far-apart columns underflow the kernel to exactly 0 -> K = I, and
    # (K + lambda*N*I) alpha = p with lambda=0.5, N=2 gives alpha = p / 2.
    features = np.array([[0.0, 1e6]])
    targets = np.array([3.0, 3.0])
    fitted = fit(features, targets, GaussianKernel(1.0), lam=0.5)
    assert np.allclose(fitted.alpha, [1.5, 1.5], atol=1e-12)


def test_fit_interpolates_as_lambda_vanishes():
    rng = np.random.default_rng(2)
    features, targets, kernel = _random_instance(rng, n=40, m=3, sigma=0.8)
    fitted = fit(features, targets, kernel, lam=0.0)
    predictions = predict(fitted, features)
    assert np.max(np.abs(predictions - targets)) < 1e-6


def test_fit_lambda_zero_singular_advises_regularization():
    features = np.array([[1.0, 1.0], [2.0, 2.0]])  # duplicate columns -> singular K
    with pytest.raises(SolverError, match="lambda > 0"):
        fit(features, np.array([1.0, 2.0]), GaussianKernel(1.0), lam=0.0)


def _failing_solve(*args, **kwargs):
    raise np.linalg.LinAlgError("Singular matrix")


def test_fit_falls_back_to_lstsq_when_solve_fails(monkeypatch):
    rng = np.random.default_rng(4)
    features, targets, kernel = _random_instance(rng, n=60, m=3)
    lam = 1e-3
    monkeypatch.setattr(kernels.np.linalg, "solve", _failing_solve)
    fitted = fit(features, targets, kernel, lam)
    system = kernel(features, features) + lam * targets.size * np.eye(targets.size)
    expected, *_ = np.linalg.lstsq(system, targets, rcond=None)
    assert np.array_equal(fitted.alpha, expected)


def test_fit_falls_back_to_lstsq_on_a_nan_solve(monkeypatch):
    """A NaN residual fails the residual check, as a large one does."""
    rng = np.random.default_rng(4)
    features, targets, kernel = _random_instance(rng, n=60, m=3)
    monkeypatch.setattr(kernels.np.linalg, "solve", lambda a, b: np.full_like(b, np.nan))
    fitted = fit(features, targets, kernel, 1e-3)
    system = kernel(features, features) + 1e-3 * targets.size * np.eye(targets.size)
    expected, *_ = np.linalg.lstsq(system, targets, rcond=None)
    assert np.array_equal(fitted.alpha, expected)


def test_fit_raises_on_a_nan_fallback(monkeypatch):
    rng = np.random.default_rng(4)
    features, targets, kernel = _random_instance(rng, n=60, m=3)
    monkeypatch.setattr(kernels.np.linalg, "solve", _failing_solve)
    monkeypatch.setattr(kernels.np.linalg, "lstsq",
                        lambda a, b, rcond=None: (np.full_like(b, np.nan), None, None, None))
    with pytest.raises(SolverError, match="did not reach the required residual"):
        fit(features, targets, kernel, lam=1e-3)


def test_fit_fallback_runs_lstsq_once_before_raising(monkeypatch):
    rng = np.random.default_rng(4)
    features, targets, kernel = _random_instance(rng, n=60, m=3)
    calls = []

    def poor_lstsq(a, b, rcond=None):
        calls.append(1)
        return np.zeros_like(b), None, None, None

    monkeypatch.setattr(kernels.np.linalg, "solve", _failing_solve)
    monkeypatch.setattr(kernels.np.linalg, "lstsq", poor_lstsq)
    with pytest.raises(SolverError, match="did not reach the required residual"):
        fit(features, targets, kernel, lam=1e-3)
    assert len(calls) == 1


def test_fit_residual_invariant():
    rng = np.random.default_rng(3)
    features, targets, kernel = _random_instance(rng, n=120, m=6)
    lam = 1e-4
    fitted = fit(features, targets, kernel, lam)
    n = targets.size
    system = kernel(features, features) + lam * n * np.eye(n)
    assert np.linalg.norm(system @ fitted.alpha - targets) <= 1e-8 * np.linalg.norm(targets)


def test_predict_matches_scalar_expansion():
    rng = np.random.default_rng(4)
    features, targets, kernel = _random_instance(rng, n=25, m=4)
    fitted = fit(features, targets, kernel, lam=1e-3)
    phi = rng.uniform(0, 10, size=4)
    expected = sum(
        a * np.exp(-np.sum((phi - features[:, i]) ** 2) / (2 * kernel.sigma**2))
        for i, a in enumerate(fitted.alpha)
    )
    assert predict(fitted, phi) == pytest.approx(expected, rel=1e-12)


def test_predict_decays_to_zero_far_from_training_data():
    rng = np.random.default_rng(5)
    features, targets, kernel = _random_instance(rng, n=10, m=2, sigma=1.0)
    fitted = fit(features, targets, kernel, lam=1e-3)
    assert predict(fitted, np.array([1e5, 1e5])) == 0.0


def test_predict_dimension_mismatch():
    fitted = fit(np.ones((2, 3)) * np.arange(3), np.zeros(3), GaussianKernel(1.0), 0.1)
    with pytest.raises(ValueError, match="dimension"):
        predict(fitted, np.zeros(5))


def test_objective_zero_for_interpolating_fit():
    rng = np.random.default_rng(6)
    features, targets, kernel = _random_instance(rng, n=30, m=3, sigma=0.7)
    fitted = fit(features, targets, kernel, lam=0.0)
    assert objective_value(fitted, features, targets) <= 1e-10 * np.sum(targets**2)


def test_objective_at_zero_coefficients():
    rng = np.random.default_rng(7)
    features, targets, kernel = _random_instance(rng, n=15, m=2)
    fitted = fit(features, targets, kernel, lam=1e-2)
    zeroed = FittedMap(
        kernel=kernel, lam=1e-2, features=features, alpha=np.zeros_like(fitted.alpha)
    )
    assert objective_value(zeroed, features, targets) == pytest.approx(
        np.mean(targets**2), rel=1e-12
    )


def test_objective_minimum_is_lambda_p_dot_alpha():
    """At alpha = (K + lambda N I)^-1 p the residual p - K alpha is
    lambda N alpha, so the objective is lambda alpha^T (K + lambda N I) alpha
    = lambda p^T alpha."""
    rng = np.random.default_rng(9)
    features, targets, kernel = _random_instance(rng, n=25, m=3)
    fitted = fit(features, targets, kernel, 1e-2)
    assert objective_value(fitted, features, targets) == pytest.approx(
        1e-2 * targets @ fitted.alpha, rel=1e-9
    )


def test_fitted_alpha_never_beaten_by_random_perturbations():
    rng = np.random.default_rng(8)
    features, targets, kernel = _random_instance(rng, n=20, m=3)
    lam = 1e-3
    fitted = fit(features, targets, kernel, lam)
    best = objective_value(fitted, features, targets)
    gram = kernel(features, features)
    n = targets.size
    for _ in range(100):
        delta = rng.normal(size=n)
        delta *= 1e-3 / np.linalg.norm(delta)
        alpha = fitted.alpha + delta
        resid = targets - gram @ alpha
        perturbed = resid @ resid / n + lam * alpha @ gram @ alpha
        assert perturbed >= best - 1e-12


def test_stationarity_residual_small_on_random_instances():
    rng = np.random.default_rng(9)
    for _ in range(10):
        n = int(rng.integers(5, 60))
        m = int(rng.integers(1, 8))
        features, targets, kernel = _random_instance(rng, n=n, m=m)
        lam = 10.0 ** rng.uniform(-5, -2)
        fitted = fit(features, targets, kernel, lam)
        gram = kernel(features, features)
        grad = (2.0 / n) * gram @ (gram @ fitted.alpha - targets) + 2 * lam * gram @ fitted.alpha
        assert np.linalg.norm(grad) <= 1e-6 * (1 + np.linalg.norm(targets))


def test_permutation_equivariance():
    rng = np.random.default_rng(10)
    features, targets, kernel = _random_instance(rng, n=18, m=3)
    lam = 1e-3
    fitted = fit(features, targets, kernel, lam)
    perm = rng.permutation(18)
    fitted_p = fit(features[:, perm], targets[perm], kernel, lam)
    assert np.allclose(fitted_p.alpha, fitted.alpha[perm], atol=1e-8)
    phi = rng.uniform(0, 10, size=3)
    assert predict(fitted_p, phi) == pytest.approx(predict(fitted, phi), rel=1e-9)


def test_rkhs_norm_shrinks_with_regularization():
    rng = np.random.default_rng(11)
    features, targets, kernel = _random_instance(rng, n=30, m=4)
    gram = kernel(features, features)

    def norm_h(lam):
        alpha = fit(features, targets, kernel, lam).alpha
        return alpha @ gram @ alpha

    lams = [1e-5, 1e-3, 1e-1, 10.0]
    norms = [norm_h(l) for l in lams]
    assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))


def test_wide_kernel_limit_is_ridge_shrunk_mean():
    rng = np.random.default_rng(12)
    features, targets, _ = _random_instance(rng, n=20, m=2)
    lam = 0.3
    fitted = fit(features, targets, GaussianKernel(1e9), lam)
    expected = targets.mean() / (1.0 + lam)
    assert predict(fitted, rng.uniform(0, 10, 2)) == pytest.approx(expected, rel=1e-6)


def test_center_targets_offsets_predictions():
    rng = np.random.default_rng(13)
    features, targets, kernel = _random_instance(rng, n=12, m=2, sigma=1.0)
    fitted = fit(features, targets, kernel, 1e-3, center_targets=True)
    assert fitted.target_mean == pytest.approx(targets.mean())
    far = predict(fitted, np.array([1e5, 1e5]))
    assert far == pytest.approx(targets.mean())


def test_model_round_trip_reproduces_predictions_bit_exactly(tmp_path):
    rng = np.random.default_rng(14)
    features, targets, kernel = _random_instance(rng, n=30, m=5)
    fitted = fit(features, targets, kernel, 2.2e-4)
    queries = rng.uniform(0, 10, size=(5, 7))
    path = tmp_path / "model.json"
    save_model(fitted, path)
    loaded = load_model(path)
    assert np.array_equal(predict(loaded, queries), predict(fitted, queries))


def test_model_round_trip_with_reduction_basis(tmp_path):
    from locfree.reduction import reduce_features

    rng = np.random.default_rng(15)
    raw = rng.normal(size=(6, 40))
    basis, reduced = reduce_features(raw, rank=3)
    targets = rng.normal(size=40)
    fitted = with_basis(fit(reduced, targets, GaussianKernel(1.0), 1e-3), basis)
    path = tmp_path / "model.json"
    save_model(fitted, path)
    loaded = load_model(path)
    queries = rng.normal(size=(6, 9))
    assert np.array_equal(predict(loaded, queries), predict(fitted, queries))


@pytest.mark.parametrize("estimator", ["locf", "locf_reduced", "locb"])
def test_saved_model_is_the_json_dump_document(estimator, tmp_path):
    """save_model writes the bytes json.dump writes for the model document,
    plus a newline, for a feature model, a reduced one with its basis and a
    location model; loading it back gives every array bit for bit."""
    import io
    import json

    from locfree import experiments
    from locfree.evaluation import _draw_training, fit_estimator
    from locfree.scenario import preset

    scn = preset("indoor-fig4")
    make = experiments._locb_config if estimator == "locb" else experiments._locf_config
    config = make(scn, estimator=estimator, n_train=60, seed=2,
                  **({"rank": 4} if estimator == "locf_reduced" else {}))
    fitted = fit_estimator(config, _draw_training(config, 0.0, 0))[0].fitted
    path = tmp_path / "model.json"
    save_model(fitted, path)
    reference = io.StringIO()
    json.dump(json.loads(path.read_text(encoding="utf-8")), reference)
    assert path.read_bytes() == (reference.getvalue() + "\n").encode("utf-8")
    loaded = load_model(path)
    assert (loaded.basis is None) == (estimator != "locf_reduced")
    for name in ("features", "alpha", "target_mean", "lam"):
        assert np.array_equal(getattr(loaded, name), getattr(fitted, name))
    assert loaded.kernel.sigma == fitted.kernel.sigma
    if loaded.basis is not None:
        for name in ("mean", "vectors", "singular_values"):
            assert np.array_equal(getattr(loaded.basis, name), getattr(fitted.basis, name))
