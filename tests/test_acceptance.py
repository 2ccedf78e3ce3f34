"""Acceptance suite: one test per release criterion.

Exact numerical properties run at fixed tolerances; the Monte Carlo
criteria reproduce the benchmark trends at desk scale (20 runs) with the
shipped experiment presets: criteria 5, 6 and 8 run a whole preset, and
criterion 7 runs two entries of ``fig10-reduced``, picked by label.  Every
test prints a single PASS/FAIL line (visible with ``pytest -s`` or on
failure).

The full module runs in about 110 seconds at two BLAS threads on two cores.
"""

import time

import numpy as np

from conftest import pooled_std, sample_identifiable_mask
from locfree import experiments
from locfree.completion import (
    CompletionConfig,
    IncompleteFeatureMatrix,
    build_recovery_context,
    gram_schmidt_basis,
    rls_recover_query,
    svp_complete,
)
from locfree.evaluation import NmseResult, precompute_grid, run_experiments
from locfree.features import com_impulse, estimate_toa, pair_indices
from locfree.kernels import GaussianKernel, fit, predict
from locfree.localization import AnchorSet, srdls_localize
from locfree.propagation import sample_sensor_locations, trace_paths
from locfree.scenario import Scenario, Transmitter


def _report(name, passed, detail):
    print(f"[{name}] {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# the Monte Carlo criteria's runs, seed and workers
# ---------------------------------------------------------------------------

RUNS = 20
SEED = 1


def _run_preset(name, out):
    """The summary of the shipped preset ``name`` at RUNS runs of seed SEED,
    on two workers, with its artifacts written into ``out``."""
    return experiments.run_preset(name, out, runs=RUNS, seed=SEED, jobs=2)


# ---------------------------------------------------------------------------
# 1. closed-form ridge solve: stationarity and interpolation
# ---------------------------------------------------------------------------


def test_criterion_1_krr_correctness():
    start = time.time()
    rng = np.random.default_rng(0)
    worst_grad, worst_interp = 0.0, 0.0
    for _ in range(50):
        # stationarity of the regularized solve: any conditioning goes
        n = int(rng.integers(5, 201))
        m = int(rng.integers(1, 11))
        features = rng.uniform(0.0, 10.0, size=(m, n))
        targets = rng.normal(-50.0, 3.0, size=n)
        kernel = GaussianKernel(rng.uniform(0.5, 2.0))
        lam = 10.0 ** rng.uniform(-5, -2)
        fitted = fit(features, targets, kernel, lam)
        gram = kernel(features, features)
        grad = (2.0 / n) * gram @ (gram @ fitted.alpha - targets) + 2 * lam * gram @ fitted.alpha
        worst_grad = max(worst_grad, np.linalg.norm(grad) / (1 + np.linalg.norm(targets)))
    for _ in range(50):
        # interpolation limit: distinct, well-separated features so the
        # unregularized Gram matrix is numerically nonsingular
        n = int(rng.integers(5, 201))
        m = int(rng.integers(2, 11))
        features = rng.uniform(0.0, 10.0, size=(m, n))
        targets = rng.normal(-50.0, 3.0, size=n)
        kernel = GaussianKernel(rng.uniform(0.3, 0.8))
        interp = fit(features, targets, kernel, 0.0)
        worst_interp = max(worst_interp, np.max(np.abs(predict(interp, features) - targets)))
    elapsed = time.time() - start
    _report(
        "criterion-1",
        worst_grad <= 1e-6 and worst_interp <= 1e-6 and elapsed < 10,
        f"stationarity {worst_grad:.2e} (<=1e-6), interpolation {worst_interp:.2e} "
        f"(<=1e-6), {elapsed:.1f}s (<10s)",
    )


# ---------------------------------------------------------------------------
# 2. pairwise time-difference matrices span at most L-1 dimensions
# ---------------------------------------------------------------------------


def test_criterion_2_tdoa_rank_law():
    start = time.time()
    worst = 0.0
    for l_count in (3, 4, 5, 7):
        rng = np.random.default_rng(l_count)
        txs = rng.uniform((2, 2), (58, 38), size=(l_count, 2))
        scenario = Scenario(
            region=(0.0, 0.0, 60.0, 40.0),
            transmitters=tuple(Transmitter(x, y) for x, y in txs),
            noise_variance=0.0,
        )
        points = sample_sensor_locations(scenario, 200, rng)
        delays = np.empty((l_count, 200))
        for l in range(l_count):
            for n, p in enumerate(points):
                direct = trace_paths(scenario, txs[l], p)[0]
                delays[l, n] = direct.delay
        matrix = np.stack(
            [delays[i] - delays[j] for i, j in pair_indices(l_count)], axis=0
        )
        s = np.linalg.svd(matrix, compute_uv=False)
        ratio = s[l_count - 1] / s[0]  # singular value L, 1-indexed
        worst = max(worst, ratio)
    elapsed = time.time() - start
    _report(
        "criterion-2",
        worst < 1e-9 and elapsed < 30,
        f"sigma_L/sigma_1 worst {worst:.2e} (<1e-9) over L in {{3,4,5,7}}, "
        f"{elapsed:.1f}s (<30s)",
    )


# ---------------------------------------------------------------------------
# 3. rank-constrained completion recovers random low-rank matrices
# ---------------------------------------------------------------------------


def test_criterion_3_svp_recovery():
    start = time.time()
    successes = 0
    errors = []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        truth = rng.normal(size=(10, 3)) @ rng.normal(size=(3, 200))
        # uniform 60% mask conditioned on recoverability (>= rank+1 observed
        # entries per column; a column with fewer admits a family of
        # completions no solver can resolve)
        mask = sample_identifiable_mask(rng, truth.shape, 0.6, 4)
        inc = IncompleteFeatureMatrix(np.where(mask, truth, 0.0), mask)
        result = svp_complete(inc, CompletionConfig(rank=3, max_iters=500))
        rel = np.linalg.norm(result.matrix - truth) / np.linalg.norm(truth)
        errors.append(rel)
        successes += rel < 1e-4 and result.iterations <= 500
    elapsed = time.time() - start
    _report(
        "criterion-3",
        successes >= 9 and elapsed < 60,
        f"{successes}/10 seeds below 1e-4 within 500 iterations "
        f"(median error {np.median(errors):.1e}), {elapsed:.1f}s (<60s)",
    )


# ---------------------------------------------------------------------------
# 4. query recovery consistency when nothing is missing
# ---------------------------------------------------------------------------


def test_criterion_4_rls_consistency():
    start = time.time()
    rng = np.random.default_rng(7)
    txs = rng.uniform((2, 2), (58, 38), size=(5, 2))
    scenario = Scenario(
        region=(0.0, 0.0, 60.0, 40.0),
        transmitters=tuple(Transmitter(x, y) for x, y in txs),
        noise_variance=0.0,
    )
    points = sample_sensor_locations(scenario, 120, rng)
    d = np.linalg.norm(points[:, None, :] - txs[None], axis=2)
    matrix = np.stack([d[:, i] - d[:, j] for i, j in pair_indices(5)], axis=0)
    rank = 4
    completed = svp_complete(
        IncompleteFeatureMatrix(matrix, np.ones(matrix.shape, bool)),
        CompletionConfig(rank=rank),
    ).matrix
    basis = gram_schmidt_basis(completed, rank)
    reduced = basis.T @ completed
    ctx = build_recovery_context(basis, reduced, mu=1e-12)
    targets = rng.normal(-50, 3, size=120)
    fitted = fit(reduced, targets, GaussianKernel(20.0), 1e-4)

    queries = sample_sensor_locations(scenario, 40, rng)
    dq = np.linalg.norm(queries[:, None, :] - txs[None], axis=2)
    qmatrix = np.stack([dq[:, i] - dq[:, j] for i, j in pair_indices(5)], axis=0)
    worst_feat, worst_pred = 0.0, 0.0
    for i in range(qmatrix.shape[1]):
        recovered = rls_recover_query(ctx, qmatrix[:, i], np.ones(10, bool))
        direct = basis.T @ qmatrix[:, i]
        worst_feat = max(worst_feat, np.max(np.abs(recovered.reduced - direct)))
        worst_pred = max(
            worst_pred,
            abs(predict(fitted, recovered.reduced) - predict(fitted, direct)),
        )
    elapsed = time.time() - start
    _report(
        "criterion-4",
        worst_feat <= 1e-6 and worst_pred <= 1e-6 and elapsed < 10,
        f"feature gap {worst_feat:.2e} (<=1e-6), prediction gap {worst_pred:.2e} dB "
        f"(<=1e-6), {elapsed:.1f}s (<10s)",
    )


# ---------------------------------------------------------------------------
# 5. indoor 20 MHz: feature-based beats location-based from N=150 up
# ---------------------------------------------------------------------------


def test_criterion_5_nmse_vs_n_trend(tmp_path):
    start = time.time()
    summary = _run_preset("fig6-nmse-vs-N", tmp_path)
    lines = []
    passed = True
    for n in (150, 200, 300):
        locf = NmseResult(**summary[f"locf_n{n}"])
        locb = NmseResult(**summary[f"locb_n{n}"])
        gap = locb.mean - locf.mean
        pooled = pooled_std(locf, locb)
        ok = locf.mean < locb.mean and gap > pooled
        passed &= ok
        lines.append(
            f"N={n}: locf {locf.mean:.3f}+-{locf.std:.3f} vs locb "
            f"{locb.mean:.3f}+-{locb.std:.3f}, gap {gap:.3f} > pooled {pooled:.3f}: "
            f"{'ok' if ok else 'FAIL'}"
        )
    elapsed = time.time() - start
    _report("criterion-5", passed, "; ".join(lines) + f" ({elapsed:.0f}s marginal)")


# ---------------------------------------------------------------------------
# 6. 200 MHz wall sweep: crossover and multipath robustness
# ---------------------------------------------------------------------------


def test_criterion_6_wall_sweep_crossover(tmp_path):
    start = time.time()
    summary = _run_preset("fig7-nmse-vs-walls", tmp_path)
    locf = {walls: summary[f"locf_w{walls}"]["mean"] for walls in range(6)}
    locb = {walls: summary[f"locb_w{walls}"]["mean"] for walls in range(6)}
    crossover = locb[0] < locf[0]
    locf_vals = np.array([locf[w] for w in range(6)])
    variation = (locf_vals.max() - locf_vals.min()) / locf_vals.min()
    degradation = locb[5] / locb[0]
    elapsed = time.time() - start
    _report(
        "criterion-6",
        crossover and variation < 0.5 and degradation > 2.0 and elapsed < 1200,
        f"0 walls: locb {locb[0]:.3f} < locf {locf[0]:.3f} ({crossover}); "
        f"locf sweep variation {variation:.0%} (<50%); "
        f"locb degradation x{degradation:.1f} (>2); {elapsed:.0f}s (<20min)",
    )


# ---------------------------------------------------------------------------
# 7. reduced features match the full feature set
# ---------------------------------------------------------------------------


def test_criterion_7_reduced_feature_parity():
    start = time.time()
    entries = dict(experiments.SWEEPS["fig10-reduced"](RUNS, SEED))
    configs = [entries["locf_full"], entries["locf_r4"]]
    full, reduced = run_experiments(configs, precompute_grid(configs[0].scenario), jobs=2)
    gap = abs(reduced.mean - full.mean) / full.mean
    elapsed = time.time() - start
    _report(
        "criterion-7",
        gap <= 0.10 and elapsed < 600,
        f"full {full.mean:.3f} vs r=4 {reduced.mean:.3f}, relative gap {gap:.1%} "
        f"(<=10%); {elapsed:.0f}s (<10min)",
    )


# ---------------------------------------------------------------------------
# 8. missing-feature handling: graceful degradation over the threshold
# ---------------------------------------------------------------------------


def test_criterion_8_missing_feature_degradation(tmp_path):
    start = time.time()
    summary = _run_preset("fig11-missing", tmp_path)
    results = [summary[f"completion_g{idx}"] for idx in range(len(summary["gamma_sweep_dbw"]))]
    means = [result["mean"] for result in results]
    missing = [result["avg_missing"] for result in results]
    nondecreasing = all(a <= b + 1e-12 for a, b in zip(means, means[1:]))
    baseline = summary["locf_baseline"]["mean"]
    parity = abs(means[0] - baseline) / baseline
    elapsed = time.time() - start
    _report(
        "criterion-8",
        nondecreasing and parity <= 0.05 and missing[0] < 0.05 and elapsed < 900,
        f"NMSE over gamma {[round(m, 3) for m in means]} nondecreasing={nondecreasing}; "
        f"missing/loc {[round(m, 2) for m in missing]}; at ~0 missing "
        f"{means[0]:.3f} vs plain locf {baseline:.3f} (gap {parity:.1%} <=5%); "
        f"{elapsed:.0f}s (<15min)",
    )


# ---------------------------------------------------------------------------
# 9. two-tap mechanism: CoM steadiness while the ToA jumps
# ---------------------------------------------------------------------------


def test_criterion_9_feature_smoothness_mechanism():
    start = time.time()
    k1, k2 = 2, 6
    gamma = 0.3
    h1 = np.zeros(12, dtype=complex)
    h2 = np.zeros(12, dtype=complex)
    h1[k1], h1[k2] = 0.29, 0.80
    h2[k1], h2[k2] = 0.31, 0.80
    sample_period = 1.0
    toa_jump = abs(estimate_toa(h1, gamma, sample_period) - estimate_toa(h2, gamma, sample_period))
    com_shift = abs(com_impulse(h1) - com_impulse(h2))
    elapsed = time.time() - start
    _report(
        "criterion-9",
        toa_jump == (k2 - k1) * sample_period and k2 - k1 >= 3 and com_shift <= 0.1
        and elapsed < 1,
        f"ToA jump {toa_jump:.0f} samples (= k2-k1 = {k2 - k1} >= 3), CoM shift "
        f"{com_shift:.3f} (<=0.1); {elapsed:.2f}s (<1s)",
    )


# ---------------------------------------------------------------------------
# 10. localization sanity on noiseless geometry
# ---------------------------------------------------------------------------


def test_criterion_10_localization_sanity():
    start = time.time()
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        while True:
            count = int(rng.integers(4, 7))
            pos = rng.uniform((5.0, 5.0), (55.0, 35.0), size=(count, 2))
            spread = np.linalg.svd(pos - pos.mean(axis=0), compute_uv=False)
            if spread[-1] >= 4.0:
                break
        anchors = AnchorSet(pos)
        target = rng.uniform((2, 2), (58, 38))
        d = np.linalg.norm(anchors.positions - target, axis=1)
        est = srdls_localize(anchors, d[0] - d[1:])
        worst = max(worst, float(np.hypot(est.x - target[0], est.y - target[1])))
    elapsed = time.time() - start
    _report(
        "criterion-10",
        worst < 1e-6 and elapsed < 10,
        f"worst recovery error {worst:.2e} m (<1e-6) over 100 geometries, "
        f"{elapsed:.1f}s (<10s)",
    )
