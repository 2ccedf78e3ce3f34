"""The four benchmark workloads.

Every workload uses N=300 training points and makes its inputs from the
benchmark seed s: Monte Carlo run r is ``run_once(config(seed=1000 * s),
grid, r)``, so seeds s and s+1 share no worlds.  A round is one fixed list
of operations, each a call of a public ``locfree`` function; the harness
repeats rounds for the measured time.

``setup`` builds the evaluation grid of every scenario the workload uses;
it is what ``setup_s`` times.  ``prepare`` does the untimed per-run work
that needs the grids.
"""

import contextlib
import dataclasses
import io
import itertools
import json
import os
import shutil
import tempfile

import numpy as np

import checks
from locfree import cli, evaluation, experiments, kernels, localization, propagation
from locfree.evaluation import ExperimentConfig
from locfree.scenario import preset

N_TRAIN = 300
RANK = 4
MU = 5.42


class Workload:
    """Grids, Monte Carlo operations and the checks every workload shares."""

    # Rounds always made, whatever --seconds says.  NMSE is averaged over
    # exactly these rounds, so it depends on the seed and not on speed.
    nmse_rounds = 1

    def __init__(self, seed, quick):
        self.base_seed = 1000 * seed
        self.step = 3.0 if quick else 1.0
        self.grids = {}

    def setup(self):
        self.grids = {
            label: evaluation.precompute_grid(scenario, self.step)
            for label, scenario in self.scenarios.items()
        }

    def prepare(self, workdir):
        pass

    def finish(self):
        pass

    def monte_carlo(self, config, label, run_idx):
        value, missing = evaluation.run_once(config, self.grids[label], run_idx)
        return {"nmse": value, "missing": missing}

    def check_round(self, run_idx, outcomes):
        """Checks on one round's outcomes, keyed by operation kind."""
        failures = []
        for kind, out in outcomes.items():
            value = out.get("nmse")
            if value is not None and not 0.0 < value < np.inf:
                failures.append(f"{kind} round {run_idx}: NMSE {value!r} not positive and finite")
            if kind.split("@")[0] in ("locf_run", "reduced_run") and not value < 1.0:
                failures.append(f"{kind} round {run_idx}: NMSE {value:.3f} >= 1")
        return failures

    def check_captures(self, captures):
        failures = checks.check_features(captures.features)
        for context, fitted, targets in captures.fits:
            failures += checks.check_fit(context, fitted, targets)
        for context, incomplete, config, result in captures.completions:
            failures += checks.check_completion(context, incomplete, config, result)
        if not captures.fits or not captures.features:
            failures.append("no kernel fit or feature matrix was captured")
        return failures


def _locf_config(scenario, seed):
    sigma, lam = experiments.LOCF_TUNED[scenario.bandwidth_hz]
    return ExperimentConfig(
        scenario=scenario, estimator="locf", n_train=N_TRAIN, seed=seed, sigma=sigma, lam=lam,
    )


class IndoorLocf(Workload):
    """indoor-fig4 at 20 MHz: one locf and one rank-4 locf_reduced run per round."""

    nmse_rounds = 6

    def __init__(self, seed, quick):
        super().__init__(seed, quick)
        self.scenarios = {"fig4": preset("indoor-fig4")}
        self.locf = _locf_config(self.scenarios["fig4"], self.base_seed)
        self.reduced = dataclasses.replace(self.locf, estimator="locf_reduced", rank=RANK)

    def ops(self, r):
        return [
            ("locf_run", lambda: self.monte_carlo(self.locf, "fig4", r)),
            ("reduced_run", lambda: self.monte_carlo(self.reduced, "fig4", r)),
        ]


class WallsLocb(Workload):
    """indoor-dense at 200 MHz with 0 and 5 walls: a locf and a locb run at each."""

    # A round takes about 14 s: the warm-up round and two timed ones.
    nmse_rounds = 3

    def __init__(self, seed, quick):
        super().__init__(seed, quick)
        self.scenarios = {
            f"w{w}": preset("indoor-dense", bandwidth_hz=200e6, wall_count=w) for w in (0, 5)
        }
        self.configs = {}
        for label, scenario in self.scenarios.items():
            sigma_loc, lam_loc = experiments.LOCB_TUNED[scenario.bandwidth_hz]
            self.configs[f"locf_run@{label}"] = (_locf_config(scenario, self.base_seed), label)
            self.configs[f"locb_run@{label}"] = (
                ExperimentConfig(
                    scenario=scenario, estimator="locb", n_train=N_TRAIN,
                    seed=self.base_seed, sigma_loc=sigma_loc, lam_loc=lam_loc,
                    center_targets=True,
                ),
                label,
            )

    def ops(self, r):
        return [
            (kind, lambda config=config, label=label: self.monte_carlo(config, label, r))
            for kind, (config, label) in self.configs.items()
        ]

    def check_round(self, run_idx, outcomes):
        failures = super().check_round(run_idx, outcomes)
        free, walled = outcomes["locb_run@w0"]["nmse"], outcomes["locb_run@w5"]["nmse"]
        if not walled > 2.0 * free:
            failures.append(
                f"round {run_idx}: locb NMSE at 5 walls {walled:.3f} is not more than "
                f"twice its free-space NMSE {free:.3f}"
            )
        return failures

    def check_captures(self, captures):
        """Free space: training points localize to within c/B (median)."""
        failures = super().check_captures(captures)
        scenario = self.scenarios["w0"]
        bound = checks.SPEED_OF_LIGHT / scenario.bandwidth_hz
        seen = 0
        for (kind, run_idx), report in captures.locb_fits:
            if kind != "locb_run@w0":
                continue
            seen += 1
            rng = np.random.default_rng(self.base_seed + run_idx)
            truth = propagation.sample_sensor_locations(scenario, N_TRAIN, rng)
            err = checks.localization_error(report.estimates, truth)
            if not err < bound:
                failures.append(
                    f"round {run_idx}: free-space median training localization error "
                    f"{err:.3f} m (>= c/B = {bound:.3f} m)"
                )
        if not seen:
            failures.append("no free-space locb fit was captured")
        return failures


class IndoorMissing(Workload):
    """indoor-fig4 at 20 MHz: locf_completion at each default_gamma_sweep threshold."""

    # Completion NMSE swings with the world at the masking thresholds.
    nmse_rounds = 4

    def __init__(self, seed, quick):
        super().__init__(seed, quick)
        self.scenarios = {"fig4": preset("indoor-fig4")}
        self.configs = []

    def prepare(self, workdir):
        base = _locf_config(self.scenarios["fig4"], self.base_seed)
        self.configs = [
            dataclasses.replace(base, estimator="locf_completion", rank=RANK, mu=MU, gamma_dbw=g)
            for g in experiments.default_gamma_sweep(self.grids["fig4"])
        ]

    def ops(self, r):
        return [
            (f"completion_run@g{i}", lambda c=c: self.monte_carlo(c, "fig4", r))
            for i, c in enumerate(self.configs)
        ]

    def check_round(self, run_idx, outcomes):
        failures = super().check_round(run_idx, outcomes)
        missing = [out["missing"] for out in outcomes.values()]
        if missing[0] != 0.0:
            failures.append(f"round {run_idx}: {missing[0]} missing features at the first threshold")
        if any(b < a for a, b in zip(missing, missing[1:])):
            failures.append(f"round {run_idx}: missing counts {missing} decrease over thresholds")
        return failures

    def check_captures(self, captures):
        failures = super().check_captures(captures)
        if len(captures.completions) < len(self.configs):
            failures.append("an SVP completion was not captured")
        return failures


class IndoorServe(Workload):
    """Serving one query at a time through model persistence.

    ``locf``: in-process ``locfree fit``, then ``locfree predict --points``.
    ``locb``: ``localization.locb_fit`` on a world drawn as ``fit`` draws it,
    ``kernels.save_model``, then ``locfree predict --points``, which calls
    ``locb_predict`` once per query point.  ``locfree fit`` is not used for
    locb because it raises IndexError whenever a training point fails to
    localize, which happens on some seeds only (see CHANGES.md).
    """

    # NMSE on a few query points swings with the training world: average
    # it over four rounds.
    nmse_rounds = 4
    # The query points are fixed: they do not depend on the seed.
    query_seed = 20181231

    def __init__(self, seed, quick):
        super().__init__(seed, quick)
        self.scenarios = {"fig4": preset("indoor-fig4")}
        self.n_query = 4 if quick else 96
        self.dir = None
        self.round_tags = itertools.count()

    def prepare(self, workdir):
        scenario = self.scenarios["fig4"]
        self.dir = tempfile.mkdtemp(prefix="serve-", dir=workdir)
        rng = np.random.default_rng(self.query_seed)
        self.query = propagation.sample_sensor_locations(scenario, self.n_query, rng)
        self.truth = propagation.simulate_points(scenario, self.query).true_power
        self.p_bar = self.grids["fig4"].p_bar
        self.noise_std = self.grids["fig4"].noise_std
        self.points_csv = os.path.join(self.dir, "query.csv")
        with open(self.points_csv, "w", encoding="utf-8") as fh:
            for x, y in self.query:
                fh.write(f"{float(x)!r},{float(y)!r}\n")
        locf_sigma, locf_lam = experiments.LOCF_TUNED[scenario.bandwidth_hz]
        self.locb_sigma, self.locb_lam = experiments.LOCB_TUNED[scenario.bandwidth_hz]
        common = {"scenario": {"preset": "indoor-fig4"}, "n_train": N_TRAIN, "grid_step": self.step}
        docs = {
            "locf": {**common, "estimator": "locf", "sigma": locf_sigma, "lambda": locf_lam},
            "locb": {**common, "estimator": "locb", "sigma_loc": self.locb_sigma,
                     "lambda_loc": self.locb_lam, "center_targets": True},
        }
        for est, doc in docs.items():
            with open(os.path.join(self.dir, f"{est}.json"), "w", encoding="utf-8") as fh:
                json.dump(doc, fh)

    def finish(self):
        if self.dir is not None:
            shutil.rmtree(self.dir, ignore_errors=True)

    def _cli(self, argv):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"locfree {argv[0]} exited with code {code}")

    def _fit_locf(self, seed, out):
        self._cli(["fit", "--config", os.path.join(self.dir, "locf.json"),
                   "--seed", str(seed), "--out", out])
        return {}

    def _fit_locb(self, seed, out):
        """The training world of ``locfree fit``: points, pilot noise, power noise."""
        scenario = self.scenarios["fig4"]
        rng = np.random.default_rng(seed)
        points = propagation.sample_sensor_locations(scenario, N_TRAIN, rng)
        tables = propagation.simulate_points(scenario, points)
        pilots = tables.channels + propagation.pilot_noise(scenario, tables.channels.shape, rng)
        targets = tables.true_power + rng.normal(0.0, self.noise_std, N_TRAIN)
        fitted, _ = localization.locb_fit(
            localization.AnchorSet.from_scenario(scenario), pilots, targets,
            scenario.sample_period, kernels.GaussianKernel(self.locb_sigma), self.locb_lam,
            center_targets=True,
        )
        os.makedirs(out)
        kernels.save_model(fitted, os.path.join(out, "model.json"))
        return {}

    def _predict(self, est, seed, fit_dir, out):
        self._cli(["predict", "--model", os.path.join(fit_dir, "model.json"),
                   "--config", os.path.join(self.dir, f"{est}.json"), "--seed", str(seed),
                   "--points", self.points_csv, "--out", out])
        return self._read_predictions(os.path.join(out, "predictions.csv"))

    def _read_predictions(self, path):
        """Predictions, row count, and whether x,y give back the query points."""
        with open(path, encoding="utf-8") as fh:
            header, *rows = fh.read().splitlines()
        fields = [row.split(",") for row in rows]
        pred = np.array([float(f[2]) if f[2] else np.nan for f in fields])
        try:
            xy = np.array([[float(f[0]), float(f[1])] for f in fields])
            xy_ok = xy.shape == self.query.shape and bool(np.all(xy == self.query))
        except ValueError:
            xy_ok = False
        finite = np.isfinite(pred)
        out = {"rows": len(rows), "header": header, "finite": int(finite.sum()),
               "failed": not xy_ok}
        if len(rows) == self.n_query and finite.any():
            out["nmse"] = checks.nmse(self.truth[finite], pred[finite], self.p_bar)
        return out

    def ops(self, r):
        seed = self.base_seed + r
        # Fresh output directories for every round made (traced runs make
        # each round twice), so no step can read a file an earlier one left.
        tag = next(self.round_tags)
        fit = {est: os.path.join(self.dir, f"fit-{est}-{tag}") for est in ("locf", "locb")}
        pred = {est: os.path.join(self.dir, f"pred-{est}-{tag}") for est in ("locf", "locb")}
        return [
            ("locf_fit", lambda: self._fit_locf(seed, fit["locf"])),
            ("locf_predict", lambda: self._predict("locf", seed, fit["locf"], pred["locf"])),
            ("locb_fit", lambda: self._fit_locb(seed, fit["locb"])),
            ("locb_predict", lambda: self._predict("locb", seed, fit["locb"], pred["locb"])),
        ]

    def check_round(self, run_idx, outcomes):
        failures = super().check_round(run_idx, outcomes)
        for kind in ("locf_predict", "locb_predict"):
            out = outcomes[kind]
            if out.get("header") != "x,y,pred_dbw" or out.get("rows") != self.n_query:
                failures.append(
                    f"{kind} round {run_idx}: {out.get('rows')} rows under "
                    f"{out.get('header')!r} for {self.n_query} query points"
                )
        if outcomes["locf_predict"].get("finite") != self.n_query:
            failures.append(f"locf_predict round {run_idx}: a prediction is not finite")
        return failures


WORKLOADS = {
    "indoor20-locf": IndoorLocf,
    "walls200-locb": WallsLocb,
    "indoor20-missing": IndoorMissing,
    "indoor20-serve": IndoorServe,
}
