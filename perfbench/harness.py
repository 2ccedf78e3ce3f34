"""Runs one workload: timed set-up, rounds for the measured time, checks, metrics.

Untraced runs (``trace=False``) give the end-to-end metrics.  Traced runs
replay every round twice, once untraced and once under the trace
wrappers, on the same inputs; the per-layer metrics come from the traced
copies and the tracing overhead is the median of traced minus untraced
round time.  End-to-end timings are wall times scaled to the reference
host speed by ``HostSpeed``; the result file keeps the wall times too.
Per-layer times are plain wall times.
"""

import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np
import scipy

import tracing
from workloads import WORKLOADS

SETUP_REPEATS = 5

END_TO_END = {
    "setup_s": "s",
    "round_s": "s",
    "op_geomean_s": "s",
    "nmse_geomean": "ratio",
    "peak_rss_mb": "MB",
}

# name -> unit.  Time and count metrics are per traced round, except
# evaluation.precompute_grid_s (per set-up repetition) and the SVP
# iteration and residual figures (means per SVP call).
PER_LAYER = {
    "propagation.simulate_points_s": "s",
    "propagation.points": "count",
    "features.feature_matrix_nosync_s": "s",
    "features.columns": "count",
    "kernels.fit_s": "s",
    "kernels.predict_s": "s",
    "kernels.predict_calls": "count",
    "kernels.save_model_s": "s",
    "kernels.load_model_s": "s",
    "kernels.model_bytes": "bytes",
    "reduction.reduce_features_s": "s",
    "completion.svp_complete_s": "s",
    "completion.svp_calls": "count",
    "completion.svp_iterations": "count",
    "completion.svp_unconverged": "count",
    "completion.svp_unconverged_ratio": "ratio",
    "completion.svp_final_residual": "ratio",
    "completion.rls_recover_query_s": "s",
    "completion.rls_calls": "count",
    "completion.rls_empty": "count",
    "completion.rls_empty_ratio": "ratio",
    "localization.localize_batch_s": "s",
    "localization.points": "count",
    "localization.unlocalized": "count",
    "localization.unlocalized_ratio": "ratio",
    "localization.tdoa_feature_set_s": "s",
    "localization.srdls_localize_s": "s",
    "localization.srdls_calls": "count",
    "evaluation.precompute_grid_s": "s",
    "evaluation.run_once_self_s": "s",
    "cli.fit_self_s": "s",
    "cli.predict_self_s": "s",
    "cli.bytes_written": "bytes",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}

# Inclusive span time per traced round for each "<layer>.<function>_s".
_INCLUSIVE = [name[:-2] for name in PER_LAYER
              if name.endswith("_s") and not name.endswith("self_s")
              and not name.startswith(("trace.", "evaluation.precompute"))]
_SELF = {
    "evaluation.run_once_self_s": "evaluation.run_once",
    "cli.fit_self_s": "cli.cmd_fit",
    "cli.predict_self_s": "cli.cmd_predict",
}
_PER_ROUND_COUNTS = [
    "propagation.points", "features.columns", "kernels.predict_calls",
    "kernels.model_bytes", "completion.svp_calls", "completion.svp_unconverged",
    "completion.rls_calls", "completion.rls_empty", "localization.points",
    "localization.unlocalized", "localization.srdls_calls", "cli.bytes_written",
]


def _ratio(num, den):
    return num / den if den else 0.0


def _geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def machine_info(root, blas_threads):
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    sha = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = "unknown (git failed)"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads,
        "git_sha": sha,
    }


class HostSpeed:
    """Fixed probes timed between operations to track the host's speed.

    On a shared machine the same code runs up to twice as slowly for
    seconds to minutes at a time.  The probes mix what the program does:
    small numpy calls from a Python loop, small matrix products, a sort
    and elementwise passes over a few MB.  ``factor`` is the mean, over
    the probes, of the probe's time over its time on the reference machine
    when that machine was not slowed down (REFERENCE_S).  An operation's
    time is divided by the mean factor just before and just after it, so
    timings are reported at the reference machine's unloaded speed.
    """

    REFERENCE_S = {"python": 2.9e-3, "matmul": 2.1e-3, "sort": 0.62e-3, "memory": 3.0e-3}

    def __init__(self):
        rng = np.random.default_rng(0)
        self.matrix = rng.normal(size=(64, 64))
        self.vector = rng.normal(size=20000)
        self.shuffled = rng.normal(size=100000)
        self.big = rng.normal(size=200000)
        self.probes = {"python": self._python, "matmul": self._matmul,
                       "sort": self._sort, "memory": self._memory}
        self.factor = self.measure()

    def _python(self):
        x = self.vector
        for i in range(3000):
            np.dot(x[i:i + 16], x[i + 1:i + 17])

    def _matmul(self):
        b = self.matrix
        for _ in range(100):
            b = np.tanh(b @ self.matrix * 0.01)

    def _sort(self):
        np.sort(self.shuffled)

    def _memory(self):
        np.exp(-self.big * self.big) + np.sqrt(np.abs(self.big))

    def probe_times(self):
        """Best of two timings of each probe, in seconds."""
        times = {}
        for name, probe in self.probes.items():
            best = np.inf
            for _ in range(2):
                start = perf_counter()
                probe()
                best = min(best, perf_counter() - start)
            times[name] = best
        return times

    def measure(self):
        times = self.probe_times()
        self.factor = statistics.fmean(times[k] / ref for k, ref in self.REFERENCE_S.items())
        return self.factor

    def time(self, fn):
        """Runs fn; returns (its result or the exception it raised, wall s, reference s)."""
        before = self.factor
        start = perf_counter()
        try:
            result = fn()
        except Exception as exc:  # the caller counts the operation as failed
            result = exc
        elapsed = perf_counter() - start
        return result, elapsed, elapsed * 2.0 / (before + self.measure())


class Runner:
    def __init__(self, name, seed, seconds, trace, quick, workdir):
        self.name = name
        self.workload = WORKLOADS[name](seed, quick)
        self.seconds = seconds
        self.trace = trace
        self.quick = quick
        self.workdir = workdir
        self.captures = tracing.Captures(seed)
        self.instrument = tracing.Instrument(self.captures)
        self.attempted = 0
        self.failed = 0
        self.errors = []          # operations that raised
        self.check_failures = []
        self.speed = HostSpeed()
        # Times at the reference speed; the raw_ lists keep the wall times.
        self.op_times = defaultdict(list)   # kind -> seconds, timed untraced rounds
        self.raw_op_times = defaultdict(list)
        self.op_nmse = defaultdict(list)    # kind -> NMSE, first nmse_rounds rounds
        self.round_times = []               # timed untraced rounds
        self.raw_round_times = []
        self.traced_rounds = 0
        self.paired_round_times = []        # timed traced rounds
        self.setup_times = []
        self.raw_setup_times = []

    def _setup(self):
        if not self.quick:
            # Untimed: the first set-up also grows the allocator's heap and
            # its mmap threshold, which later set-ups and rounds reuse.
            self.workload.setup()
        for _ in range(1 if self.quick else SETUP_REPEATS):
            self.instrument.install(trace=self.trace)
            self.instrument.phase = "setup"
            self.speed.measure()
            _, raw, scaled = self.speed.time(self.workload.setup)
            self.raw_setup_times.append(raw)
            self.setup_times.append(scaled)
            self.instrument.uninstall()

    def _round(self, run_idx, traced):
        self.instrument.install(trace=traced)
        self.instrument.phase = f"round{run_idx}"
        outcomes, raised = {}, False
        # Round 0 is made and checked but not timed: it is the warm-up.
        timed = self.quick or run_idx > 0
        raw_total = total = 0.0
        self.speed.measure()
        for kind, op in self.workload.ops(run_idx):
            self.captures.context = (kind, run_idx)
            self.attempted += 1
            out, raw, scaled = self.speed.time(op)
            if isinstance(out, Exception):
                self.errors.append(f"{kind} round {run_idx}: {type(out).__name__}: {out}")
                out, raised = {"failed": True}, True
            raw_total += raw
            total += scaled
            outcomes[kind] = out
            self.failed += int(bool(out.get("failed")))
            if not traced:
                if timed:
                    self.op_times[kind].append(scaled)
                    self.raw_op_times[kind].append(raw)
                if run_idx < self.workload.nmse_rounds and "nmse" in out:
                    self.op_nmse[kind].append(out["nmse"])
        self.instrument.uninstall()
        self.traced_rounds += int(traced)
        if timed:
            if traced:
                self.paired_round_times.append(total)
            else:
                self.round_times.append(total)
                self.raw_round_times.append(raw_total)
        if not traced and not raised:
            self.check_failures += self.workload.check_round(run_idx, outcomes)

    def run(self):
        self._setup()
        self.workload.prepare(self.workdir)
        try:
            deadline = perf_counter() + self.seconds
            run_idx = 0
            while True:
                self._round(run_idx, traced=False)
                if self.trace:
                    self._round(run_idx, traced=True)
                run_idx += 1
                if self.quick:
                    break
                # Traced runs report no NMSE, so they need only one timed pair.
                enough = run_idx >= (2 if self.trace else max(2, self.workload.nmse_rounds))
                if enough and perf_counter() >= deadline:
                    break
        finally:
            self.workload.finish()
        self.check_failures += self.workload.check_captures(self.captures)
        return self.result()

    def end_to_end(self):
        medians = [statistics.median(times) for times in self.op_times.values()]
        nmse = [statistics.fmean(values) for values in self.op_nmse.values()]
        return {
            "setup_s": statistics.median(self.setup_times),
            "round_s": statistics.median(self.round_times),
            "op_geomean_s": _geomean(medians),
            "nmse_geomean": _geomean(nmse),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def per_layer(self):
        spans = self.instrument.spans
        rounds = self.traced_rounds
        inclusive, self_time = tracing.layer_times(spans, lambda phase: phase != "setup")
        setup_inclusive, _ = tracing.layer_times(spans, lambda phase: phase == "setup")
        counts = self.instrument.counts
        values = {f"{name}_s": inclusive[name] / rounds for name in _INCLUSIVE}
        values.update({metric: self_time[name] / rounds for metric, name in _SELF.items()})
        values.update({name: counts[name] / rounds for name in _PER_ROUND_COUNTS})
        svp_calls = counts["completion.svp_calls"]
        values.update({
            "evaluation.precompute_grid_s":
                setup_inclusive["evaluation.precompute_grid"] / len(self.setup_times),
            "completion.svp_iterations": _ratio(counts["completion.svp_iterations"], svp_calls),
            "completion.svp_final_residual":
                _ratio(counts["completion.svp_final_residual"], svp_calls),
            "completion.svp_unconverged_ratio":
                _ratio(counts["completion.svp_unconverged"], svp_calls),
            "completion.rls_empty_ratio":
                _ratio(counts["completion.rls_empty"], counts["completion.rls_calls"]),
            "localization.unlocalized_ratio":
                _ratio(counts["localization.unlocalized"], counts["localization.points"]),
            "trace.overhead_s": statistics.median(
                t - u for t, u in zip(self.paired_round_times, self.round_times)
            ),
            "trace.spans": sum(1 for s in spans if s[4] != "setup") / rounds,
        })
        return values

    def detail(self):
        """Per-kind figures under the names an estimator-level reader expects."""
        groups = defaultdict(list)
        for kind, times in self.op_times.items():
            groups[f"{kind.split('@')[0]}_s"] += times
        out = {name: statistics.median(times) for name, times in groups.items()}
        nmse = defaultdict(list)
        for kind, values in self.op_nmse.items():
            nmse["nmse_" + kind.split("_")[0]] += values
        out.update({name: statistics.fmean(values) for name, values in nmse.items()})
        out["per_kind_median_s"] = {k: statistics.median(v) for k, v in self.op_times.items()}
        out["per_kind_median_wall_s"] = {
            k: statistics.median(v) for k, v in self.raw_op_times.items()
        }
        out["per_kind_nmse"] = {k: statistics.fmean(v) for k, v in self.op_nmse.items()}
        out["timed_rounds"] = len(self.round_times)
        out["round_times_s"] = self.round_times
        out["round_wall_times_s"] = self.raw_round_times
        out["setup_times_s"] = self.setup_times
        out["setup_wall_times_s"] = self.raw_setup_times
        return out

    def result(self):
        values, units = (
            (self.per_layer(), PER_LAYER) if self.trace else (self.end_to_end(), END_TO_END)
        )
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
        return {
            "correct": not self.check_failures,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }


def run_workload(root, name, seed, seconds, trace, quick, blas_threads):
    out_dir = os.path.join(root, "perfbench", "results")
    os.makedirs(out_dir, exist_ok=True)
    runner = Runner(name, seed, seconds, trace, quick, out_dir)
    result = runner.run()
    stem = os.path.join(out_dir, f"{name}-seed{seed}-trace{int(trace)}{'-quick' if quick else ''}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "quick": quick,
            "machine": machine_info(root, blas_threads),
            "result": result,
            "detail": runner.detail(),
            "check_failures": runner.check_failures,
            "operation_errors": runner.errors,
        }, fh, indent=1)
    if trace:
        with open(stem + "-spans.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "phase"],
                       "spans": runner.instrument.spans}, fh)
    for message in runner.check_failures + runner.errors:
        print(f"perfbench: {message}", file=sys.stderr)
    return result
