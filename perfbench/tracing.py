"""Spans, counts and output captures at the locfree layer boundaries.

The benchmark records everything from outside the program: it wraps the
public functions of each layer module and rebinds every module-level name
in the ``locfree`` package that refers to an original.  Calls made through
module attributes (``features.feature_matrix_nosync``) and through
``from .x import y`` bindings (``evaluation.simulate_points``,
``localization.fit``) therefore both pass through the wrapper.

Two kinds of wrapper exist:

* capture hooks, installed in every run, keep references to (or a small
  sample of) the outputs the benchmark checks afterwards, outside the
  timed region;
* trace wrappers, installed only around traced rounds, also record one
  span (name, start, end, parent span, phase) per call and the layer's
  counts.  Spans stay in memory until the benchmark writes them out.
"""

import importlib
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# Public functions wrapped per layer module.  ``cli`` stands for the CLI
# together with ``io``: the writers it calls count as CLI self time.
LAYER_FUNCTIONS = {
    "propagation": ("simulate_points",),
    "features": ("feature_matrix_nosync",),
    "kernels": ("fit", "predict", "save_model", "load_model"),
    "reduction": ("reduce_features",),
    "completion": ("svp_complete", "rls_recover_query"),
    "localization": ("localize_batch", "tdoa_feature_set", "srdls_localize", "locb_fit"),
    "evaluation": ("precompute_grid", "run_once"),
    "cli": ("cmd_fit", "cmd_predict"),
}

# Feature columns sampled from every feature_matrix_nosync call for the
# CoM check.
FEATURE_SAMPLE = 3


def _dir_bytes(path):
    return sum(
        os.path.getsize(os.path.join(path, name))
        for name in os.listdir(path)
        if os.path.isfile(os.path.join(path, name))
    )


def _count(counts, name, args, kwargs, result):
    """Layer counts derived from one traced call."""
    if name == "propagation.simulate_points":
        counts["propagation.points"] += result.true_power.shape[0]
    elif name == "features.feature_matrix_nosync":
        counts["features.columns"] += result.shape[1]
    elif name == "kernels.predict":
        counts["kernels.predict_calls"] += 1
    elif name == "kernels.save_model":
        counts["kernels.model_bytes"] += os.path.getsize(
            args[1] if len(args) > 1 else kwargs["path"]
        )
    elif name == "completion.svp_complete":
        counts["completion.svp_calls"] += 1
        counts["completion.svp_iterations"] += result.iterations
        counts["completion.svp_unconverged"] += int(not result.converged)
        counts["completion.svp_final_residual"] += result.final_residual
    elif name == "completion.rls_recover_query":
        counts["completion.rls_calls"] += 1
        counts["completion.rls_empty"] += int(result.status == "empty")
    elif name == "localization.localize_batch":
        estimates = result[0]
        counts["localization.points"] += estimates.shape[0]
        counts["localization.unlocalized"] += int(np.sum(~np.isfinite(estimates[:, 0])))
    elif name == "localization.srdls_localize":
        counts["localization.srdls_calls"] += 1
    elif name in ("cli.cmd_fit", "cli.cmd_predict"):
        counts["cli.bytes_written"] += _dir_bytes(args[0].out)


class Captures:
    """Outputs kept for the checks, tagged with the operation that made them."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.context = None
        self.fits = []         # (context, FittedMap, targets)
        self.features = []     # (context, pilots sample, sample_period, feature columns)
        self.completions = []  # (context, IncompleteFeatureMatrix, CompletionConfig, result)
        self.locb_fits = []    # (context, LocBFitReport)

    def record(self, name, args, kwargs, result):
        if name == "kernels.fit":
            targets = args[1] if len(args) > 1 else kwargs["targets"]
            self.fits.append((self.context, result, np.asarray(targets, dtype=float)))
        elif name == "features.feature_matrix_nosync":
            pilots = np.asarray(args[0])
            period = args[1] if len(args) > 1 else kwargs["sample_period"]
            take = min(FEATURE_SAMPLE, pilots.shape[0])
            idx = self.rng.choice(pilots.shape[0], size=take, replace=False)
            self.features.append((self.context, pilots[idx].copy(), period, result[:, idx].copy()))
        elif name == "completion.svp_complete":
            self.completions.append((self.context, args[0], args[1], result))
        elif name == "localization.locb_fit":
            self.locb_fits.append((self.context, result[1]))


CAPTURED = ("kernels.fit", "features.feature_matrix_nosync",
            "completion.svp_complete", "localization.locb_fit")


class Instrument:
    """Installs and removes the wrappers; owns the spans and counts."""

    def __init__(self, captures):
        self.captures = captures
        self.spans = []   # (name, start, end, parent index or None, phase)
        self.counts = Counter()
        self.phase = None
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn, trace):
        captures = self.captures
        capture = name in CAPTURED

        if not trace:
            def captured(*args, **kwargs):
                result = fn(*args, **kwargs)
                captures.record(name, args, kwargs, result)
                return result
            return captured

        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.phase)
            if self.phase != "setup":
                _count(self.counts, name, args, kwargs, result)
            if capture:
                captures.record(name, args, kwargs, result)
            return result
        return traced

    def install(self, trace):
        if self._patched:
            raise RuntimeError("instrument already installed")
        wrappers = {}
        for layer, names in LAYER_FUNCTIONS.items():
            module = importlib.import_module(f"locfree.{layer}")
            for fname in names:
                name = f"{layer}.{fname}"
                if trace or name in CAPTURED:
                    fn = getattr(module, fname)
                    wrappers[id(fn)] = (fn, self._wrap(name, fn, trace))
        for modname, module in list(sys.modules.items()):
            if modname != "locfree" and not modname.startswith("locfree."):
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, entry[1])

    def uninstall(self):
        for module, attr, value in self._patched:
            setattr(module, attr, value)
        self._patched = []


def layer_times(spans, phase_filter):
    """Inclusive and self time per span name over the selected phases.

    Inclusive time counts only the outermost span of a name, so a function
    that (indirectly) calls itself is not counted twice.  Self time is a
    span's duration minus the durations of its direct children.
    """
    child_time = defaultdict(float)
    for name, start, end, parent, phase in spans:
        if parent is not None:
            child_time[parent] += end - start
    inclusive = Counter()
    self_time = Counter()
    for index, (name, start, end, parent, phase) in enumerate(spans):
        if not phase_filter(phase):
            continue
        self_time[name] += (end - start) - child_time[index]
        ancestor = parent
        while ancestor is not None and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor is None:
            inclusive[name] += end - start
    return inclusive, self_time
