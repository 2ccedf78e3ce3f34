"""Smoke test of the benchmark: quick runs of three workloads, one of them
traced, complete and check their outputs.  Wall time is not gated; it is
too noisy on small hosts."""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _quick_run(workload, trace):
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "1", "--seconds", "1", "--quick", "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=900,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
    return result


@pytest.mark.parametrize("workload", ["walls200-locb", "indoor20-serve", "indoor20-missing"])
def test_quick_benchmark_run_is_correct(workload):
    _quick_run(workload, 0)


def test_quick_traced_benchmark_run_is_correct():
    """``--trace 1`` installs the wrappers around every layer function and
    reports the per-layer metrics, here on the completion workload."""
    metrics = _quick_run("indoor20-missing", 1)["metrics"]
    assert metrics["completion.svp_calls"]["value"] > 0
    assert "completion.rls_calls" in metrics and "localization.srdls_calls" in metrics


def test_traced_layer_functions_exist():
    """``--trace 1`` wraps every function named in tracing.LAYER_FUNCTIONS
    and fails on a missing one; only one quick run above uses it."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for layer, names in tracing.LAYER_FUNCTIONS.items():
        module = importlib.import_module(f"locfree.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"locfree.{layer}.{name}"
