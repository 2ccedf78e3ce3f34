"""Smoke test of the benchmark: a quick run of two workloads completes and
checks its outputs.  Wall time is not gated; it is too noisy on small hosts."""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["walls200-locb", "indoor20-serve"])
def test_quick_benchmark_run_is_correct(workload):
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "1", "--seconds", "1", "--quick", "--trace", "0",
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


def test_traced_layer_functions_exist():
    """``--trace 1`` wraps every function named in tracing.LAYER_FUNCTIONS
    and fails on a missing one; the quick runs above use ``--trace 0``."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for layer, names in tracing.LAYER_FUNCTIONS.items():
        module = importlib.import_module(f"locfree.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"locfree.{layer}.{name}"
