"""Self-test of the benchmark: every workload in quick mode, traced and untraced.

    python3 perfbench/selftest.py

Checks that each run prints one JSON line with exactly the keys
``correct``, ``attempted``, ``failed`` and ``metrics``, passes its output
checks with no operation raising, and that the result files name exactly
the workloads, metrics and units of BENCHMARK.json.  It also checks that
the benchmark refuses to run, without printing a result, in a directory
that holds only BENCHMARK.json and perfbench/.  Exit code 0 when
everything holds.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
TIMEOUT_S = 600


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S,
    )


def _expected(spec, trace):
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_workloads(spec):
    problems = []
    named = set()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            label = f"{workload} trace={trace}"
            proc = _run(ROOT, workload, trace)
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            printed = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(printed) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(printed)}")
            if printed.get("correct") is not True:
                problems.append(f"{label}: output checks failed: {proc.stderr[-1000:]}")
            path = os.path.join(RESULTS, f"{workload}-seed1-trace{trace}-quick.json")
            with open(path, encoding="utf-8") as fh:
                stored = json.load(fh)
            named.add(stored["workload"])
            if stored["operation_errors"]:
                problems.append(f"{label}: operations raised: {stored['operation_errors']}")
            for source, result in (("printed", printed), ("result file", stored["result"])):
                units = {k: v["unit"] for k, v in result["metrics"].items()}
                if units != _expected(spec, trace):
                    problems.append(f"{label}: {source} metrics/units differ from BENCHMARK.json")
    if named != {w["name"] for w in spec["workloads"]}:
        problems.append(f"result files name workloads {sorted(named)}")
    return problems


def check_bare_directory():
    """Only BENCHMARK.json and perfbench/: no program to run, so no result."""
    bare = os.path.join(RESULTS, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        os.makedirs(os.path.join(bare, "perfbench"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for name in os.listdir(HERE):
            if name.endswith((".py", ".md")):
                shutil.copy(os.path.join(HERE, name), os.path.join(bare, "perfbench"))
        proc = _run(bare, "indoor20-locf", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = check_workloads(spec) + check_bare_directory()
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
