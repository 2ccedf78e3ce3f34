"""The printed results of the Monte Carlo sweeps and of the CLI, pinned.

Each case of CASES writes its files into a directory; the test runs it
and compares them with the files under tests/golden/<case>/, which were
written at one BLAS thread:

- ``results.csv`` of ``fig6-nmse-vs-N``, ``fig8-nmse-vs-M``,
  ``fig10-reduced`` and ``fig11-missing`` at ``--runs 2 --seed 0``, with
  fig11's thresholds;
- ``results.csv`` of ``fig7-nmse-vs-walls``' entries ``locf_w0``,
  ``locb_w0``, ``locf_w5`` and ``locb_w5`` (the 200 MHz ``indoor-dense``
  locf/locb pair at 0 and 5 walls), picked by label from the preset's
  entries in ``experiments.SWEEPS``, at 2 runs and seed 0;
- ``predictions.csv`` of ``locfree fit`` then ``predict`` for a locf and
  a locb config on ``indoor-fig4``.  Seed 23 drops a locb training
  point, and locb queries far from every training estimate get 0 dBW;
- the CSV files of ``fig4-maps`` at seed 0: the true, locf and locb maps
  and the locb training estimates (``locb_locations.csv``).

Labels, N, run indices and empty fields match exactly, and so does each
sweep's ``counts.csv`` (``failed``, ``avg_missing``).  Other values match
to 1e-12 relative, about 25 times the drift seen between BLAS thread
counts, so the check holds at any thread count.

Every row, locb rows included, holds whatever kernel set OpenBLAS picks
(checked under its SkylakeX, Haswell and Nehalem kernels): the
localizer's linear start is a closed form in elementwise arithmetic, not
a LAPACK solve whose last bits the reweighted descent would carry on.
``fig5-featuremaps``' ``features.csv`` is not pinned: the CoM features
come from a BLAS matmul, and near-zero features move by up to 2.6e-12
relative between kernel sets.  tests/golden/ holds exactly one directory
per case, and each directory exactly its case's files, so a file no case
writes fails the suite.

A change that moves a golden value regenerates every file and says why:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python tests/test_golden.py
"""

import csv
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from locfree import cli, experiments, io

GOLDEN = Path(__file__).resolve().parent / "golden"
RTOL = 1e-12
# Files compared field by field with no tolerance.
EXACT = {"counts.csv"}


def _write_counts(summary, out):
    """counts.csv: each label's failed runs and average missing count."""
    rows = [
        (label, result["failed"], result["avg_missing"])
        for label, result in summary.items()
        if isinstance(result, dict)
    ]
    io._write_rows(out / "counts.csv", ["estimator", "failed", "avg_missing"], rows)


def _sweep(name):
    def write(out):
        summary = experiments.run_preset(name, out, runs=2, seed=0)
        _write_counts(summary, out)
        files = ["results.csv", "counts.csv"]
        if name == "fig11-missing":
            io._write_rows(out / "gamma_sweep.csv", ["index", "gamma_dbw"],
                           enumerate(summary["gamma_sweep_dbw"]))
            files.append("gamma_sweep.csv")
        return files
    return write


def _walls200(out):
    """fig7's locf/locb pair at 0 and 5 walls."""
    entries = dict(experiments.SWEEPS["fig7-nmse-vs-walls"](2, 0))
    pairs = [(label, entries[label]) for label in ("locf_w0", "locb_w0", "locf_w5", "locb_w5")]
    _write_counts(experiments._run_sweep(pairs, out, 1), out)
    return ["results.csv", "counts.csv"]


def _serve(estimator):
    def write(out):
        config = out / "config.json"
        config.write_text(json.dumps({"scenario": "indoor-fig4", "estimator": estimator,
                                      "n_train": 120, "grid_step": 2, "seed": 23}))
        model = out / "model"
        assert cli.main(["fit", "--config", str(config), "--out", str(model)]) == 0
        assert cli.main(["predict", "--config", str(config), "--model",
                         str(model / "model.json"), "--out", str(out)]) == 0
        return ["predictions.csv"]
    return write


def _fig4_maps(out):
    experiments.run_preset("fig4-maps", out)
    return sorted(p.name for p in out.glob("*.csv"))


CASES = {
    "fig4-maps": _fig4_maps,
    "fig6-nmse-vs-N": _sweep("fig6-nmse-vs-N"),
    "fig8-nmse-vs-M": _sweep("fig8-nmse-vs-M"),
    "fig10-reduced": _sweep("fig10-reduced"),
    "fig11-missing": _sweep("fig11-missing"),
    "walls200-pair": _walls200,
    "serve-locf": _serve("locf"),
    "serve-locb": _serve("locb"),
}


def _csv_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _same(want, got, rtol):
    if want == got:
        return True
    try:
        a, b = float(want), float(got)
    except ValueError:  # labels and empty fields match exactly
        return False
    return abs(b - a) <= rtol * abs(a)


def _relative(want, got):
    try:
        a, b = float(want), float(got)
        return f", relative change {(b - a) / a:+.3g}" if a else ""
    except ValueError:
        return ""


def _changes(want, got, rtol):
    """One line per row of ``want`` and ``got`` (lists of fields) that
    differ: a field off by more than ``rtol`` relative, or any other."""
    lines = []
    for i in range(max(len(want), len(got))):
        w, g = (rows[i] if i < len(rows) else None for rows in (want, got))
        if w is None or g is None or len(w) != len(g):
            lines.append(f"row {i}: {w} -> {g}")
            continue
        lines += [
            f"row {i} {w}: field {j} {a!r} -> {b!r}{_relative(a, b)}"
            for j, (a, b) in enumerate(zip(w, g))
            if not _same(a, b, rtol)
        ]
    return lines


@pytest.mark.parametrize("name", list(CASES))
def test_sweep_results_match_golden(name, tmp_path):
    files = CASES[name](tmp_path)
    assert sorted(files) == sorted(p.name for p in (GOLDEN / name).iterdir())
    changes = []
    for file in files:
        want, got = _csv_rows(GOLDEN / name / file), _csv_rows(tmp_path / file)
        rtol = 0.0 if file in EXACT else RTOL
        changes += [f"{file} {line}" for line in _changes(want, got, rtol)]
    assert not changes, "\n".join(changes)


def test_golden_directory_holds_exactly_the_cases():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(CASES)


def regenerate():
    """Rewrite every golden file from the current source."""
    if os.environ.get("OPENBLAS_NUM_THREADS") != "1":
        sys.exit("golden files are written at one BLAS thread: set OPENBLAS_NUM_THREADS=1")
    for name, write in CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            files = write(Path(tmp))
            shutil.rmtree(GOLDEN / name, ignore_errors=True)
            (GOLDEN / name).mkdir(parents=True)
            for file in files:
                shutil.copyfile(Path(tmp) / file, GOLDEN / name / file)
        print(f"wrote {', '.join(files)} in {GOLDEN / name}")


if __name__ == "__main__":
    regenerate()
