"""The Monte Carlo sweeps' printed results, pinned.

``fig6-nmse-vs-N`` and ``fig11-missing`` at ``--runs 2 --seed 0`` must
regenerate the files under tests/golden/, which were written at one BLAS
thread.  Labels, N and run indices match exactly.  NMSE values and the
fig11 thresholds match to 1e-12 relative, about 25 times the drift seen
between BLAS thread counts, so the check holds at any thread count.  A
change that moves a golden value regenerates its file and says why.
"""

import csv
import json
from pathlib import Path

import pytest

from locfree import experiments

GOLDEN = Path(__file__).resolve().parent / "golden"
RTOL = 1e-12


def _csv_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _changes(want, got):
    """One line per row of ``want`` and ``got`` ([key, ..., value] lists)
    whose keys differ, or whose values differ by more than RTOL relative."""
    lines = []
    for i in range(max(len(want), len(got))):
        w, g = (rows[i] if i < len(rows) else None for rows in (want, got))
        if w is None or g is None or w[:-1] != g[:-1]:
            lines.append(f"row {i}: {w} -> {g}")
            continue
        a, b = float(w[-1]), float(g[-1])
        if abs(b - a) > RTOL * abs(a):
            lines.append(f"row {i} {w[:-1]}: {a!r} -> {b!r}, relative change {(b - a) / a:+.3g}")
    return lines


@pytest.mark.parametrize("name", ["fig6-nmse-vs-N", "fig11-missing"])
def test_sweep_results_match_golden(name, tmp_path):
    summary = experiments.run_preset(name, tmp_path, runs=2, seed=0)
    header, *want = _csv_rows(GOLDEN / name / "results.csv")
    got_header, *got = _csv_rows(tmp_path / "results.csv")
    assert got_header == header
    changes = _changes(want, got)
    if name == "fig11-missing":
        thresholds = json.loads((GOLDEN / name / "gamma_sweep_dbw.json").read_text())
        changes += _changes(
            [["gamma_sweep_dbw", i, v] for i, v in enumerate(thresholds)],
            [["gamma_sweep_dbw", i, v] for i, v in enumerate(summary["gamma_sweep_dbw"])],
        )
    assert not changes, "\n".join(changes)
