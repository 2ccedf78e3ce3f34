"""Artifact writers: CSV tables and PGM heatmaps.

All grid exports share one scan order: the full rectangular cell-center
lattice, rows from the top (max y) down, columns left to right.  Cells
excluded from the admissible region (too close to a transmitter) are
written as empty CSV fields and as black pixels in PGM images.

Every CSV has a header row.  Floats are written with ``repr`` so that
reading a CSV back reproduces the values bit-exactly, and non-finite
values are written as empty fields.
"""

import csv
import json
import math

import numpy as np


def _fmt(value):
    return "" if not math.isfinite(value) else repr(float(value))


def _write_rows(path, header, rows, lineterminator="\r\n"):
    """One CSV: the header, then rows whose str and int cells are written
    as they are and whose other cells are floats written by ``_fmt``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator=lineterminator)
        writer.writerow(header)
        writer.writerows(
            [v if isinstance(v, (str, int, np.integer)) else _fmt(v) for v in row]
            for row in rows
        )


def lattice_field(grid, values):
    """Scatter admissible-cell values into the full (ny, nx) lattice (NaN holes)."""
    field = np.full(grid.shape[0] * grid.shape[1], np.nan)
    field[grid.flat_index] = values
    return field.reshape(grid.shape)


def _lattice_rows(grid, *values):
    """x, y of every lattice cell center and one column per admissible-cell
    value array, in scan order."""
    gx, gy = np.meshgrid(grid.xs, grid.ys)
    fields = [lattice_field(grid, v).ravel() for v in values]
    return np.column_stack([gx.ravel(), gy.ravel()] + fields)


def write_truth_csv(grid, path):
    """Ground-truth map export: x,y,power_dbw in row-major scan order."""
    _write_rows(path, ["x", "y", "power_dbw"], _lattice_rows(grid, grid.truth))


def write_map_csv(grid, predictions, path):
    """Map comparison export: x,y,true_dbw,pred_dbw in scan order."""
    _write_rows(
        path, ["x", "y", "true_dbw", "pred_dbw"],
        _lattice_rows(grid, grid.truth, predictions),
    )


def write_feature_csv(points, feature_matrix, path):
    """Feature dump: x,y,f1,...,fM with missing entries as empty fields."""
    features = np.asarray(feature_matrix, dtype=float)
    _write_rows(
        path, ["x", "y"] + [f"f{m + 1}" for m in range(features.shape[0])],
        np.column_stack([points, features.T]),
    )


def write_location_csv(path, true_xy, estimates, residuals):
    """Location-estimate dump: x_true,y_true,x_est,y_est,residual rows,
    with empty estimate fields where localization failed."""
    _write_rows(
        path, ["x_true", "y_true", "x_est", "y_est", "residual"],
        np.column_stack([true_xy, estimates, residuals]).astype(float),
    )


def write_iteration_log(result, path):
    """Per-iteration observed-residual trace of an SVP completion as
    ``iter,residual`` CSV."""
    _write_rows(path, ["iter", "residual"], enumerate(result.residuals, start=1))


def write_predictions_csv(points, values, path):
    """Served predictions: x,y,pred_dbw, one ``\\n``-terminated line each."""
    _write_rows(
        path, ["x", "y", "pred_dbw"], np.column_stack([points, values]),
        lineterminator="\n",
    )


def write_pgm(grid, values, path):
    """Map image of admissible-cell values as 8-bit grayscale PGM (binary
    P5) in scan order, linear scaling between finite min/max.

    NaN cells and excluded lattice cells map to 0.
    """
    field = lattice_field(grid, values)
    finite = np.isfinite(field)
    lo = field[finite].min() if finite.any() else 0.0
    hi = field[finite].max() if finite.any() else 1.0
    span = hi - lo if hi > lo else 1.0
    scaled = np.zeros(field.shape, dtype=np.uint8)
    scaled[finite] = np.clip(
        np.round(1 + 254 * (field[finite] - lo) / span), 1, 255
    ).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{field.shape[1]} {field.shape[0]}\n255\n".encode("ascii"))
        fh.write(scaled.tobytes())


def write_results_csv(rows, path):
    """Per-run results: estimator,N,run,nmse."""
    _write_rows(path, ["estimator", "N", "run", "nmse"], rows)


def write_summary_json(summary, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, allow_nan=False)
        fh.write("\n")
