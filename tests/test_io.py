"""Byte-level format of every CSV artifact writer."""

from types import SimpleNamespace

import numpy as np
import pytest

from locfree import io

THIRD, THIRD_TEXT = 1.0 / 3.0, "0.3333333333333333"
SUM, SUM_TEXT = 0.1 + 0.2, "0.30000000000000004"
NAN = np.nan


def _grid(flat_index, truth):
    """A one-row lattice of two cells at y = 2.5, x = 0.5 and 1.5."""
    return SimpleNamespace(
        shape=(1, 2), xs=np.array([0.5, 1.5]), ys=np.array([2.5]),
        flat_index=np.array(flat_index), truth=np.array(truth),
    )


def _results(path):
    io.write_results_csv([("locf", 300, 0, THIRD), ("locb", 300, 1, NAN)], path)


def _truth(path):
    io.write_truth_csv(_grid([1], [THIRD]), path)  # cell 0 is excluded


def _map(path):
    io.write_map_csv(_grid([0, 1], [-60.5, THIRD]), np.array([SUM, NAN]), path)


def _features(path):
    io.write_feature_csv([[1.0, 2.0], [3.0, 4.0]], [[THIRD, NAN], [SUM, -1.5]], path)


def _locations(path):
    io.write_location_csv(
        path, [[1.0, 2.0], [3.0, 4.0]], [[SUM, 2.1], [NAN, NAN]], [THIRD, NAN]
    )


def _iteration_log(path):
    """From a float64 trace, as svp_complete returns it; a tuple of the
    same floats writes the same bytes."""
    io.write_iteration_log(SimpleNamespace(residuals=np.array([SUM, NAN])), path)
    from_tuple = path.with_name("from_tuple.csv")
    io.write_iteration_log(SimpleNamespace(residuals=(SUM, NAN)), from_tuple)
    assert from_tuple.read_bytes() == path.read_bytes()


def _predictions(path):
    io.write_predictions_csv(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([THIRD, NAN]), path)


CASES = {
    "results": (_results, "\r\n", [
        "estimator,N,run,nmse", f"locf,300,0,{THIRD_TEXT}", "locb,300,1,"]),
    "truth": (_truth, "\r\n", ["x,y,power_dbw", "0.5,2.5,", f"1.5,2.5,{THIRD_TEXT}"]),
    "map": (_map, "\r\n", [
        "x,y,true_dbw,pred_dbw", f"0.5,2.5,-60.5,{SUM_TEXT}", f"1.5,2.5,{THIRD_TEXT},"]),
    "features": (_features, "\r\n", [
        "x,y,f1,f2", f"1.0,2.0,{THIRD_TEXT},{SUM_TEXT}", "3.0,4.0,,-1.5"]),
    "locations": (_locations, "\r\n", [
        "x_true,y_true,x_est,y_est,residual",
        f"1.0,2.0,{SUM_TEXT},2.1,{THIRD_TEXT}", "3.0,4.0,,,"]),
    "iteration_log": (_iteration_log, "\r\n", ["iter,residual", f"1,{SUM_TEXT}", "2,"]),
    "predictions": (_predictions, "\n", [
        "x,y,pred_dbw", f"1.0,2.0,{THIRD_TEXT}", "3.0,4.0,"]),
}


@pytest.mark.parametrize("name", CASES)
def test_csv_writer_bytes(name, tmp_path):
    """Header row, ``repr`` floats that read back bit-exactly, NaN as an
    empty field, and the writer's own line ending on every line."""
    write, newline, lines = CASES[name]
    path = tmp_path / f"{name}.csv"
    write(path)
    assert path.read_bytes() == "".join(line + newline for line in lines).encode()
    assert float(THIRD_TEXT) == THIRD and float(SUM_TEXT) == SUM
