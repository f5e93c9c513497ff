import csv
import math

import numpy as np
import pytest

from aoiharvest import experiments
from aoiharvest.cli import main
from aoiharvest.experiments import SweepResult, write_csv

SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e16, 5e-324, 3.0, -7.0, 0.1, 1 / 3, 2.5e-8]


def _reference_csv(result, path):
    """The row-by-row ``csv.writer`` output: repr of floats, str of anything else."""
    def fmt(x):
        return repr(x) if isinstance(x, float) else str(x)

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([result.axis_name, *result.series.keys()])
        for i, x in enumerate(result.axis):
            writer.writerow([fmt(x)] + [fmt(vals[i]) for vals in result.series.values()])


def _columns(n_rows):
    axis = [float(i) for i in range(1, n_rows + 1)]
    a = [SPECIAL[i % len(SPECIAL)] for i in range(n_rows)]
    b = [SPECIAL[(5 * i + 3) % len(SPECIAL)] for i in range(n_rows)]
    return axis, {"a": a, "b": b}


@pytest.mark.parametrize("n_rows", [0, 1, 7, 50])
@pytest.mark.parametrize("as_array", [False, True])
def test_write_csv_matches_csv_writer(tmp_path, monkeypatch, n_rows, as_array):
    monkeypatch.setattr(experiments, "_CSV_CHUNK_ROWS", 7)  # rows straddle chunk boundaries
    axis, series = _columns(n_rows)
    ref = SweepResult("x", "slot", axis, series, {"k": 1})
    if as_array:
        axis, series = np.asarray(axis), {k: np.asarray(v) for k, v in series.items()}
    _reference_csv(ref, tmp_path / "ref.csv")
    write_csv(SweepResult("x", "slot", axis, series, {"k": 1}), tmp_path / "got.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_queue_path_plot_writes_svg(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[queue]\nmu = 0.5\np_a = 0.5\nn_slots = 40\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--experiment", "queue-path", "--out", str(out), "--plot"]) == 0
    svg = (out / "queue-path.svg").read_text(encoding="utf-8")
    assert svg.startswith("<svg") and "<polyline" in svg
