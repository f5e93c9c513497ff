import csv
import math
import tracemalloc

import numpy as np
import pytest

from aoiharvest import experiments, jsp
from aoiharvest.aoi import QueueParams, simulate_queue
from aoiharvest.cli import main
from aoiharvest.config import SWEEPS, ExperimentSpec, QueueSettings, SweepAxis
from aoiharvest.experiments import SweepResult, write_csv
from aoiharvest.model import NetworkConfig
from aoiharvest.optimizer import optimize_xi

SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e16, 5e-324, 3.0, -7.0, 0.1, 1 / 3, 2.5e-8]
# integer-valued floats up to just below 1e16, where repr is still '%d.0'
BIG = [999999999999999.0, 1e15, 9999999999999998.0, -9999999999999998.0,
       1234567890123456.0, 4503599627370497.0, 9007199254740994.0]


def _reference_csv(result, path):
    """The row-by-row ``csv.writer`` output: repr of floats, str of anything else."""
    def fmt(x):
        return repr(x) if isinstance(x, float) else str(x)

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([result.axis_name, *result.series.keys()])
        for i, x in enumerate(result.axis):
            writer.writerow([fmt(x)] + [fmt(vals[i]) for vals in result.series.values()])


def _columns(n_rows, chunk):
    """Columns whose chunks of ``chunk`` rows mix integral and other values."""
    axis = [float(i) for i in range(1, n_rows + 1)]
    return axis, {
        "a": [SPECIAL[i % len(SPECIAL)] for i in range(n_rows)],
        "b": [SPECIAL[(5 * i + 3) % len(SPECIAL)] for i in range(n_rows)],
        "signed": [(-1.0) ** i * i * i for i in range(n_rows)],
        "neg_zero": [-0.0 if i % 5 == 2 else float(i) for i in range(n_rows)],
        # 1e16 (repr '1e+16') in the second chunk only
        "big": [1e16 if i == chunk + 3 else BIG[i % len(BIG)] for i in range(n_rows)],
        # integral in even chunks, fractional in odd ones
        "alternating": [i + 0.5 * ((i // chunk) % 2) for i in range(n_rows)],
        "count": [i - 3 for i in range(n_rows)],  # an int64 column: repr '3', not '3.0'
    }


def _assert_writes_reference(tmp_path, axis, series, as_array=True):
    ref = SweepResult("x", "slot", axis, series, {"k": 1})
    if as_array:
        axis, series = np.asarray(axis), {k: np.asarray(v) for k, v in series.items()}
    _reference_csv(ref, tmp_path / "ref.csv")
    write_csv(SweepResult("x", "slot", axis, series, {"k": 1}), tmp_path / "got.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("n_rows", [0, 1, 7, 50])
@pytest.mark.parametrize("as_array", [False, True])
def test_write_csv_matches_csv_writer(tmp_path, monkeypatch, n_rows, as_array):
    monkeypatch.setattr(experiments, "_CSV_CHUNK_ROWS", 7)  # rows straddle chunk boundaries
    _assert_writes_reference(tmp_path, *_columns(n_rows, 7), as_array=as_array)


def _integral_columns():
    """Integral float columns that reach every 4-digit group edge and the ends
    of the exactly representable integers, one case per name."""
    edges = [s * (10.0**k + d) for k in range(16) for d in (-1, 0, 1) for s in (1, -1)]
    powers = [2.0**52 - 1, 2.0**52 + 1, 2.0**53, 2.0**53 + 2, -(2.0**53 + 2)]
    ints = [float(i) for i in range(14)]
    return {
        "group edges": {"v": edges},
        "powers of two": {"v": powers * 3},
        # -0.0 is the only sign bit of the first chunk; the second has none
        "negative zero": {"v": [-0.0 if i == 3 else v for i, v in enumerate(ints)]},
        "all zero": {"zero": [0.0] * 14, "neg_zero": [-0.0] * 7 + [0.0] * 7},
        "short next to long": {"short": [3.0, -7.0, 0.0, 1.0] * 4,
                               "long": [9999999999999998.0, -1234567890123456.0, 1e15, 4.0] * 4,
                               "mixed": [5.0, 9999999999999998.0, -2.0, -1234567890123456.0] * 4},
        "repr between integral": {"left": ints, "frac": [i / 3 for i in range(14)], "right": ints[::-1]},
    }


@pytest.mark.parametrize("case", list(_integral_columns()))
def test_write_csv_integral_groups_match_csv_writer(tmp_path, monkeypatch, case):
    monkeypatch.setattr(experiments, "_CSV_CHUNK_ROWS", 7)
    series = _integral_columns()[case]
    n_rows = len(next(iter(series.values())))
    _assert_writes_reference(tmp_path, [float(i) for i in range(n_rows)], series)


def test_write_csv_random_integers_match_csv_writer(tmp_path, monkeypatch):
    monkeypatch.setattr(experiments, "_CSV_CHUNK_ROWS", 1000)
    rng = np.random.default_rng(20240522)
    n_rows = 100_000
    sign = rng.choice([-1.0, 1.0], n_rows)
    series = {
        # uniform below 1e16 (almost all 16 digits; 1e16 - 2 is the largest float below 1e16)
        "uniform": sign * rng.integers(0, 10**16 - 1, n_rows).astype(float),
        # 1 to 16 digits, uniform in the digit count
        "digits": sign * np.floor(rng.random(n_rows) * 10.0 ** rng.integers(1, 17, n_rows)),
    }
    assert all(np.abs(v).max() < 1e16 for v in series.values())
    _assert_writes_reference(tmp_path, [float(i) for i in range(n_rows)],
                             {k: v.tolist() for k, v in series.items()})


@pytest.mark.parametrize("discipline", ["non_preemptive", "preemptive"])
def test_queue_path_csv_matches_csv_writer(tmp_path, discipline):
    n_slots = 200_000
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[queue]\nmu = 0.3\np_a = 0.5\nn_slots = {n_slots}\ndiscipline = {discipline}\n",
                   encoding="utf-8")
    assert main(["run", str(cfg), "--experiment", "queue-path", "--out", str(tmp_path)]) == 0
    trace, _ = simulate_queue(QueueParams(p_a=0.5, mu=0.3, discipline=discipline, n_slots=n_slots, seed=1))
    ref = SweepResult("queue-path", "slot", [float(i) for i in range(1, n_slots + 1)],
                      {"aoi": trace.aoi_path.astype(float).tolist()}, {})
    _reference_csv(ref, tmp_path / "ref.csv")
    assert (tmp_path / "queue-path.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_queue_path_plot_writes_svg(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[queue]\nmu = 0.5\np_a = 0.5\nn_slots = 40\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--experiment", "queue-path", "--out", str(out), "--plot"]) == 0
    svg = (out / "queue-path.svg").read_text(encoding="utf-8")
    assert svg.startswith("<svg") and "<polyline" in svg


# Two-point sweeps of every sweep experiment at p_t = 0 dB with pr_min = 0.5 W,
# where the activation threshold binds at every point, so that the linear and
# nonlinear columns differ: (axis, header, rows) as the sweep runners wrote them
# before the experiments shared one driver, except that each lower_nl is the
# trivial bound 0 and each upper_nl the row's linear upper.
_TWO_POINT = {
    "jsp-vs-power": ((0.0, 10.0, 10.0, "dB"),
                     ["p_t_db", "mc", "lower", "upper", "mc_nl", "lower_nl", "upper_nl"],
                     [[0.0, 0.09333333333333334, 0.08686048765865867, 0.6514436512818513,
                       0.0033333333333333335, 0.0, 0.6514436512818513],
                      [10.0, 0.5166666666666667, 0.3326575067231874, 0.9868947170968957,
                       0.06666666666666667, 0.0, 0.9868947170968957]]),
    "jsp-vs-radius": ((40.0, 80.0, 40.0, "m"),
                      ["radius", "mc", "lower", "upper", "mc_nl", "lower_nl", "upper_nl"],
                      [[40.0, 0.12, 0.08725405838214188, 0.46073753286156266,
                        0.0033333333333333335, 0.0, 0.46073753286156266],
                       [80.0, 0.10333333333333333, 0.08635019306047609, 0.7870830574130498,
                        0.013333333333333334, 0.0, 0.7870830574130498]]),
    "jsp-vs-xi": ((0.3, 0.6, 0.3, ""),
                  ["xi", "mc", "lower", "upper", "mc_nl", "lower_nl", "upper_nl"],
                  [[0.3, 0.07333333333333333, 0.07250862951390949, 0.5832409801857015,
                    0.0033333333333333335, 0.0, 0.5832409801857015],
                   [0.6, 0.13666666666666666, 0.11141556669927509, 0.7449802587378274,
                    0.0033333333333333335, 0.0, 0.7449802587378274]]),
    "paoi-vs-xi": ((0.3, 0.6, 0.3, ""),
                   ["xi", "np_upper", "p_upper", "np_upper_nl", "p_upper_nl"],
                   [[0.3, 28.58292376242383, 16.65624874162763, math.inf, math.inf],
                    [0.6, 18.950812972107002, 11.774913403110347, math.inf, math.inf]]),
    "xistar-vs-power": ((10.0, 20.0, 10.0, "dB"),
                        ["p_t_db", "xi_star_jsp_lower", "xi_star_paoi_np", "xi_star_paoi_p"],
                        [[10.0] + [0.8599853372512829] * 3, [20.0] + [0.6437694101250946] * 3]),
    "xistar-vs-radius": ((50.0, 100.0, 50.0, "m"),
                         ["radius", "xi_star_jsp_lower", "xi_star_paoi_np", "xi_star_paoi_p"],
                         [[50.0] + [0.9080486514986119] * 3, [100.0] + [0.8017814047519137] * 3]),
}


def test_two_point_table_covers_every_sweep():
    assert set(_TWO_POINT) == {name for name, sweep in SWEEPS.items() if sweep is not None}


@pytest.mark.parametrize("name", sorted(_TWO_POINT))
def test_two_point_sweep_matches_recorded_values(tmp_path, name):
    (start, stop, step, unit), header, rows = _TWO_POINT[name]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[network]\np_t = 0 dB\n[harvester]\npr_min = 0.5\n"
                   f"[experiment]\nname = {name}\ntrials = 300\nseed = 2\n"
                   f"sweep_start = {start}\nsweep_stop = {stop}\nsweep_step = {step}\nsweep_unit = {unit}\n",
                   encoding="utf-8")
    assert main(["run", str(cfg), "--out", str(tmp_path)]) == 0
    with open(tmp_path / f"{name}.csv", newline="", encoding="utf-8") as fh:
        got = list(csv.reader(fh))
    assert got[0] == header
    assert [[float(v) for v in row] for row in got[1:]] == [pytest.approx(row, rel=1e-9) for row in rows]


def test_xistar_point_runs_one_search(tmp_path, monkeypatch):
    """Both peak-age closed forms strictly decrease in mu, so the xi* that
    maximizes the JSP lower bound minimizes both: one search fills all three
    columns of a point."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return optimize_xi(*args, **kwargs)

    monkeypatch.setattr(experiments, "optimize_xi", counted)
    spec = ExperimentSpec(name="xistar-vs-radius", output_dir=tmp_path, sweep=SweepAxis(50.0, 50.0, 50.0, "m"))
    experiments.run_experiment(NetworkConfig(), spec)
    assert len(calls) == 1
    with open(tmp_path / "xistar-vs-radius.csv", newline="", encoding="utf-8") as fh:
        header, row = list(csv.reader(fh))
    assert header == ["radius", "xi_star_jsp_lower", "xi_star_paoi_np", "xi_star_paoi_p"]
    assert row[0] == "50.0" and row[1] == row[2] == row[3] and 0.0 < float(row[1]) < 1.0


def test_radius_sweep_holds_two_geometries_per_trial(tmp_path):
    """config.MAX_TRIALS rests on this: a sweep keeps only its live geometry's
    sums (16 bytes a trial) while it draws the next (16 more). Marginal
    tracemalloc peak between 5e4 and 2e5 trials over five radii: about 34 bytes
    a trial; a cache of every radius's sums read 82. Margin: 14 bytes."""
    def peak(trials):
        jsp._geometry_sums.cache_clear()
        jsp._bound_integral.cache_clear()
        spec = ExperimentSpec(name="jsp-vs-radius", trials=trials, output_dir=tmp_path,
                              sweep=SweepAxis(20.0, 60.0, 10.0, "m"))
        tracemalloc.start()
        try:
            experiments.run_experiment(NetworkConfig(), spec)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert (peak(200_000) - peak(50_000)) / 150_000 < 48.0


@pytest.mark.parametrize("discipline", ["non_preemptive", "preemptive"])
def test_queue_path_bytes_per_slot(tmp_path, discipline):
    """config.MAX_SLOTS rests on this: a queue-path run holds the int64 AoI
    path, its float copy and the float slot axis (24 bytes a slot) while the
    CSV is written. Marginal tracemalloc peak between 2e5 and 1e6 slots: about
    32 bytes a slot without preemption and 34 with it; an index buffer and a
    gather for the staircase and an int64 arrival count read 46-48."""
    def peak(n_slots):
        spec = ExperimentSpec(name="queue-path", output_dir=tmp_path,
                              queue=QueueSettings(mu=0.3, p_a=0.5, n_slots=n_slots, discipline=discipline))
        tracemalloc.start()
        try:
            experiments.run_experiment(NetworkConfig(), spec)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert (peak(1_000_000) - peak(200_000)) / 800_000 <= 42.0
