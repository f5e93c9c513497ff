import csv
import functools
import json

import pytest

from aoiharvest import experiments
from aoiharvest.cli import main
from aoiharvest.config import EXPERIMENT_NAMES, MAX_SLOTS, MAX_TRIALS, parse_config


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_list_experiments(capsys):
    assert main(["list-experiments"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == list(EXPERIMENT_NAMES)


def test_validate_ok(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[network]\nxi = 0.3\n")
    assert main(["validate", cfg]) == 0
    assert "config ok" in capsys.readouterr().out


def test_validate_prints_a_config_that_parses_back(tmp_path, capsys):
    """Every setting round-trips: network, harvester, experiment with its
    output directory and sweep axis, and the queue section."""
    texts = [
        "[network]\nlambda = 0.004\np_t = 3 dB\nsigma = 20\n[harvester]\nmodel = Nonlinear\npr_min = 0.02\n"
        "[experiment]\nname = jsp-vs-xi\ntrials = 500\nseed = 7\noutput_dir = runs/xi\n"
        "sweep_start = 0.1\nsweep_stop = 0.5\nsweep_step = 0.2\n[queue]\nmu = 0.5\n",
        "[experiment]\nname = queue-path\noutput_dir = out\n"
        "[queue]\ndiscipline = preemptive\nmu = 0.3\np_a = 0.5\nn_slots = 77\n",
        "[experiment]\nname = jsp-vs-power\nsweep_start = 1\nsweep_stop = 3\nsweep_step = 0.5\nsweep_unit = w\n",
        "",
    ]
    outs = []
    for i, text in enumerate(texts):
        cfg = write_cfg(tmp_path, text)
        assert main(["validate", cfg]) == 0
        outs.append(capsys.readouterr().out)
        assert outs[-1].startswith(f"config ok: {cfg}\n")
        printed = parse_config(write_cfg(tmp_path, outs[-1].split("\n", 1)[1], f"printed{i}.cfg"))
        assert printed == parse_config(cfg), text
    assert "p_t = 1.9952623149688795 W\n" in outs[0]
    net, spec = parse_config(write_cfg(tmp_path, texts[0]))
    assert net.p_t == 1.9952623149688795 and net.harvester.kind == "nonlinear"
    assert (spec.name, spec.trials, spec.seed, str(spec.output_dir)) == ("jsp-vs-xi", 500, 7, "runs/xi")
    assert spec.sweep is not None and spec.queue.mu == 0.5


def test_validate_bad_config(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[network]\nxi = 1.5\n")
    assert main(["validate", cfg]) == 1
    assert "xi" in capsys.readouterr().err


def test_validate_rejects_out_of_range_run_settings(tmp_path, capsys):
    for key, text in [("seed", "[experiment]\nseed = -1\n"), ("mu", "[queue]\nmu = 1.5\n"),
                      ("p_a", "[queue]\np_a = 0\n")]:
        cfg = write_cfg(tmp_path, text)
        assert main(["validate", cfg]) == 1
        out, err = capsys.readouterr()
        assert "config ok" not in out
        assert f"{cfg}:2: key '{key}'" in err


def test_validate_rejects_bad_sweep_axis(tmp_path, capsys):
    for key, axis in [("sweep_step", "sweep_start = 0\nsweep_stop = 1\nsweep_step = 0\n"),
                      ("sweep_stop", "sweep_start = 1\nsweep_stop = 0\nsweep_step = 1\n"),
                      ("sweep_unit", "sweep_start = 20\nsweep_stop = 40\nsweep_step = 20\nsweep_unit = dB\n")]:
        cfg = write_cfg(tmp_path, "[experiment]\nname = jsp-vs-radius\n" + axis)
        assert main(["validate", cfg]) == 1
        out, err = capsys.readouterr()
        assert "config ok" not in out
        assert f"key '{key}'" in err


def _axis(name, start, stop, step, unit=None):
    text = f"[experiment]\nname = {name}\nsweep_start = {start}\nsweep_stop = {stop}\n"
    return text + f"sweep_step = {step}\n" + (f"sweep_unit = {unit}\n" if unit else "")


@pytest.mark.parametrize("text,key,line", [
    ("[harvester]\npr_min = -1\n", "pr_min", 2),  # linear model: the sweeps' nonlinear twin
    ("[harvester]\npr_min = 20\n", "pr_min", 2),  # above pr_max
    ("[network]\nradius = inf\n", "radius", 2),
    ("[network]\nlambda = inf\n", "lambda", 2),
    ("[network]\nalpha = inf\n", "alpha", 2),
    ("[network]\nlambda = 1e306\n", "lambda", 2),  # lambda pi R^2 overflows
    ("[network]\nradius = 1e160\n", "radius", 2),  # the same, with the default lambda
    ("[network]\nlambda = 1e300\n", "lambda", 2),  # finite mean count, no finite count quantile
    ("[network]\np_t = 4000 dB\n", "p_t", 2),  # past the double range in W
    (_axis("jsp-vs-xi", 0.5, 1.0, 0.25), "sweep_stop", 4),
    (_axis("jsp-vs-radius", 0, 40, 20), "sweep_start", 3),
    (_axis("jsp-vs-radius", 20, 1e7, 1e7 - 20), "sweep_stop", 4),  # mean count 9.4e11 at the end
    ("[network]\nlambda = 4\n", "lambda", 2),  # mean count 4.5e4: past the sampler's memory limit
    (_axis("jsp-vs-radius", 20, 5000, 4980), "sweep_stop", 4),  # mean count 2.4e5 at the end
    (_axis("jsp-vs-power", 0, 2, 1, "W"), "sweep_start", 3),
    (_axis("jsp-vs-power", 3000, 4000, 1000), "sweep_stop", 4),
    ("[harvester]\npr_max = 0.01\n", "pr_max", 2),  # below the default pr_min
    (_axis("jsp-vs-power", 0, 20, 1e-12), "sweep_step", 5),  # 2e13 points
    ("[network]\np_t = 2.5 dBm\n", "p_t", 2),
    ("[network]\np_t = 1 2 W\n", "p_t", 2),
    ("[network]\np_t =\n", "p_t", 2),
    ("[network]\np_t = dB\n", "p_t", 2),
    ("[experiment]\ntrials = 6000001\n", "trials", 2),  # past config.MAX_TRIALS
    ("[queue]\nn_slots = 18000001\n", "n_slots", 2),  # past config.MAX_SLOTS
], ids=["pr_min_negative", "pr_min_above_pr_max", "radius_inf", "lambda_inf", "alpha_inf",
        "mean_count_overflow", "mean_count_overflow_on_radius", "mean_count_quantile_nan",
        "p_t_db_overflow", "xi_axis_reaches_1", "radius_axis_from_0", "radius_axis_mean_count",
        "mean_count_past_sampler_limit", "radius_axis_past_sampler_limit",
        "watt_axis_from_0", "db_axis_overflow", "pr_max_below_default_pr_min", "axis_too_long",
        "p_t_unknown_unit", "p_t_two_numbers", "p_t_empty", "p_t_unit_only",
        "trials_past_memory_limit", "n_slots_past_memory_limit"])
def test_bad_values_fail_validate_and_run_with_key_and_line(tmp_path, capsys, text, key, line):
    cfg = write_cfg(tmp_path, text)
    assert main(["validate", cfg]) == 1
    out, err = capsys.readouterr()
    assert "config ok" not in out
    assert f"{cfg}:{line}: key '{key}'" in err
    assert main(["run", cfg, "--out", str(tmp_path / "out"), "--trials", "10"]) == 1
    assert not list(tmp_path.glob("out/*.csv"))


@pytest.mark.parametrize("option,value,message", [
    ("--seed", "-1", "must be >= 0"),
    ("--trials", "0", "must be >= 1"),
    ("--trials", "-5", "must be >= 1"),
    ("--trials", "6000001", "must be >= 1 and <= 6000000, the memory limit"),
    ("--seed", "1.5", "invalid int value: '1.5'"),
])
def test_out_of_range_overrides_name_the_option(tmp_path, capsys, option, value, message):
    cfg = write_cfg(tmp_path, "[queue]\nmu = 0.5\nn_slots = 5\n")
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["run", cfg, "--experiment", "queue-path", "--out", str(out), option, value])
    assert exc.value.code == 2
    assert f"argument {option}: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_overrides_at_their_limits_accepted(tmp_path):
    cfg = write_cfg(tmp_path, "[queue]\nmu = 0.5\nn_slots = 5\n")
    out = tmp_path / "out"
    assert main(["run", cfg, "--experiment", "queue-path", "--out", str(out),
                 "--seed", "0", "--trials", "1"]) == 0
    meta = json.loads((out / "queue-path.csv.meta.json").read_text())
    assert (meta["seed"], meta["trials"]) == (0, 1)


def test_count_limits_accepted(tmp_path):
    cfg = write_cfg(tmp_path, f"[experiment]\ntrials = {MAX_TRIALS}\n[queue]\nn_slots = {MAX_SLOTS}\n")
    assert main(["validate", cfg]) == 0


def test_unknown_experiment_exit_code(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "")
    assert main(["run", cfg, "--experiment", "jsp-vs-nothing"]) == 2
    err = capsys.readouterr().err
    for name in EXPERIMENT_NAMES:
        assert name in err


def test_queue_path_deterministic_link(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[queue]\nmu = 1\np_a = 1\nn_slots = 10\n")
    out = tmp_path / "out"
    assert main(["run", cfg, "--experiment", "queue-path", "--out", str(out)]) == 0
    header, rows = read_csv(out / "queue-path.csv")
    assert header == ["slot", "aoi"]
    assert len(rows) == 10
    assert all(row[1] == "2.0" for row in rows)


def test_jsp_sweep_structure_and_metadata(tmp_path):
    cfg = write_cfg(tmp_path, (
        "[experiment]\n"
        "name = jsp-vs-power\n"
        "trials = 400\n"
        "seed = 5\n"
        "sweep_start = 0\nsweep_stop = 20\nsweep_step = 10\nsweep_unit = dB\n"
    ))
    out = tmp_path / "res"
    assert main(["run", cfg, "--out", str(out)]) == 0
    header, rows = read_csv(out / "jsp-vs-power.csv")
    assert header == ["p_t_db", "mc", "lower", "upper", "mc_nl", "lower_nl", "upper_nl"]
    assert len(rows) == 3
    meta = json.loads((out / "jsp-vs-power.csv.meta.json").read_text())
    assert meta["seed"] == 5
    assert meta["trials"] == 400
    assert meta["network"]["radius"] == 60.0
    assert meta["version"]


def test_csv_values_reproducible_by_library_calls(tmp_path):
    cfg = write_cfg(tmp_path, (
        "[experiment]\nname = jsp-vs-xi\ntrials = 300\nseed = 9\n"
        "sweep_start = 0.2\nsweep_stop = 0.6\nsweep_step = 0.2\n"
    ))
    out = tmp_path / "res"
    assert main(["run", cfg, "--out", str(out)]) == 0
    header, rows = read_csv(out / "jsp-vs-xi.csv")
    from dataclasses import replace
    from aoiharvest import NetworkConfig, jsp_monte_carlo
    for row in rows:
        xi = float(row[header.index("xi")])
        direct = jsp_monte_carlo(replace(NetworkConfig(), xi=xi), trials=300, seed=9)
        assert float(row[header.index("mc")]) == direct.value


def test_reruns_are_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, (
        "[experiment]\nname = jsp-vs-radius\ntrials = 200\nseed = 3\n"
        "sweep_start = 40\nsweep_stop = 80\nsweep_step = 40\nsweep_unit = m\n"
    ))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", cfg, "--out", str(out1)]) == 0
    assert main(["run", cfg, "--out", str(out2)]) == 0
    assert (out1 / "jsp-vs-radius.csv").read_bytes() == (out2 / "jsp-vs-radius.csv").read_bytes()


def test_seed_and_trials_overrides(tmp_path):
    cfg = write_cfg(tmp_path, "[experiment]\nname = queue-path\nseed = 1\n[queue]\nmu = 0.5\nn_slots = 30\n")
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["run", cfg, "--out", str(out1)]) == 0
    assert main(["run", cfg, "--out", str(out2), "--seed", "2"]) == 0
    a = (out1 / "queue-path.csv").read_bytes()
    b = (out2 / "queue-path.csv").read_bytes()
    assert a != b
    meta = json.loads((out2 / "queue-path.csv.meta.json").read_text())
    assert meta["seed"] == 2


def test_queue_path_derives_mu_only_where_the_lower_bound_is_positive(tmp_path, capsys):
    # an activation threshold that binds leaves the trivial lower bound 0
    binding = write_cfg(tmp_path, "[harvester]\nmodel = nonlinear\n[queue]\nn_slots = 5\n", "a.cfg")
    assert main(["run", binding, "--experiment", "queue-path", "--out", str(tmp_path / "a")]) == 1
    assert "give [queue] mu explicitly" in capsys.readouterr().err
    open_window = write_cfg(tmp_path, "[harvester]\nmodel = nonlinear\npr_min = 0.001\n"
                                      "[queue]\nn_slots = 5\n", "b.cfg")
    assert main(["run", open_window, "--experiment", "queue-path", "--out", str(tmp_path / "b")]) == 0
    meta = json.loads((tmp_path / "b" / "queue-path.csv.meta.json").read_text())
    assert 0.0 < meta["mu"] < 1.0


def test_unwritable_output_dir(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a dir")
    cfg = write_cfg(tmp_path, "[queue]\nmu = 1\nn_slots = 5\n")
    code = main(["run", cfg, "--experiment", "queue-path", "--out", str(blocker / "sub")])
    assert code == 1
    assert capsys.readouterr().err


def test_unconverged_bound_is_reported(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(experiments, "QuadratureSpec",
                        functools.partial(experiments.QuadratureSpec, max_subdivisions=1))
    cfg = write_cfg(tmp_path, (
        "[experiment]\nname = jsp-vs-power\ntrials = 200\nseed = 1\n"
        "sweep_start = 0\nsweep_stop = 10\nsweep_step = 10\nsweep_unit = dB\n"
    ))
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 0
    warnings = capsys.readouterr().err.splitlines()
    assert "warning: jsp-vs-power: p_t_db = 0.0: lower: quadrature did not converge" in warnings
    assert all(line.startswith("warning: jsp-vs-power: p_t_db = ") for line in warnings)
    assert not any(": mc" in line for line in warnings)
