import pytest

from aoiharvest.config import ConfigError, SweepAxis, parse_config
from aoiharvest.model import NetworkConfig


def write(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="utf-8")
    return path


def test_empty_config_resolves_to_defaults(tmp_path):
    cfg, spec = parse_config(write(tmp_path, ""))
    assert cfg == NetworkConfig()
    assert spec.name == "jsp-vs-power"
    assert spec.trials == 10_000
    assert spec.resolved_sweep() == SweepAxis(0.0, 20.0, 2.0, "dB")


def test_power_unit_parsing(tmp_path):
    cfg, _ = parse_config(write(tmp_path, "[network]\np_t = 10 dB\n"))
    assert cfg.p_t == pytest.approx(10.0)
    cfg, _ = parse_config(write(tmp_path, "[network]\np_t = 13 dB\n"))
    assert cfg.p_t == pytest.approx(10 ** 1.3)
    cfg, _ = parse_config(write(tmp_path, "[network]\np_t = 2.5 W\n"))
    assert cfg.p_t == 2.5
    cfg, _ = parse_config(write(tmp_path, "[network]\np_t = 2.5\n"))
    assert cfg.p_t == 2.5
    with pytest.raises(ConfigError):
        parse_config(write(tmp_path, "[network]\np_t = 2.5 dBm\n"))


def test_out_of_range_value_names_key_and_line(tmp_path):
    path = write(tmp_path, "[network]\nlambda = 0.003\nxi = 1.5\n")
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    message = str(err.value)
    assert "xi" in message
    assert ":3" in message  # the offending line


def test_unknown_key_rejected_with_line(tmp_path):
    path = write(tmp_path, "[network]\nfrequency = 2.4e9\n")
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert "frequency" in str(err.value)
    assert ":2" in str(err.value)


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(write(tmp_path, "[radio]\nx = 1\n"))


def test_unknown_experiment_name_rejected(tmp_path):
    with pytest.raises(ConfigError) as err:
        parse_config(write(tmp_path, "[experiment]\nname = jsp-vs-phase\n"))
    assert "jsp-vs-power" in str(err.value)  # valid names listed


def test_duplicate_key_rejected(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(write(tmp_path, "[network]\nxi = 0.4\nxi = 0.5\n"))
    # keys are case-insensitive, so a second spelling is the same key
    with pytest.raises(ConfigError) as err:
        parse_config(write(tmp_path, "[network]\nradius = 60\nRadius = 80\n"))
    assert "key 'radius'" in str(err.value)
    assert ":3" in str(err.value)


def test_harvester_thresholds_name_key_and_line(tmp_path):
    path = write(tmp_path, "[harvester]\nmodel = nonlinear\npr_min = 2\npr_max = 1\n")
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert f"{path}:3: key 'pr_min'" in str(err.value)
    with pytest.raises(ConfigError) as err:
        parse_config(write(tmp_path, "[harvester]\nmodel = cubic\n"))
    assert ":2: key 'model'" in str(err.value)


@pytest.mark.parametrize("section,key", [("experiment", "trials"), ("queue", "n_slots")])
@pytest.mark.parametrize("value", [0, -3])
def test_counts_below_one_rejected_with_line(tmp_path, section, key, value):
    path = write(tmp_path, f"[{section}]\n# a comment\n{key} = {value}\n")
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert f"{path}:3: key '{key}': must be >= 1" in str(err.value)


@pytest.mark.parametrize("section,key,value,message", [
    ("experiment", "seed", "-1", "must be >= 0"),
    ("queue", "mu", "1.5", "must be in (0, 1]"),
    ("queue", "mu", "0", "must be in (0, 1]"),
    ("queue", "mu", "nan", "must be in (0, 1]"),
    ("queue", "p_a", "-0.2", "must be in (0, 1]"),
    ("queue", "p_a", "1.01", "must be in (0, 1]"),
    ("experiment", "name", "jsp-vs-phase", "unknown experiment 'jsp-vs-phase'; valid: jsp-vs-power"),
    ("queue", "discipline", "lifo", "must be non_preemptive or preemptive, got 'lifo'"),
])
def test_out_of_range_run_settings_name_key_and_line(tmp_path, section, key, value, message):
    path = write(tmp_path, f"[{section}]\n# a comment\n{key} = {value}\n")
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert f"{path}:3: key '{key}': {message}" in str(err.value)


def test_run_settings_at_their_limits_accepted(tmp_path):
    _, spec = parse_config(write(tmp_path, "[experiment]\nseed = 0\n[queue]\nmu = 1\np_a = 1e-9\n"))
    assert (spec.seed, spec.queue.mu, spec.queue.p_a) == (0, 1.0, 1e-9)


def _sweep_cfg(tmp_path, name, start="0", stop="1", step="1", unit=None):
    text = f"[experiment]\nname = {name}\nsweep_start = {start}\nsweep_stop = {stop}\nsweep_step = {step}\n"
    return write(tmp_path, text + (f"sweep_unit = {unit}\n" if unit is not None else ""))


@pytest.mark.parametrize("name,unit,allowed", [
    ("jsp-vs-radius", "dB", "'m' on the radius axis"),
    ("xistar-vs-radius", "W", "'m' on the radius axis"),
    ("jsp-vs-power", "mW", "'dB' or 'W' on the p_t axis"),
    ("xistar-vs-power", "m", "'dB' or 'W' on the p_t axis"),
    ("jsp-vs-xi", "dB", "'' on the xi axis"),
    ("paoi-vs-xi", "m", "'' on the xi axis"),
])
def test_sweep_unit_must_fit_the_axis(tmp_path, name, unit, allowed):
    path = _sweep_cfg(tmp_path, name, unit=unit)
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert f"{path}:6: key 'sweep_unit': must be {allowed} of {name}, got {unit!r}" in str(err.value)


@pytest.mark.parametrize("name,unit", [("jsp-vs-power", "dB"), ("jsp-vs-power", "db"), ("jsp-vs-power", "W"),
                                       ("jsp-vs-radius", "m"), ("paoi-vs-xi", ""), ("jsp-vs-xi", None)])
def test_sweep_units_that_fit_are_kept(tmp_path, name, unit):
    _, spec = parse_config(_sweep_cfg(tmp_path, name, start="0.2", stop="0.4", step="0.2", unit=unit))
    assert spec.sweep == SweepAxis(0.2, 0.4, 0.2, "" if unit is None else unit)


@pytest.mark.parametrize("key,value,line,message", [
    ("step", "0", 5, "key 'sweep_step': must be finite and > 0"),
    ("step", "-2", 5, "key 'sweep_step': must be finite and > 0"),
    ("step", "nan", 5, "key 'sweep_step': must be finite and > 0"),
    ("step", "inf", 5, "key 'sweep_step': must be finite and > 0"),
    ("start", "-inf", 3, "key 'sweep_start': must be finite"),
    ("start", "nan", 3, "key 'sweep_start': must be finite"),
    ("stop", "inf", 4, "key 'sweep_stop': must be finite and >= sweep_start 0.0"),
    ("stop", "-1", 4, "key 'sweep_stop': must be finite and >= sweep_start 0.0"),
])
def test_bad_sweep_axis_names_key_and_line(tmp_path, key, value, line, message):
    path = _sweep_cfg(tmp_path, "jsp-vs-power", **{key: value})
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert f"{path}:{line}: {message}" in str(err.value)


def test_one_point_sweep_axis_accepted(tmp_path):
    _, spec = parse_config(_sweep_cfg(tmp_path, "jsp-vs-radius", start="200", stop="200", step="50"))
    assert spec.sweep.values() == [200.0]


def test_sweep_axis_point_limit(tmp_path):
    _, spec = parse_config(_sweep_cfg(tmp_path, "jsp-vs-radius", start="1", stop="10000", step="1"))
    assert len(spec.sweep.values()) == 10_000
    for stop, step in [("10001", "1"), ("1e300", "1e-300")]:  # the second count overflows a float
        path = _sweep_cfg(tmp_path, "jsp-vs-radius", start="1", stop=stop, step=step)
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert f"{path}:5: key 'sweep_step': the axis would have more than 10000 points" in str(err.value)


def test_sweep_keys_need_an_axis(tmp_path):
    path = write(tmp_path, "[experiment]\nsweep_unit = W\n")
    with pytest.raises(ConfigError) as err:
        parse_config(path)  # a unit alone would leave the dB default axis in place
    assert "sweep_unit needs them too" in str(err.value)
    path = _sweep_cfg(tmp_path, "queue-path")
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert f"{path}:3: queue-path has no sweep axis" in str(err.value)


def test_malformed_line_rejected(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(write(tmp_path, "[network]\nxi\n"))
    with pytest.raises(ConfigError):
        parse_config(write(tmp_path, "xi = 0.4\n"))  # key before any section


def test_missing_file():
    with pytest.raises(ConfigError):
        parse_config("/nonexistent/path.cfg")


def test_comments_and_full_roundtrip(tmp_path):
    text = """
# comment line
[network]
lambda = 0.004      # per m^2
radius = 80
p_t = 3 dB
xi = 0.3

[harvester]
model = nonlinear
pr_min = 0.02
pr_max = 5

[experiment]
name = jsp-vs-radius
trials = 500
seed = 7
output_dir = out
sweep_start = 20
sweep_stop = 60
sweep_step = 20
sweep_unit = m

[queue]
mu = 0.5
p_a = 0.8
n_slots = 50
discipline = preemptive
"""
    cfg, spec = parse_config(write(tmp_path, text))
    assert cfg.density == 0.004
    assert cfg.radius == 80.0
    assert cfg.p_t == pytest.approx(10 ** 0.3)
    assert cfg.xi == 0.3
    assert cfg.harvester.kind == "nonlinear"
    assert cfg.harvester.pr_min == 0.02
    assert spec.name == "jsp-vs-radius"
    assert spec.trials == 500
    assert spec.seed == 7
    assert str(spec.output_dir) == "out"
    assert spec.sweep.values() == [20.0, 40.0, 60.0]
    assert spec.queue.mu == 0.5
    assert spec.queue.discipline == "preemptive"


def test_partial_sweep_rejected(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(write(tmp_path, "[experiment]\nsweep_start = 1\n"))


def test_type_errors_are_descriptive(tmp_path):
    with pytest.raises(ConfigError) as err:
        parse_config(write(tmp_path, "[network]\nradius = sixty\n"))
    assert "radius" in str(err.value)
    with pytest.raises(ConfigError) as err:
        parse_config(write(tmp_path, "[experiment]\ntrials = 1e4\n"))
    assert "trials" in str(err.value)


def test_sweep_axis_values():
    assert SweepAxis(0.0, 20.0, 2.0).values() == [float(x) for x in range(0, 21, 2)]
    assert len(SweepAxis(0.05, 0.95, 0.05).values()) == 19
    with pytest.raises(ConfigError):
        SweepAxis(0.0, 1.0, 0.0).values()
