"""Tests of the benchmark itself: run with

    python3 -m pytest perfbench/tests -q     (from the repository root)
"""

import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_wrapper_returns_result_and_records_span():
    tracer = tracing.Tracer()
    calls = []
    wrapped = tracer.wrap("m.f", lambda a, b=1: calls.append(1) or (a, b))
    assert wrapped(3, b=4) == (3, 4)
    assert calls == [1]
    (name, start, end, parent, outermost), = tracer.spans
    assert (name, parent, outermost) == ("m.f", -1, True) and end >= start


def test_wrapper_propagates_exceptions_and_closes_span():
    tracer = tracing.Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("m.boom", boom)()
    assert tracer.spans[0][0] == "m.boom" and not tracer._stack


def test_install_preserves_return_values_and_restores():
    from aoiharvest import experiments, jsp, optimizer, quadrature
    from aoiharvest.model import NetworkConfig

    cfg = NetworkConfig(radius=20.0)
    original_bound = jsp.jsp_lower_bound
    want_bound = jsp.jsp_lower_bound(cfg, regime="linear")
    want_integral = quadrature.integrate_adaptive(np.exp, 0.0, 1.0)

    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        # rebinding reaches names imported with "from .jsp import ..."
        assert experiments.jsp_lower_bound is not original_bound
        assert optimizer.jsp_lower_bound is experiments.jsp_lower_bound
        assert jsp.jsp_lower_bound(cfg, regime="linear") == want_bound
        assert quadrature.integrate_adaptive(np.exp, 0.0, 1.0) == want_integral
    finally:
        restore()
    assert jsp.jsp_lower_bound is original_bound and experiments.jsp_lower_bound is original_bound
    agg = tracer.aggregate()
    assert agg["jsp.jsp_lower_bound"]["calls"] == 1
    assert agg["quadrature.regularized_gamma_rows"]["calls"] > 0
    assert tracer.counters["quadrature.regularized_gamma_rows.cells"] > 0
    assert tracer.counters["quadrature.integrate_adaptive.panels"] > 0


def test_span_self_times_sum_to_no_more_than_root():
    tracer = tracing.Tracer()
    leaf = tracer.wrap("m.leaf", lambda: time.sleep(0.002))

    def middle():
        leaf()
        leaf()
        time.sleep(0.001)

    mid = tracer.wrap("m.middle", middle)

    def root():
        mid()
        leaf()

    tracer.wrap("m.root", root)()
    agg = tracer.aggregate()
    total_self = sum(a["self_s"] for a in agg.values())
    root_s = tracer.root_time("m.root")
    assert all(a["self_s"] >= 0 for a in agg.values())
    assert total_self <= root_s + 1e-9
    assert total_self == pytest.approx(root_s, abs=1e-6)
    assert agg["m.leaf"]["calls"] == 3
    assert agg["m.root"]["incl_s"] == pytest.approx(root_s)


def test_recursive_calls_counted_once_in_inclusive_time():
    tracer = tracing.Tracer()

    def fact(n):
        return 1 if n <= 1 else n * traced(n - 1)

    traced = tracer.wrap("m.fact", fact)
    assert traced(5) == 120
    agg = tracer.aggregate()["m.fact"]
    assert agg["calls"] == 5
    assert agg["incl_s"] == pytest.approx(tracer.root_time("m.fact"))


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    empty = {"aggregate": {}, "counters": {}, "distinct_geometries": 0}
    assert set(run.per_layer_metrics(empty, 1, {}, 1.0, 1.0)) == set(run.per_layer_units())
    iterations = [{"wall_s": 1.0, "cpu_s": 1.0, "peak_rss_mb": 1.0}]
    assert set(run.end_to_end_metrics(iterations, [1.0])) == set(run.END_TO_END)


def test_import_times_parsed_from_importtime_output():
    stderr = ("import time: self [us] | cumulative | imported package\n"
              "import time:       120 |        450 |   aoiharvest.model\n"
              "import time:      2000 |    900000 | aoiharvest\n")
    assert run.import_times(stderr) == {"aoiharvest.model": 450e-6, "aoiharvest": 0.9}


def test_wilson_halfwidth_matches_program():
    from aoiharvest.jsp import wilson_halfwidth

    for successes, trials in ((0, 100), (37, 400), (19_000, 20_000)):
        assert checks.wilson_halfwidth(successes / trials, trials) == pytest.approx(
            wilson_halfwidth(successes, trials), rel=1e-12)


def test_known_defect_rows_fail_without_making_the_run_incorrect():
    ref = json.loads((BENCH / "reference.json").read_text())["jsp-power"][:1]
    header = ["p_t_db", "mc", "lower", "upper", "mc_nl", "lower_nl", "upper_nl"]
    good = [0.0, 0.3, ref[0]["lower"], ref[0]["upper"], 0.3, 0.1, 0.9]
    (row,) = checks.check_jsp(header, [good], [0.0], 20_000, ref)
    assert not row.failed
    nl_broken = good[:5] + [0.5, 0.9]
    (row,) = checks.check_jsp(header, [nl_broken], [0.0], 20_000, ref)
    assert row.failed and not row.incorrect
    lin_broken = [0.0, 0.01] + good[2:]
    (row,) = checks.check_jsp(header, [lin_broken], [0.0], 20_000, ref)
    assert row.incorrect


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_configs_parse_to_their_definition(tmp_path, name):
    from aoiharvest.config import parse_config

    workload = WORKLOADS[name]
    for job in workload.jobs:
        path = tmp_path / f"{job}.cfg"
        path.write_text(workload.config_text(job, 7, str(tmp_path / job)))
        cfg, spec = parse_config(path)
        meta = {"experiment": spec.name, "seed": spec.seed, "trials": spec.trials,
                "network": {"radius": cfg.radius},
                "queue": {"n_slots": spec.queue.n_slots, "discipline": spec.queue.discipline,
                          "mu": spec.queue.mu, "p_a": spec.queue.p_a},
                "mu": spec.queue.mu, "p_a": spec.queue.p_a}
        axis = spec.resolved_sweep()
        if axis is not None:
            meta["sweep"] = {"start": axis.start, "stop": axis.stop, "step": axis.step, "unit": axis.unit}
            assert axis.values() == workload.axis
        assert checks.fidelity_failures(meta, workload.expected_meta(job, 7)) == []
        assert checks.fidelity_failures(meta, workload.expected_meta(job, 8)) != []
