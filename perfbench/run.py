"""Reproduction benchmark for aoiharvest.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Each iteration of a workload is one fresh
interpreter (perfbench/worker.py) that imports ``aoiharvest.cli``, parses the
workload's config and calls ``run_experiment``, serially, with
``AOI_EH_THREADS`` unset. Iterations repeat until the run_experiment calls
have taken ``--seconds`` in total (at least one iteration). Every output row
is checked (perfbench/checks.py), output bytes must repeat across iterations
and runs of the same code and seed, and the sidecars must echo the
workload's inputs.

``--trace 0`` reports the end-to-end metrics: setup_s (interpreter start to
``import aoiharvest.cli`` plus ``parse_config``; median over at least
``MIN_SETUP_SAMPLES`` processes), wall_s and cpu_s (the run_experiment calls,
until every CSV and sidecar is written) and peak_rss_mb (of the workload
process), each the median over iterations. ``--trace 1`` runs one untraced and
one traced iteration and reports the per-layer metrics (perfbench/tracing.py)
plus the tracing overhead. The failed-operation share is printed as
``ops_failed_frac`` with every failing row; the last stdout line is one JSON
object with keys correct, attempted (output rows), failed (rows failing any
check) and metrics. ``correct`` is false when a check other than the known
nonlinear-sandwich defect fails (see perfbench/checks.py).

Outputs, spans and per-run results go to .bench_out/ under the root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))

from checks import check_outputs  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_SETUP_SAMPLES = 3
RUN_DEADLINE_S = 170.0
THREAD_ENV = ("AOI_EH_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

# Spans whose calls and time are reported; "self" excludes child spans,
# "incl" is the wall time of the outermost calls.
SPAN_METRICS = {
    "geometry.sample_batch": ("calls", "self_s"),
    "jsp.jsp_monte_carlo": ("calls", "self_s"),
    "jsp.select_regime": ("calls", "incl_s"),
    "jsp.jsp_lower_bound": ("calls", "incl_s"),
    "jsp.jsp_upper_bound": ("calls", "incl_s"),
    "quadrature.regularized_gamma_rows": ("calls", "self_s"),
    "quadrature.integrate_adaptive": ("calls", "self_s"),
    "optimizer.optimize_xi": ("calls", "incl_s"),
    "aoi.simulate_queue": ("calls", "self_s"),
    "experiments.run_experiment": ("self_s",),
    "experiments.write_csv": ("self_s",),
    "config.parse_config": ("incl_s",),
}
COUNTER_METRICS = {
    "geometry.sample_batch.points": "count",
    "jsp.jsp_monte_carlo.trials": "count",
    "jsp.bound_nonconverged": "count",
    "jsp.bound_quad_err_max": "prob",
    "quadrature.regularized_gamma_rows.cells": "count",
    "quadrature.integrate_adaptive.panels": "count",
    "quadrature.integrate_adaptive.nonconverged": "count",
    "optimizer.optimize_xi.evaluations": "count",
    "aoi.simulate_queue.slots": "count",
    "experiments.bytes_written": "bytes",
}
DERIVED_METRICS = {
    "geometry.ns_per_point": "ns",
    "jsp.sampling_passes_per_point": "ratio",
    "jsp.geometry_reuse": "ratio",
    "quadrature.ns_per_cell": "ns",
    "optimizer.bound_reuse": "ratio",
    "aoi.ns_per_slot": "ns",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}
SELF_LAYERS = ("config", "experiments", "geometry", "jsp", "quadrature", "optimizer", "aoi")
IMPORT_MODULES = ("aoiharvest", "aoiharvest.model", "aoiharvest.geometry", "aoiharvest.quadrature",
                  "aoiharvest.jsp", "aoiharvest.aoi", "aoiharvest.optimizer", "aoiharvest.config",
                  "aoiharvest.experiments", "aoiharvest.cli")


def per_layer_units() -> dict[str, str]:
    units = {f"{span}.{key}": ("count" if key == "calls" else "s")
             for span, keys in SPAN_METRICS.items() for key in keys}
    units.update(COUNTER_METRICS)
    units.update(DERIVED_METRICS)
    units.update({f"layer.{layer}.self_s": "s" for layer in SELF_LAYERS})
    units.update({f"setup.import_s.{mod}": "s" for mod in IMPORT_MODULES})
    return units


class BenchError(RuntimeError):
    pass


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def per_layer_metrics(trace: dict, n_points: int, import_s: dict[str, float],
                      traced_wall: float, untraced_wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced iteration; zero where a layer did no work."""
    agg, cnt = trace["aggregate"], trace["counters"]
    out = {f"{span}.{key}": agg.get(span, {}).get(key, 0)
           for span, keys in SPAN_METRICS.items() for key in keys}
    out.update({name: cnt.get(name, 0) for name in COUNTER_METRICS})

    def self_s(span):
        return agg.get(span, {}).get("self_s", 0.0)

    passes = cnt.get("jsp.sampling_passes", 0)
    out.update({
        "geometry.ns_per_point": _ratio(self_s("geometry.sample_batch"),
                                        cnt.get("geometry.sample_batch.points", 0), 1e9),
        "jsp.sampling_passes_per_point": _ratio(passes, n_points),
        "jsp.geometry_reuse": _ratio(trace["distinct_geometries"], passes),
        "quadrature.ns_per_cell": _ratio(self_s("quadrature.regularized_gamma_rows"),
                                         cnt.get("quadrature.regularized_gamma_rows.cells", 0), 1e9),
        "optimizer.bound_reuse": (1.0 - _ratio(cnt.get("optimizer.bound_calls", 0),
                                               cnt.get("optimizer.optimize_xi.evaluations", 0))
                                  if cnt.get("optimizer.optimize_xi.evaluations") else 0.0),
        "aoi.ns_per_slot": _ratio(self_s("aoi.simulate_queue"), cnt.get("aoi.simulate_queue.slots", 0), 1e9),
    })
    layer_self = {layer: sum(a["self_s"] for span, a in agg.items() if span.split(".")[0] == layer)
                  for layer in SELF_LAYERS}
    out.update({f"layer.{layer}.self_s": t for layer, t in layer_self.items()})
    out.update({f"setup.import_s.{mod}": import_s.get(mod, 0.0) for mod in IMPORT_MODULES})
    out.update({
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        # parse_config runs before run_experiment; every other layer runs inside it
        "trace.coverage": _ratio(sum(t for layer, t in layer_self.items() if layer != "config"),
                                 traced_wall),
    })
    return out


def end_to_end_metrics(iterations: list[dict], setup_samples: list[float]) -> dict[str, float]:
    out = {"setup_s": statistics.median(setup_samples)}
    for key in ("wall_s", "cpu_s", "peak_rss_mb"):
        out[key] = statistics.median(it[key] for it in iterations)
    return out


def import_times(stderr: str) -> dict[str, float]:
    """Cumulative import seconds per module from ``python -X importtime``."""
    out = {}
    for line in stderr.splitlines():
        if line.startswith("import time:") and line.count("|") == 2:
            _, cumulative, name = line[len("import time:"):].split("|")
            if cumulative.strip().isdigit():
                out[name.strip()] = int(cumulative) / 1e6
    return out


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("AOI_EH_THREADS", None)  # one worker: the CLI's default
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(job: dict, deadline: float, importtime: bool = False) -> dict:
    """Run worker.py once; adds setup_s measured from just before the spawn."""
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
           str(BENCH / "worker.py"), json.dumps(job)]
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=worker_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired:
        raise BenchError("a workload iteration did not finish before the run deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["setup_done"] - t_spawn
    if importtime:
        result["import_s"] = import_times(proc.stderr)
    return result


def write_configs(workload, seed: int, iter_dir: Path) -> dict[str, Path]:
    """One config per job; returns job -> output directory."""
    iter_dir.mkdir(parents=True)
    out_dirs = {}
    for job in workload.jobs:
        out_dirs[job] = iter_dir / job
        (iter_dir / f"{job}.cfg").write_text(workload.config_text(job, seed, str(out_dirs[job])),
                                             encoding="utf-8")
    return out_dirs


def relative_digests(files: dict[str, str], iter_dir: Path) -> dict[str, str]:
    return {Path(p).relative_to(iter_dir).as_posix(): d for p, d in files.items()}


def code_identity() -> tuple[str, int]:
    """SHA-256 over the program sources, and their line count."""
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return digest.hexdigest(), lines


def git_sha() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(versions: dict, code_id: str, src_lines: int) -> dict:
    return {
        "git_sha": git_sha(),
        "src_sha256": code_id,
        "src_lines": src_lines,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **versions,
        "machine": platform.machine(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
    }


def check_determinism(key: str, code_id: str, digests: list[dict[str, str]]) -> list[str]:
    """Files whose bytes differ between iterations of this run, or from an
    earlier run of the same code and seed in this checkout."""
    first = digests[0]
    bad = {name for d in digests[1:] for name in set(first) | set(d) if first.get(name) != d.get(name)}
    cache_path = OUT / "digests.json"
    cache = json.loads(cache_path.read_text(encoding="utf-8")) if cache_path.is_file() else {}
    earlier = cache.get(key)
    if earlier and earlier["code"] == code_id:
        bad |= {name for name in set(first) | set(earlier["files"])
                if first.get(name) != earlier["files"].get(name)}
    else:
        cache[key] = {"code": code_id, "files": first}
        tmp = cache_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(cache, indent=1, sort_keys=True), encoding="utf-8")
        tmp.replace(cache_path)
    return sorted(bad)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def run(args) -> dict:
    if not (SRC / "aoiharvest" / "__init__.py").is_file():
        raise BenchError(f"program sources not found under {SRC}")
    workload = WORKLOADS[args.workload]
    reference = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    code_id, src_lines = code_identity()
    tag = f"{workload.name}-s{args.seed}"
    run_dir = OUT / "runs" / f"{tag}-t{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (OUT / "trace").mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + RUN_DEADLINE_S

    # An untraced run repeats iterations until the measured run_experiment time
    # reaches --seconds; a traced run makes one untraced iteration, then one
    # traced iteration, and reports the difference as the tracing overhead.
    untraced, traced, out_dirs = [], [], []
    while True:
        tracing = bool(args.trace) and bool(untraced)
        iter_dir = run_dir / f"iter{len(out_dirs)}"
        dirs = write_configs(workload, args.seed, iter_dir)
        job = {"configs": [str(iter_dir / f"{j}.cfg") for j in workload.jobs]}
        if tracing:
            job["spans"] = str(OUT / "trace" / f"{tag}.spans.csv")
        result = spawn(job, deadline, importtime=tracing)
        result["digests"] = relative_digests(result.pop("files"), iter_dir)
        (traced if tracing else untraced).append(result)
        out_dirs.append(dirs)
        if traced or (not args.trace and sum(it["wall_s"] for it in untraced) >= args.seconds):
            break

    setup_samples = [it["setup_s"] for it in untraced]
    setup_job = {"configs": job["configs"], "setup_only": True}
    while not args.trace and len(setup_samples) < MIN_SETUP_SAMPLES:
        setup_samples.append(spawn(setup_job, deadline)["setup_s"])

    rows_by_job = check_outputs(workload, args.seed, out_dirs[0], reference)
    bad_files = check_determinism(tag, code_id, [it["digests"] for it in untraced + traced])
    for name in bad_files:
        job_name = name.split("/")[0]
        for row in rows_by_job.get(job_name, []):
            row.fail(f"{name}: bytes differ between runs of the same code and seed")
    shutil.rmtree(run_dir, ignore_errors=True)

    rows = [row for job_rows in rows_by_job.values() for row in job_rows]
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "iterations": len(untraced),
        "traced_iterations": len(traced),
        "setup_samples": setup_samples,
        "untraced": [{k: it[k] for k in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")} for it in untraced],
        "ops": len(rows),
        "ops_failed": sum(row.failed for row in rows),
        "failing_rows": {row.label: [f"[{kind}] {msg}" for kind, msg in row.failures]
                         for row in rows if row.failed},
        "correct": not any(row.incorrect for row in rows),
        "provenance": provenance(untraced[0]["versions"], code_id, src_lines),
    }
    if args.trace:
        (it,) = traced
        report["metrics"] = per_layer_metrics(it["trace"], workload.ops, it["import_s"],
                                              it["wall_s"], untraced[0]["wall_s"])
        report["spans"] = it["trace"]["spans"]
    else:
        report["metrics"] = end_to_end_metrics(untraced, setup_samples)
    report["spread"] = {
        "setup_s": quartiles(setup_samples),
        **{key: quartiles([it[key] for it in untraced]) for key in ("wall_s", "cpu_s", "peak_rss_mb")},
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}-t{args.trace}.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    return report


def print_report(report: dict) -> None:
    units = END_TO_END if not report["trace"] else per_layer_units()
    print(f"workload {report['workload']}  seed {report['seed']}  trace {report['trace']}  "
          f"iterations {report['iterations']} untraced + {report['traced_iterations']} traced  "
          f"setup samples {len(report['setup_samples'])}")
    for key, (q1, med, q3) in report["spread"].items():
        n = len(report["setup_samples"]) if key == "setup_s" else report["iterations"]
        print(f"  {key:<13} {med:12.6g} {END_TO_END[key]:<5} median of {n}, quartiles {q1:.6g} .. {q3:.6g}")
    frac = report["ops_failed"] / report["ops"]
    print(f"  {'ops':<13} {report['ops']:12d} count")
    print(f"  {'ops_failed_frac':<13} {frac:12.6g} ratio ({report['ops_failed']} of {report['ops']})")
    for label, failures in report["failing_rows"].items():
        for failure in failures:
            print(f"    failed {label}: {failure}")
    if report["trace"]:
        for name, value in report["metrics"].items():
            print(f"  {name:<44} {value:14.6g} {units[name]}")
    prov = report["provenance"]
    print("  provenance " + json.dumps(prov, sort_keys=True))


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        report = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print_report(report)
    units = END_TO_END if not args.trace else per_layer_units()
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["ops"],
        "failed": report["ops_failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in report["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
