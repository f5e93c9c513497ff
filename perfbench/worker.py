"""One workload iteration in a fresh interpreter.

    python3 worker.py '<json>'   (started by run.py with PYTHONPATH=<root>/src)

The JSON names the config files to run, in order, and optionally a path for
the span file of a traced iteration. The worker imports ``aoiharvest.cli``,
parses every config (the set-up the benchmark times), then calls
``run_experiment`` once per config and times that interval. It prints one
JSON line: the monotonic clock when set-up ended, wall and CPU seconds of the
run_experiment calls, peak resident memory, the SHA-256 of every file
written, and, for a traced iteration, the span aggregates and counters.
"""

# Only these load before set-up ends; the rest waits until after it.
import json
import sys
import time


def _sha256(path) -> str:
    import hashlib

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def main() -> int:
    job = json.loads(sys.argv[1])
    from aoiharvest import cli

    loaded = [cli.parse_config(path) for path in job["configs"]]
    setup_done = time.monotonic()  # system-wide clock, as read by run.py before the spawn
    out = {"setup_done": setup_done}
    if job.get("setup_only"):
        print(json.dumps(out))
        return 0

    import resource

    import numpy
    import scipy

    from aoiharvest import config, experiments

    tracer = restore = None
    if job.get("spans"):
        from tracing import Tracer, install

        tracer = Tracer()
        t0 = time.perf_counter()
        restore = install(tracer)
        loaded = [config.parse_config(path) for path in job["configs"]]

    wall = cpu = 0.0
    written = []
    for cfg, spec in loaded:
        c0, w0 = time.process_time(), time.perf_counter()
        written += experiments.run_experiment(cfg, spec)
        w1, c1 = time.perf_counter(), time.process_time()
        wall += w1 - w0
        cpu += c1 - c0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    out.update(wall_s=wall, cpu_s=cpu, peak_rss_mb=peak_rss_mb,
               files={str(p): _sha256(p) for p in written},
               versions={"numpy": numpy.__version__, "scipy": scipy.__version__})
    if tracer is not None:
        restore()
        out["trace"] = {
            "aggregate": tracer.aggregate(),
            "counters": dict(tracer.counters),
            "distinct_geometries": len(tracer.geometries),
            "root_s": tracer.root_time("experiments.run_experiment"),
            "spans": len(tracer.spans),
        }
        tracer.write_spans(job["spans"], t0)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
