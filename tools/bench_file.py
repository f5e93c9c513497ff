"""Assemble BENCH_<label>.json from perfbench's untraced results.

    python3 tools/bench_file.py LABEL [CHECKOUT]

Reads CHECKOUT/.bench_out/results/<workload>-s<seed>-t0.json (CHECKOUT is the
checkout perfbench ran in, by default this one) and writes BENCH_<label>.json
at the root of this repository. Per workload it holds the median and
quartiles (inclusive method) over runs, one run per seed, of each end-to-end
metric; failed/attempted output rows; and the first run's provenance.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
METRICS = ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")


def bench(checkout: Path) -> dict:
    runs: dict[str, list[dict]] = {}
    for path in sorted((checkout / ".bench_out" / "results").glob("*-t0.json")):
        report = json.loads(path.read_text(encoding="utf-8"))
        runs.setdefault(report["workload"], []).append(report)
    out = {}
    for workload, reports in sorted(runs.items()):
        if len({r["provenance"]["src_sha256"] for r in reports}) != 1:
            raise SystemExit(f"{workload}: the runs measured different sources")
        entry = {"seeds": sorted(r["seed"] for r in reports), "correct": all(r["correct"] for r in reports),
                 "failed/attempted": f"{sum(r['ops_failed'] for r in reports)}/{sum(r['ops'] for r in reports)}"}
        for key in METRICS:
            values = [r["metrics"][key] for r in reports]
            q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                              if len(values) > 1 else values * 3)
            entry[key] = {"median": median, "q1": q1, "q3": q3}
        out[workload] = {**entry, "provenance": reports[0]["provenance"]}
    return out


if __name__ == "__main__":
    label, checkout = sys.argv[1], Path(sys.argv[2] if len(sys.argv) > 2 else ROOT)
    (ROOT / f"BENCH_{label}.json").write_text(json.dumps(bench(checkout), indent=1) + "\n", encoding="utf-8")
