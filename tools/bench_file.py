"""Assemble BENCH_<label>.json from perfbench's untraced results, or compare two
checkouts' results pair by pair.

    python3 tools/bench_file.py LABEL [CHECKOUT]
    python3 tools/bench_file.py compare PARENT_CHECKOUT

Reads CHECKOUT/.bench_out/results/<workload>-s<seed>-t0.json (CHECKOUT is the
checkout perfbench ran in, by default this one) and writes BENCH_<label>.json
at the root of this repository. Per workload it holds the median and
quartiles (inclusive method) over runs, one run per seed, of each end-to-end
metric; failed/attempted output rows; and the first run's provenance.

``compare`` reads the results of PARENT_CHECKOUT and of this checkout. For each
workload and end-to-end metric it prints both sides' median and q1-q3, and how
many of the pairs (runs of one seed on both sides) the change won, ties
counting for neither side. ``gain`` marks a metric where the change won at
least nine tenths of the pairs and the medians differ by more than the
parent's q3 - q1.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
METRICS = ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")


def runs(checkout: Path) -> dict[str, list[dict]]:
    """Untraced reports per workload, all of one source."""
    out: dict[str, list[dict]] = {}
    for path in sorted((checkout / ".bench_out" / "results").glob("*-t0.json")):
        report = json.loads(path.read_text(encoding="utf-8"))
        out.setdefault(report["workload"], []).append(report)
    for workload, reports in out.items():
        if len({r["provenance"]["src_sha256"] for r in reports}) != 1:
            raise SystemExit(f"{workload}: the runs measured different sources")
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    return tuple(statistics.quantiles(values, n=4, method="inclusive")) if len(values) > 1 else (values[0],) * 3


def bench(checkout: Path) -> dict:
    out = {}
    for workload, reports in sorted(runs(checkout).items()):
        entry = {"seeds": sorted(r["seed"] for r in reports), "correct": all(r["correct"] for r in reports),
                 "failed/attempted": f"{sum(r['ops_failed'] for r in reports)}/{sum(r['ops'] for r in reports)}"}
        for key in METRICS:
            q1, median, q3 = quartiles([r["metrics"][key] for r in reports])
            entry[key] = {"median": median, "q1": q1, "q3": q3}
        out[workload] = {**entry, "provenance": reports[0]["provenance"]}
    return out


def compare(parent: Path) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    lower = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    old, new = runs(parent), runs(ROOT)
    for workload in sorted(old.keys() & new.keys()):
        by_seed = [{r["seed"]: r["metrics"] for r in side[workload]} for side in (old, new)]
        seeds = sorted(by_seed[0].keys() & by_seed[1].keys())
        for key in METRICS:
            (p1, pm, p3), (c1, cm, c3) = (quartiles([side[s][key] for s in seeds]) for side in by_seed)
            sign = 1.0 if lower[key] else -1.0
            won = sum(sign * (by_seed[1][s][key] - by_seed[0][s][key]) < 0.0 for s in seeds)
            gain = won >= 0.9 * len(seeds) and sign * (pm - cm) > p3 - p1
            print(f"{workload:14} {key:12} parent {pm:.4g} ({p1:.4g}-{p3:.4g})  "
                  f"change {cm:.4g} ({c1:.4g}-{c3:.4g})  won {won}/{len(seeds)}{'  gain' if gain else ''}")


if __name__ == "__main__":
    if sys.argv[1] == "compare":
        compare(Path(sys.argv[2]))
    else:
        label, checkout = sys.argv[1], Path(sys.argv[2] if len(sys.argv) > 2 else ROOT)
        (ROOT / f"BENCH_{label}.json").write_text(json.dumps(bench(checkout), indent=1) + "\n", encoding="utf-8")
