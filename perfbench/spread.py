"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads all --seeds 1-10 [--trace 0]

For every workload and seed this runs perfbench/run.py with the
``run_seconds`` of BENCHMARK.json, echoes its report, and then prints per
end-to-end metric the median, the quartiles (``statistics.quantiles(n=4)``)
and the interquartile spread as a share of the median, beside the metric's
bound. With ``--seeds 1`` it is the one command that prints every metric and
``ops_failed_frac`` for each workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="all")
    parser.add_argument("--seeds", default="1", type=parse_seeds, help="e.g. 1-10 or 3,7")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    names = ([w["name"] for w in spec["workloads"]] if args.workloads == "all"
             else args.workloads.split(","))
    metrics = spec["end_to_end"] if not args.trace else spec["per_layer"]

    results = []
    for name in names:
        values: dict[str, list[float]] = {m["name"]: [] for m in metrics}
        fails, durations = [], []
        for seed in args.seeds:
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            t0 = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            durations.append(time.monotonic() - t0)
            print(proc.stdout + f"run took {durations[-1]:.1f} s", flush=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            fails.append(f"{result['failed']}/{result['attempted']}{'' if result['correct'] else ' INCORRECT'}")
            for m in metrics:
                values[m["name"]].append(result["metrics"][m["name"]]["value"])
        results.append((name, values, fails, durations))

    print(f"\nspread over seeds {args.seeds}")
    for name, values, fails, durations in results:
        for m in metrics:
            vals = values[m["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
            spread = (q3 - q1) / med if med else 0.0
            bound = m.get("bound")
            verdict = "" if bound is None else f"  bound {bound} {'ok' if spread < bound / 3 else 'WIDE'}"
            print(f"{name:<14} {m['name']:<44} median {med:<12.6g} {m['unit']:<6} "
                  f"q1 {q1:<10.6g} q3 {q3:<10.6g} spread {spread:7.4f}{verdict}")
        print(f"{name:<14} failed/attempted per run: {', '.join(fails)}; "
              f"run time mean {statistics.mean(durations):.1f} s, max {max(durations):.1f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
