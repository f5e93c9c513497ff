"""Assemble BENCH_<label>.json from perfbench's untraced results, compare two
checkouts' results pair by pair, or time every CLI experiment and the Tier-1
suite into the same files.

    python3 tools/bench_file.py LABEL [CHECKOUT]
    python3 tools/bench_file.py compare PARENT_CHECKOUT
    python3 tools/bench_file.py cli RUNS LABEL=CHECKOUT [LABEL=CHECKOUT ...]

Reads CHECKOUT/.bench_out/results/<workload>-s<seed>-t0.json (CHECKOUT is the
checkout perfbench ran in, by default this one) and writes one entry per
workload into BENCH_<label>.json at the root of this repository, keeping the
file's other keys. Each entry holds the median and
quartiles (inclusive method) over runs, one run per seed, of each end-to-end
metric; failed/attempted output rows; and the first run's provenance.

``compare`` reads the results of PARENT_CHECKOUT and of this checkout. It prints
each side's ``src/`` line count (``provenance.src_lines``) once, then, for each
workload and end-to-end metric, both sides' median and q1-q3, and how
many of the pairs (runs of one seed on both sides) the change won, ties
counting for neither side. ``gain`` marks a metric where the change won at
least nine tenths of the pairs and the medians differ by more than the
parent's q3 - q1. ``worse`` marks one whose median is worse than the parent's
by more than that metric's relative ``bound`` in BENCHMARK.json.

``cli`` runs ``python -m aoiharvest.cli run`` on an empty config for each
experiment that ``list-experiments`` names, RUNS times per checkout in fresh
processes, the checkouts taking turns and swapping order from one run to the
next. It records the checkout's git SHA, the median and quartiles of each
process's wall time and of its own peak RSS (``os.wait4``; RUSAGE_CHILDREN
would be the maximum over all children so far), and the SHA-256 of each file
the first run wrote, and prints on stderr each file whose SHA-256 differs
from the first checkout's. Then it runs the Tier-1 suite once per checkout and
records its wall time and the counts of its summary line. Both go under the
keys "cli" and "tier1" of BENCH_<label>.json, whose other keys stay as they
are.
"""

import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
METRICS = ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]


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
    rules = {m["name"]: (1.0 if m["better"] == "lower" else -1.0, m["bound"]) for m in spec["end_to_end"]}
    old, new = runs(parent), runs(ROOT)
    lines = [next(iter(side.values()))[0]["provenance"]["src_lines"] for side in (old, new)]
    print(f"{'src_lines':27} parent {lines[0]}  change {lines[1]}")
    for workload in sorted(old.keys() & new.keys()):
        by_seed = [{r["seed"]: r["metrics"] for r in side[workload]} for side in (old, new)]
        seeds = sorted(by_seed[0].keys() & by_seed[1].keys())
        for key in METRICS:
            (p1, pm, p3), (c1, cm, c3) = (quartiles([side[s][key] for s in seeds]) for side in by_seed)
            sign, bound = rules[key]
            won = sum(sign * (by_seed[1][s][key] - by_seed[0][s][key]) < 0.0 for s in seeds)
            gain = won >= 0.9 * len(seeds) and sign * (pm - cm) > p3 - p1
            worse = sign * (cm - pm) > bound * abs(pm)
            print(f"{workload:14} {key:12} parent {pm:.4g} ({p1:.4g}-{p3:.4g})  "
                  f"change {cm:.4g} ({c1:.4g}-{c3:.4g})  won {won}/{len(seeds)}"
                  f"{'  gain' if gain else ''}{'  worse' if worse else ''}")


def _timed(args: list[str], checkout: Path, check: bool = True, **kwargs) -> tuple[float, float, str]:
    """(wall s, the process's own peak RSS in MB, stdout) of one child run in CHECKOUT."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, *args], cwd=checkout, env=env, stdout=subprocess.PIPE, text=True,
                          **kwargs) as proc:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    if check and proc.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(args)} exited {proc.returncode}")
    return wall, usage.ru_maxrss / 1024.0, out


def cli(runs: int, sides: dict[str, Path]) -> dict[str, dict]:
    """The "cli" and "tier1" entries of each side's BENCH file."""
    times = {label: {} for label in sides}
    outputs = {label: {} for label in sides}
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "empty.toml"
        config.write_text("", encoding="utf-8")
        for i in range(runs):
            for label, checkout in (list(sides.items())[::-1] if i % 2 else sides.items()):
                for name in _timed(["-m", "aoiharvest.cli", "list-experiments"], checkout)[2].split():
                    out_dir = Path(tmp) / f"{label}-{i}"
                    wall, rss, _ = _timed(["-m", "aoiharvest.cli", "run", str(config), "--experiment", name,
                                           "--out", str(out_dir)], checkout, stderr=subprocess.DEVNULL)
                    times[label].setdefault(name, []).append((wall, rss))
                if i == 0:
                    outputs[label] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                                      for p in sorted(out_dir.iterdir())}
    first, *others = sides
    for label in others:
        for name in sorted(outputs[first].keys() | outputs[label].keys()):
            if outputs[first].get(name) != outputs[label].get(name):
                print(f"{name}: SHA-256 differs between {first} and {label}", file=sys.stderr)
    out = {}
    for label, checkout in sides.items():
        entry = {}
        for name, pairs in times[label].items():
            entry[name] = {key: dict(zip(("q1", "median", "q3"), quartiles([p[k] for p in pairs])))
                           for k, key in enumerate(("wall_s", "peak_rss_mb"))}
        wall, _, summary = _timed(TIER1, checkout, check=False)
        counts = {word: int(n) for n, word in re.findall(r"(\d+) (passed|failed|errors?|skipped|xfailed|xpassed)",
                                                          summary.strip().splitlines()[-1])}
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True, text=True).stdout
        out[label] = {"cli": {"runs": runs, "git_sha": sha.strip() or None, **entry,
                              "outputs_sha256": outputs[label]},
                      "tier1": {"wall_s": wall, **counts}}
    return out


def write(label: str, entries: dict) -> None:
    """Update BENCH_<label>.json at the root of this repository with ``entries``."""
    path = ROOT / f"BENCH_{label}.json"
    data = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    path.write_text(json.dumps({**data, **entries}, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1] == "compare":
        compare(Path(sys.argv[2]))
    elif sys.argv[1] == "cli":
        sides = dict(arg.split("=", 1) for arg in sys.argv[3:])
        for label, entries in cli(int(sys.argv[2]), {k: Path(v).resolve() for k, v in sides.items()}).items():
            write(label, entries)
    else:
        label, checkout = sys.argv[1], Path(sys.argv[2] if len(sys.argv) > 2 else ROOT)
        write(label, bench(checkout))
