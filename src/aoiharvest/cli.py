"""Command line entry point: run named experiments from a config file.

    aoiharvest run <config> [--experiment NAME] [--out DIR] [--seed N] [--trials N] [--plot]
    aoiharvest validate <config>
    aoiharvest list-experiments

Exit codes: 0 success, 1 config/runtime error, 2 unknown experiment name or a
malformed command line (including --seed or --trials out of range).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .config import _HARVESTER, _NETWORK, _NON_NEGATIVE, _QUEUE, _TRIALS, EXPERIMENT_NAMES, ConfigError, parse_config


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="aoiharvest", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment and write CSV outputs")
    run.add_argument("config", help="path to the config file")
    run.add_argument("--experiment", help="override the experiment name")
    run.add_argument("--out", help="override the output directory")
    run.add_argument("--seed", type=int, help="override the seed (>= 0)")
    run.add_argument("--trials", type=int, help="override the Monte Carlo trial count (>= 1)")
    run.add_argument("--plot", action="store_true", help="also write an SVG line chart")

    val = sub.add_parser("validate", help="parse a config file and report the resolved settings")
    val.add_argument("config", help="path to the config file")

    sub.add_parser("list-experiments", help="print the valid experiment names")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    for option, (ok, message) in (("seed", _NON_NEGATIVE), ("trials", _TRIALS)):
        value = getattr(args, option, None)  # the config file's checks; only `run` has these
        if value is not None and not ok(value):
            parser.error(f"argument --{option}: {message.format(value)}")

    if args.command == "list-experiments":
        for name in EXPERIMENT_NAMES:
            print(name)
        return 0

    try:
        cfg, spec = parse_config(args.config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.command == "validate":  # the settings as config-file lines, p_t in W
        print(f"config ok: {args.config}")
        axis = {} if spec.sweep is None else {f"sweep_{k}": v for k, v in dataclasses.asdict(spec.sweep).items()}
        sections = {
            "network": {key: getattr(cfg, field) for key, (field, *_) in _NETWORK.items()},
            "harvester": {key: getattr(cfg.harvester, field) for key, (field, *_) in _HARVESTER.items()},
            "experiment": {"name": spec.name, "trials": spec.trials, "seed": spec.seed,
                           "output_dir": spec.output_dir, **axis},
            "queue": {key: getattr(spec.queue, field) for key, (field, *_) in _QUEUE.items()},
        }
        for section, entries in sections.items():
            print(f"[{section}]")
            for key, value in entries.items():
                if value not in (None, ""):  # an unset queue mu or p_a, the unitless xi axis
                    print(f"{key} = {value}{' W' if key == 'p_t' else ''}")
        return 0

    overrides = {}
    if args.experiment is not None:
        overrides["name"] = args.experiment
        if spec.sweep is not None and args.experiment != spec.name:
            overrides["sweep"] = None  # a file sweep axis does not carry across experiments
    if args.out is not None:
        overrides["output_dir"] = args.out
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.trials is not None:
        overrides["trials"] = args.trials
    if overrides:
        spec = dataclasses.replace(spec, **overrides)

    # Imported here, not at the top: it loads NumPy and SciPy, which parsing does not need.
    from .experiments import UnknownExperimentError, run_experiment

    try:
        paths = run_experiment(cfg, spec, plot=args.plot)
    except UnknownExperimentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
