"""Plain-text configuration files for the batch tool.

Format: INI-style sections of ``key = value`` lines, ``#`` comments. An empty
file resolves to the reference defaults. Unknown sections or keys are
rejected with the offending line number. ``p_t`` accepts a unit suffix
("10 dB" or "10 W"); everything else is SI.

Every key is optional. The tables ``_NETWORK``, ``_HARVESTER`` and ``_QUEUE``
list the keys of their sections; ``parse_config`` lists those of [experiment].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

from .aoi import DISCIPLINES
from .model import HarvesterModel, InvalidConfigError, NetworkConfig, db_to_watt

__all__ = ["ConfigError", "SweepAxis", "QueueSettings", "ExperimentSpec",
           "parse_config", "EXPERIMENT_NAMES", "SWEEPS"]


class ConfigError(ValueError):
    def __init__(self, message: str, path=None, line: int | None = None, key: str | None = None):
        loc = f"{path}:{line}" if line is not None else str(path)
        prefix = f"{loc}: " if path is not None else ""
        keypart = f"key '{key}': " if key else ""
        super().__init__(f"{prefix}{keypart}{message}")


@dataclass(frozen=True)
class SweepAxis:
    start: float
    stop: float
    step: float
    unit: str = ""

    def _count(self) -> int:
        if self.step <= 0:
            raise ConfigError("sweep step must be > 0")
        last = (self.stop - self.start) / self.step + 1e-9  # may be inf
        if last >= _MAX_AXIS_POINTS:
            raise ConfigError(f"the axis would have more than {_MAX_AXIS_POINTS} points")
        n = int(math.floor(last)) + 1
        if n < 1:
            raise ConfigError("sweep axis is empty")
        return n

    def values(self) -> list[float]:
        return [self.start + i * self.step for i in range(self._count())]


# Per experiment: the NetworkConfig field its axis sets and the default axis;
# queue-path has no axis. The prefix before the first "-" names what each
# sweep point computes (jsp, paoi or xistar).
SWEEPS = {
    "jsp-vs-power": ("p_t", SweepAxis(0.0, 20.0, 2.0, "dB")),
    "jsp-vs-radius": ("radius", SweepAxis(20.0, 200.0, 20.0, "m")),
    "jsp-vs-xi": ("xi", SweepAxis(0.05, 0.95, 0.05, "")),
    "paoi-vs-xi": ("xi", SweepAxis(0.05, 0.95, 0.05, "")),
    "xistar-vs-power": ("p_t", SweepAxis(5.0, 20.0, 5.0, "dB")),
    "xistar-vs-radius": ("radius", SweepAxis(50.0, 200.0, 50.0, "m")),
    "queue-path": None,
}
EXPERIMENT_NAMES = tuple(SWEEPS)

# Units a sweep axis may give, per field (matched without regard to case).
_AXIS_UNITS = {"p_t": ("dB", "W"), "radius": ("m",), "xi": ("",)}
# Each axis point costs at least one bound integral; every default axis has
# at most 19 points.
_MAX_AXIS_POINTS = 10_000


def _axis_conversion(field: str, unit: str):
    """(column label, axis value -> field value) of a sweep axis over ``field``:
    a dB axis is labelled ``<field>_db``, and its p_t values become watts."""
    db = unit.lower() == "db"
    return (f"{field}_db" if db else field), (db_to_watt if db and field == "p_t" else float)


@dataclass(frozen=True)
class QueueSettings:
    mu: float | None = None       # None: derive from the analytic JSP lower bound
    p_a: float | None = None      # None: take the network p_a
    n_slots: int = 1000
    discipline: str = "non_preemptive"


@dataclass(frozen=True)
class ExperimentSpec:
    name: str = EXPERIMENT_NAMES[0]
    trials: int = 10_000
    seed: int = 1
    output_dir: Path = Path("results")
    sweep: SweepAxis | None = None
    queue: QueueSettings = field(default_factory=QueueSettings)

    def resolved_sweep(self) -> SweepAxis | None:
        if self.sweep is not None:
            return self.sweep
        sweep = SWEEPS[self.name]
        return None if sweep is None else sweep[1]


def _parse_lines(text: str, path) -> dict[str, dict[str, tuple[str, int]]]:
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", path, lineno)
        if current is None:
            raise ConfigError("key outside of any [section]", path, lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.lower()
        if not key:
            raise ConfigError("empty key", path, lineno)
        if key in sections[current]:
            raise ConfigError("duplicate key", path, lineno, key)
        sections[current][key] = (value, lineno)
    return sections


def _power(text: str) -> float:
    """A power in W: a number, bare or with a 'W' or 'dB' suffix."""
    match text.lower().split():
        case [number] | [number, "w"]:
            return float(number)
        case [number, "db"]:
            return db_to_watt(float(number))
    raise ValueError(text)


_PARSE_ERRORS = {float: "not a number", int: "not an integer", _power: "expected '<number> [dB|W]'"}
_AT_LEAST_ONE = (lambda v: v >= 1, "must be >= 1")  # a trial or slot count
_NON_NEGATIVE = (lambda v: v >= 0, "must be >= 0")
_PROBABILITY = (lambda v: 0 < v <= 1, "must be in (0, 1]")
_FINITE = (math.isfinite, "must be finite")

# Per section: config key -> (dataclass field, parser[, check as in _take]).
# A table builds its dataclass's keyword arguments. The [network] and
# [harvester] tables also map a field an InvalidConfigError names back to its
# key, and write the lines of `aoiharvest validate`.
_NETWORK = {
    "lambda": ("density", float), "radius": ("radius", float), "alpha": ("alpha", float),
    "p_t": ("p_t", _power), "eta": ("eta", float), "xi": ("xi", float), "tau": ("tau", float),
    "sigma": ("sigma_bits", float), "bandwidth": ("bandwidth", float), "e_th": ("e_th", float),
    "p_a": ("p_a", float),
}
_HARVESTER = {"model": ("kind", str.lower), "pr_min": ("pr_min", float), "pr_max": ("pr_max", float)}
_QUEUE = {
    "mu": ("mu", float, _PROBABILITY), "p_a": ("p_a", float, _PROBABILITY),
    "n_slots": ("n_slots", int, _AT_LEAST_ONE),
    "discipline": ("discipline", str,
                   (DISCIPLINES.__contains__, f"must be {' or '.join(DISCIPLINES)}, got {{!r}}")),
}


def _take(entries, key, path, default=None, parse=str, check=None):
    """Pop and parse ``key``, or return ``default`` when it is absent. ``check``
    is (ok, message): a value with ``not ok(value)`` is rejected with its line,
    and ``message`` may format the value with ``{!r}``."""
    if key not in entries:
        return default
    text, lineno = entries.pop(key)
    try:
        value = parse(text)
    except ValueError:
        raise ConfigError(f"{_PARSE_ERRORS[parse]}: {text!r}", path, lineno, key) from None
    if check is not None and not check[0](value):
        raise ConfigError(check[1].format(value), path, lineno, key)
    return value


def _reject_unknown(entries, section, path):
    if entries:
        key, (_, lineno) = next(iter(entries.items()))
        raise ConfigError(f"unknown key in [{section}]", path, lineno, key)


def _take_section(sections, section, table, path) -> dict:
    """Field keyword arguments of the keys [section] sets; unset fields keep their default."""
    entries = sections.get(section, {})
    kwargs = {field: _take(entries, key, path, None, *how)
              for key, (field, *how) in table.items() if key in entries}
    _reject_unknown(entries, section, path)
    return kwargs


def parse_config(path) -> tuple[NetworkConfig, ExperimentSpec]:
    """Read a config file; missing keys fall back to the reference defaults."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", path) from exc
    sections = _parse_lines(text, path)
    for name in sections:
        if name not in ("network", "harvester", "experiment", "queue"):
            raise ConfigError(f"unknown section [{name}]", path)

    key_lines = {k: ln for s in ("network", "harvester") for k, (_, ln) in sections.get(s, {}).items()}
    network = _take_section(sections, "network", _NETWORK, path)
    harvester = _take_section(sections, "harvester", _HARVESTER, path)
    try:
        cfg = NetworkConfig(harvester=HarvesterModel(**harvester), **network)
    except InvalidConfigError as exc:
        # The message starts with a field name; recover its key and line.
        key = {field: k for k, (field, *_) in (_NETWORK | _HARVESTER).items()}.get(str(exc).split()[0])
        # A limit between two keys (the mean count lambda * pi * R^2, or
        # pr_min < pr_max) is reported on the one the file sets.
        other = {"lambda": "radius", "pr_min": "pr_max"}.get(key)
        if key not in key_lines and other in key_lines:
            key = other
        raise ConfigError(str(exc), path, key_lines.get(key), key) from exc

    exp = sections.get("experiment", {})
    exp_lines = {k: ln for k, (_, ln) in exp.items()}
    name = _take(exp, "name", path, ExperimentSpec.name, check=(
        EXPERIMENT_NAMES.__contains__, f"unknown experiment {{!r}}; valid: {', '.join(EXPERIMENT_NAMES)}"))
    trials = _take(exp, "trials", path, ExperimentSpec.trials, int, _AT_LEAST_ONE)
    seed = _take(exp, "seed", path, ExperimentSpec.seed, int, _NON_NEGATIVE)
    output_dir = Path(_take(exp, "output_dir", path, ExperimentSpec.output_dir))
    start = _take(exp, "sweep_start", path, None, float, _FINITE)
    stop = _take(exp, "sweep_stop", path, None, float, (  # an empty axis is an error too
        lambda v: math.isfinite(v) and (start is None or v >= start),
        f"must be finite and >= sweep_start {start!r}"))
    step = _take(exp, "sweep_step", path, None, float, (lambda v: 0 < v < math.inf, "must be finite and > 0"))
    unit = _take(exp, "sweep_unit", path)
    _reject_unknown(exp, "experiment", path)
    sweep = None
    if any(v is not None for v in (start, stop, step, unit)):
        if None in (start, stop, step):
            raise ConfigError("give sweep_start, sweep_stop and sweep_step together "
                              "(sweep_unit needs them too)", path)
        if SWEEPS[name] is None:
            raise ConfigError(f"{name} has no sweep axis", path, exp_lines["sweep_start"])
        axis_field, default = SWEEPS[name]
        sweep = SweepAxis(start, stop, step, default.unit if unit is None else unit)
        try:
            values = sweep.values()
        except ConfigError as exc:  # too many points: the start, stop and step checks leave only that
            raise ConfigError(str(exc), path, exp_lines["sweep_step"], "sweep_step") from None
        units = _AXIS_UNITS[axis_field]
        if unit is not None and unit.lower() not in (u.lower() for u in units):
            raise ConfigError(f"must be {' or '.join(map(repr, units))} on the {axis_field} axis of "
                              f"{name}, got {unit!r}", path, exp_lines["sweep_unit"], "sweep_unit")
        # Each field's valid range is an interval and dB -> W is monotone, so
        # the two ends of the axis decide whether every point is valid.
        _, to_field = _axis_conversion(axis_field, sweep.unit)
        for key, x in zip(("sweep_start", "sweep_stop"), (start, values[-1])):
            try:
                replace(cfg, **{axis_field: to_field(x)})
            except InvalidConfigError as exc:
                value = f"{x!r} {sweep.unit}".rstrip()
                raise ConfigError(f"{name} would set {axis_field} = {value}: {exc}",
                                  path, exp_lines[key], key) from exc

    spec = ExperimentSpec(name=name, trials=trials, seed=seed, output_dir=output_dir, sweep=sweep,
                          queue=QueueSettings(**_take_section(sections, "queue", _QUEUE, path)))
    return cfg, spec
