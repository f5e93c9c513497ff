"""Plain-text configuration files for the batch tool.

Format: INI-style sections of ``key = value`` lines, ``#`` comments. An empty
file resolves to the reference defaults. Unknown sections or keys are
rejected with the offending line number. ``p_t`` accepts a unit suffix
("10 dB" or "10 W"); everything else is SI.

Sections and keys (all optional):

    [network]   lambda radius alpha p_t eta xi tau sigma bandwidth e_th p_a
    [harvester] model pr_min pr_max
    [experiment] name trials seed output_dir sweep_start sweep_stop sweep_step sweep_unit
    [queue]     mu p_a n_slots discipline
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

from .model import HarvesterModel, InvalidConfigError, NetworkConfig, db_to_watt

__all__ = ["ConfigError", "SweepAxis", "QueueSettings", "ExperimentSpec",
           "parse_config", "EXPERIMENT_NAMES", "DEFAULT_SWEEPS"]

EXPERIMENT_NAMES = (
    "jsp-vs-power",
    "jsp-vs-radius",
    "jsp-vs-xi",
    "paoi-vs-xi",
    "xistar-vs-power",
    "xistar-vs-radius",
    "queue-path",
)

# (start, stop, step, unit) per experiment axis.
DEFAULT_SWEEPS = {
    "jsp-vs-power": (0.0, 20.0, 2.0, "dB"),
    "jsp-vs-radius": (20.0, 200.0, 20.0, "m"),
    "jsp-vs-xi": (0.05, 0.95, 0.05, ""),
    "paoi-vs-xi": (0.05, 0.95, 0.05, ""),
    "xistar-vs-power": (5.0, 20.0, 5.0, "dB"),
    "xistar-vs-radius": (50.0, 200.0, 50.0, "m"),
    "queue-path": None,
}


class ConfigError(ValueError):
    def __init__(self, message: str, path=None, line: int | None = None, key: str | None = None):
        loc = f"{path}:{line}" if line is not None else str(path)
        prefix = f"{loc}: " if path is not None else ""
        keypart = f"key '{key}': " if key else ""
        super().__init__(f"{prefix}{keypart}{message}")
        self.line = line
        self.key = key


@dataclass(frozen=True)
class SweepAxis:
    start: float
    stop: float
    step: float
    unit: str = ""

    def values(self) -> list[float]:
        if self.step <= 0:
            raise ConfigError("sweep step must be > 0")
        n = int(math.floor((self.stop - self.start) / self.step + 1e-9)) + 1
        if n < 1:
            raise ConfigError("sweep axis is empty")
        return [self.start + i * self.step for i in range(n)]


@dataclass(frozen=True)
class QueueSettings:
    mu: float | None = None       # None: derive from the analytic JSP lower bound
    p_a: float | None = None      # None: take the network p_a
    n_slots: int = 1000
    discipline: str = "non_preemptive"


@dataclass(frozen=True)
class ExperimentSpec:
    name: str = "jsp-vs-power"
    trials: int = 10_000
    seed: int = 1
    output_dir: Path = Path("results")
    sweep: SweepAxis | None = None
    queue: QueueSettings = field(default_factory=QueueSettings)

    def resolved_sweep(self) -> SweepAxis | None:
        if self.sweep is not None:
            return self.sweep
        default = DEFAULT_SWEEPS[self.name]
        return SweepAxis(*default) if default else None


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


def _take_float(entries, key, path, default=None):
    if key not in entries:
        return default
    value, lineno = entries.pop(key)
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"not a number: {value!r}", path, lineno, key) from None


def _take_int(entries, key, path, default=None):
    if key not in entries:
        return default
    value, lineno = entries.pop(key)
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"not an integer: {value!r}", path, lineno, key) from None


def _take_count(entries, key, path, default):
    """A positive integer: a trial or slot count."""
    lineno = entries[key][1] if key in entries else None
    value = _take_int(entries, key, path, default)
    if value < 1:
        raise ConfigError("must be >= 1", path, lineno, key)
    return value


def _take_str(entries, key, path, default=None):
    if key not in entries:
        return default
    value, _ = entries.pop(key)
    return value


def _take_power(entries, key, path, default):
    """Power value with optional 'dB' or 'W' suffix; bare numbers are watts."""
    if key not in entries:
        return default
    value, lineno = entries.pop(key)
    tokens = value.split()
    try:
        if len(tokens) == 2 and tokens[1].lower() == "db":
            return db_to_watt(float(tokens[0]))
        if len(tokens) == 2 and tokens[1].lower() == "w":
            return float(tokens[0])
        if len(tokens) == 1:
            return float(tokens[0])
    except ValueError:
        pass
    raise ConfigError(f"expected '<number> [dB|W]', got {value!r}", path, lineno, key)


def _reject_unknown(entries, section, path):
    if entries:
        key, (_, lineno) = next(iter(entries.items()))
        raise ConfigError(f"unknown key in [{section}]", path, lineno, key)


def parse_config(path) -> tuple[NetworkConfig, ExperimentSpec]:
    """Read a config file; missing keys fall back to the reference defaults."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", path) from exc
    sections = _parse_lines(text, path)
    known = {"network", "harvester", "experiment", "queue"}
    for name in sections:
        if name not in known:
            raise ConfigError(f"unknown section [{name}]", path)

    net = sections.get("network", {})
    harv_section = sections.get("harvester", {})
    key_lines = {k: ln for k, (_, ln) in list(net.items()) + list(harv_section.items())}
    defaults = NetworkConfig()
    kwargs = dict(
        density=_take_float(net, "lambda", path, defaults.density),
        radius=_take_float(net, "radius", path, defaults.radius),
        alpha=_take_float(net, "alpha", path, defaults.alpha),
        p_t=_take_power(net, "p_t", path, defaults.p_t),
        eta=_take_float(net, "eta", path, defaults.eta),
        xi=_take_float(net, "xi", path, defaults.xi),
        tau=_take_float(net, "tau", path, defaults.tau),
        sigma_bits=_take_float(net, "sigma", path, defaults.sigma_bits),
        bandwidth=_take_float(net, "bandwidth", path, defaults.bandwidth),
        e_th=_take_float(net, "e_th", path, defaults.e_th),
        p_a=_take_float(net, "p_a", path, defaults.p_a),
    )
    _reject_unknown(net, "network", path)

    harv = sections.get("harvester", {})
    model_kind = _take_str(harv, "model", path, "linear").lower()
    pr_min = _take_float(harv, "pr_min", path, HarvesterModel.pr_min)
    pr_max = _take_float(harv, "pr_max", path, HarvesterModel.pr_max)
    _reject_unknown(harv, "harvester", path)
    try:
        harvester = HarvesterModel(kind=model_kind, pr_min=pr_min, pr_max=pr_max)
        cfg = NetworkConfig(harvester=harvester, **kwargs)
    except InvalidConfigError as exc:
        # Field names map onto config keys; recover the source line if present.
        aliases = {"density": "lambda", "sigma_bits": "sigma", "kind": "model"}
        field_name = str(exc).split()[0]
        key = aliases.get(field_name, field_name)
        raise ConfigError(str(exc), path, key_lines.get(key), key) from exc

    exp = sections.get("experiment", {})
    name = _take_str(exp, "name", path, "jsp-vs-power")
    if name not in EXPERIMENT_NAMES:
        raise ConfigError(f"unknown experiment {name!r}; valid: {', '.join(EXPERIMENT_NAMES)}", path, key="name")
    trials = _take_count(exp, "trials", path, 10_000)
    seed = _take_int(exp, "seed", path, 1)
    output_dir = Path(_take_str(exp, "output_dir", path, "results"))
    start = _take_float(exp, "sweep_start", path, None)
    stop = _take_float(exp, "sweep_stop", path, None)
    step = _take_float(exp, "sweep_step", path, None)
    unit = _take_str(exp, "sweep_unit", path, None)
    _reject_unknown(exp, "experiment", path)
    sweep = None
    if any(v is not None for v in (start, stop, step)):
        if None in (start, stop, step):
            raise ConfigError("sweep_start, sweep_stop and sweep_step must be given together", path)
        default = DEFAULT_SWEEPS[name]
        sweep = SweepAxis(start, stop, step, unit if unit is not None else (default[3] if default else ""))

    queue = sections.get("queue", {})
    q_mu = _take_float(queue, "mu", path, None)
    q_pa = _take_float(queue, "p_a", path, None)
    q_slots = _take_count(queue, "n_slots", path, 1000)
    q_disc = _take_str(queue, "discipline", path, "non_preemptive")
    _reject_unknown(queue, "queue", path)
    if q_disc not in ("non_preemptive", "preemptive"):
        raise ConfigError(f"discipline must be non_preemptive or preemptive, got {q_disc!r}", path, key="discipline")

    spec = ExperimentSpec(
        name=name, trials=trials, seed=seed, output_dir=output_dir, sweep=sweep,
        queue=QueueSettings(mu=q_mu, p_a=q_pa, n_slots=q_slots, discipline=q_disc),
    )
    return cfg, spec
