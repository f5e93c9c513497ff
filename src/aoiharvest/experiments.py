"""Named batch experiments: parameter sweeps written as CSV plus a metadata
sidecar (resolved config, seed, code version). Outputs are byte-deterministic
for a fixed config and seed; no wall-clock state enters any file.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .aoi import QueueParams, paoi_np_closed_form, paoi_p_closed_form, simulate_queue
from .config import EXPERIMENT_NAMES, ExperimentSpec, SweepAxis
from .jsp import jsp_lower_bound, jsp_monte_carlo, jsp_upper_bound, select_regime
from .model import HarvesterModel, NetworkConfig, db_to_watt
from .optimizer import XiObjective, optimize_xi
from .quadrature import QuadratureSpec

__all__ = ["SweepResult", "run_experiment", "write_csv", "write_svg", "UnknownExperimentError"]

THREADS_ENV = "AOI_EH_THREADS"


class UnknownExperimentError(ValueError):
    def __init__(self, name: str):
        super().__init__(f"unknown experiment {name!r}; valid names: {', '.join(EXPERIMENT_NAMES)}")
        self.name = name


@dataclass(frozen=True)
class SweepResult:
    experiment: str
    axis_name: str
    axis: list[float] | np.ndarray
    series: dict[str, list[float] | np.ndarray]
    metadata: dict


_CSV_CHUNK_ROWS = 65_536


def write_csv(result: SweepResult, path: Path) -> None:
    """CSV as ``csv.writer`` would write it (repr of every float, ``\\r\\n`` line
    ends), formatted a bounded chunk of rows at a time so that long columns
    never become one Python string per cell all at once."""
    columns = [np.asarray(result.axis), *(np.asarray(v) for v in result.series.values())]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow([result.axis_name, *result.series.keys()])
        for lo in range(0, len(columns[0]), _CSV_CHUNK_ROWS):
            cells = [map(repr, c[lo:lo + _CSV_CHUNK_ROWS].tolist()) for c in columns]
            fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")
    meta_path = path.with_suffix(path.suffix + ".meta.json")
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(result.metadata, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _thread_cap() -> int | None:
    cap = os.environ.get(THREADS_ENV)
    if cap is None:
        return None
    try:
        cap_n = int(cap)
    except ValueError:
        raise ValueError(f"{THREADS_ENV} must be an integer, got {cap!r}") from None
    if cap_n < 1:
        raise ValueError(f"{THREADS_ENV} must be >= 1")
    return cap_n


def _worker_count(n_points: int) -> int:
    cap = _thread_cap()
    if cap is None:
        return 1
    return min(cap, max(1, n_points))


_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def write_svg(result: SweepResult, path: Path, width: int = 640, height: int = 420) -> None:
    """Optional post-step: a plain line chart of every finite series."""
    pad = 56
    xs = np.asarray(result.axis).tolist()
    series = {name: np.asarray(vals).tolist() for name, vals in result.series.items()}
    finite = [v for vals in series.values() for v in vals if math.isfinite(v)]
    if not xs or not finite:
        raise ValueError("nothing to plot")
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(finite), max(finite)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def px(x):
        return pad + (x - x_lo) / (x_hi - x_lo) * (width - 2 * pad)

    def py(y):
        return height - pad - (y - y_lo) / (y_hi - y_lo) * (height - 2 * pad)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
        f'<text x="{width / 2:.0f}" y="{height - 12}" text-anchor="middle" font-size="13">{result.axis_name}</text>',
        f'<text x="{width / 2:.0f}" y="18" text-anchor="middle" font-size="13">{result.experiment}</text>',
        f'<text x="{pad}" y="{height - pad + 16}" font-size="11">{x_lo:g}</text>',
        f'<text x="{width - pad}" y="{height - pad + 16}" text-anchor="end" font-size="11">{x_hi:g}</text>',
        f'<text x="{pad - 4}" y="{height - pad}" text-anchor="end" font-size="11">{y_lo:g}</text>',
        f'<text x="{pad - 4}" y="{pad + 4}" text-anchor="end" font-size="11">{y_hi:g}</text>',
    ]
    for i, (name, vals) in enumerate(series.items()):
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        pts = " ".join(f"{px(x):.1f},{py(v):.1f}" for x, v in zip(xs, vals) if math.isfinite(v))
        if pts:
            parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{width - pad + 4}" y="{pad + 14 * i + 10}" font-size="11" '
                     f'fill="{color}">{name}</text>')
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n", encoding="utf-8")


def _map_points(fn, points):
    """Evaluate sweep points, optionally on a thread pool; order preserved."""
    workers = _worker_count(len(points))
    if workers == 1:
        return [fn(p) for p in points]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, points))


def _nl_config(cfg: NetworkConfig) -> NetworkConfig:
    if cfg.harvester.kind == "nonlinear":
        return cfg
    return replace(cfg, harvester=HarvesterModel(kind="nonlinear",
                                                 pr_min=cfg.harvester.pr_min,
                                                 pr_max=cfg.harvester.pr_max))


def _jsp_point(cfg: NetworkConfig, trials: int, seed: int, spec: QuadratureSpec) -> dict[str, tuple]:
    lin = replace(cfg, harvester=HarvesterModel(kind="linear"))
    nl = _nl_config(cfg)
    out = {
        "mc": jsp_monte_carlo(lin, trials=trials, seed=seed),
        "lower": jsp_lower_bound(lin, regime="linear", spec=spec),
        "upper": jsp_upper_bound(lin, regime="linear", spec=spec),
    }
    nl_regime = select_regime(nl)
    out["mc_nl"] = jsp_monte_carlo(nl, trials=trials, seed=seed)
    out["lower_nl"] = jsp_lower_bound(nl, regime=nl_regime, spec=spec)
    out["upper_nl"] = jsp_upper_bound(nl, regime=nl_regime, spec=spec)
    return {c: (est.value, est.converged) for c, est in out.items()}


_JSP_COLUMNS = ("mc", "lower", "upper", "mc_nl", "lower_nl", "upper_nl")


def _sweep_result(cfg: NetworkConfig, spec: ExperimentSpec, axis: SweepAxis, axis_name: str,
                  rows: list[dict[str, tuple]], columns) -> SweepResult:
    """Columns from per-point {column: (value, converged)} rows; each value
    whose quadrature did not converge is named on stderr."""
    values = axis.values()
    for x, row in zip(values, rows):
        for c in columns:
            if not row[c][1]:
                print(f"warning: {spec.name}: {axis_name} = {x!r}: {c}: quadrature did not converge",
                      file=sys.stderr)
    return SweepResult(spec.name, axis_name, values, {c: [row[c][0] for row in rows] for c in columns},
                       _metadata(cfg, spec, axis))


def _paoi_value(closed_form, mu, p_a: float) -> tuple[float, bool]:
    return (closed_form(mu.value, p_a) if mu.value > 0.0 else math.inf), mu.converged


def _run_jsp_sweep(cfg: NetworkConfig, spec: ExperimentSpec, axis: SweepAxis, vary) -> SweepResult:
    qspec = QuadratureSpec()

    def point(x: float) -> dict[str, tuple]:
        return _jsp_point(vary(cfg, x), spec.trials, spec.seed, qspec)

    rows = _map_points(point, axis.values())
    return _sweep_result(cfg, spec, axis, _axis_label(spec.name, axis), rows, _JSP_COLUMNS)


def _axis_label(name: str, axis: SweepAxis) -> str:
    base = {"jsp-vs-power": "p_t", "xistar-vs-power": "p_t",
            "jsp-vs-radius": "radius", "xistar-vs-radius": "radius",
            "jsp-vs-xi": "xi", "paoi-vs-xi": "xi", "queue-path": "slot"}[name]
    return f"{base}_db" if axis is not None and axis.unit.lower() == "db" else base


def _vary_power(cfg: NetworkConfig, x: float, unit: str) -> NetworkConfig:
    return replace(cfg, p_t=db_to_watt(x) if unit.lower() == "db" else x)


def _metadata(cfg: NetworkConfig, spec: ExperimentSpec, axis: SweepAxis | None) -> dict:
    meta = {
        "experiment": spec.name,
        "version": __version__,
        "seed": spec.seed,
        "trials": spec.trials,
        "network": dataclasses.asdict(cfg),
        "queue": dataclasses.asdict(spec.queue),
    }
    if axis is not None:
        meta["sweep"] = dataclasses.asdict(axis)
    return meta


def run_experiment(cfg: NetworkConfig, spec: ExperimentSpec, plot: bool = False) -> list[Path]:
    """Run one named experiment; returns the paths written."""
    if spec.name not in EXPERIMENT_NAMES:
        raise UnknownExperimentError(spec.name)
    _thread_cap()  # fail fast on a malformed worker cap
    out_dir = Path(spec.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    axis = spec.resolved_sweep()

    if spec.name == "jsp-vs-power":
        result = _run_jsp_sweep(cfg, spec, axis, lambda c, x: _vary_power(c, x, axis.unit))
    elif spec.name == "jsp-vs-radius":
        result = _run_jsp_sweep(cfg, spec, axis, lambda c, x: replace(c, radius=x))
    elif spec.name == "jsp-vs-xi":
        result = _run_jsp_sweep(cfg, spec, axis, lambda c, x: replace(c, xi=x))
    elif spec.name == "paoi-vs-xi":
        result = _run_paoi_sweep(cfg, spec, axis)
    elif spec.name in ("xistar-vs-power", "xistar-vs-radius"):
        result = _run_xistar_sweep(cfg, spec, axis)
    else:
        result = _run_queue_path(cfg, spec)

    path = out_dir / f"{spec.name}.csv"
    write_csv(result, path)
    written = [path, path.with_suffix(path.suffix + ".meta.json")]
    if plot:
        svg_path = out_dir / f"{spec.name}.svg"
        write_svg(result, svg_path)
        written.append(svg_path)
    return written


def _run_paoi_sweep(cfg: NetworkConfig, spec: ExperimentSpec, axis: SweepAxis) -> SweepResult:
    qspec = QuadratureSpec()
    p_a = spec.queue.p_a if spec.queue.p_a is not None else cfg.p_a
    lin = replace(cfg, harvester=HarvesterModel(kind="linear"))
    nl = _nl_config(cfg)

    def point(x: float) -> dict[str, tuple]:
        mu_lin = jsp_lower_bound(replace(lin, xi=x), regime="linear", spec=qspec)
        nl_x = replace(nl, xi=x)
        mu_nl = jsp_lower_bound(nl_x, regime=select_regime(nl_x), spec=qspec)
        return {
            "np_upper": _paoi_value(paoi_np_closed_form, mu_lin, p_a),
            "p_upper": _paoi_value(paoi_p_closed_form, mu_lin, p_a),
            "np_upper_nl": _paoi_value(paoi_np_closed_form, mu_nl, p_a),
            "p_upper_nl": _paoi_value(paoi_p_closed_form, mu_nl, p_a),
        }

    rows = _map_points(point, axis.values())
    return _sweep_result(cfg, spec, axis, "xi", rows, ("np_upper", "p_upper", "np_upper_nl", "p_upper_nl"))


def _run_xistar_sweep(cfg: NetworkConfig, spec: ExperimentSpec, axis: SweepAxis) -> SweepResult:
    qspec = QuadratureSpec(rel_tol=1e-5, abs_tol=1e-8)
    lin = replace(cfg, harvester=HarvesterModel(kind="linear"))

    def point(x: float) -> dict[str, tuple]:
        if spec.name == "xistar-vs-power":
            base = _vary_power(lin, x, axis.unit)
        else:
            base = replace(lin, radius=x)
        out = {}
        for column, kind in (("xi_star_jsp_lower", "max_jsp_lower"),
                             ("xi_star_paoi_np", "min_paoi_np_upper"),
                             ("xi_star_paoi_p", "min_paoi_p_upper")):
            opt = optimize_xi(XiObjective(kind=kind, cfg=base, spec=qspec), grid_step=0.05)
            out[column] = (opt.xi_star, opt.converged)
        return out

    rows = _map_points(point, axis.values())
    return _sweep_result(cfg, spec, axis, _axis_label(spec.name, axis), rows,
                         ("xi_star_jsp_lower", "xi_star_paoi_np", "xi_star_paoi_p"))


def _run_queue_path(cfg: NetworkConfig, spec: ExperimentSpec) -> SweepResult:
    q = spec.queue
    mu = q.mu
    if mu is None:
        mu = jsp_lower_bound(cfg).value
        if mu <= 0.0:
            raise ValueError("derived per-slot success probability is zero; give [queue] mu explicitly")
    p_a = q.p_a if q.p_a is not None else cfg.p_a
    params = QueueParams(p_a=p_a, mu=mu, discipline=q.discipline, n_slots=q.n_slots, seed=spec.seed)
    trace, _ = simulate_queue(params)
    return SweepResult("queue-path", "slot", np.arange(1.0, q.n_slots + 1),
                       {"aoi": trace.aoi_path.astype(float)},
                       _metadata(cfg, spec, None) | {"mu": mu, "p_a": p_a})
