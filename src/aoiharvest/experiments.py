"""Named batch experiments: parameter sweeps written as CSV plus a metadata
sidecar (resolved config, seed, code version). Outputs are byte-deterministic
for a fixed config and seed; no wall-clock state enters any file.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .aoi import QueueParams, paoi_np_closed_form, paoi_p_closed_form, simulate_queue
from .config import EXPERIMENT_NAMES, SWEEPS, ExperimentSpec, SweepAxis, _axis_conversion
from .jsp import jsp_lower_bound, jsp_monte_carlo, jsp_upper_bound
from .model import HarvesterModel, NetworkConfig
from .optimizer import XiObjective, optimize_xi
from .quadrature import QuadratureSpec

__all__ = ["SweepResult", "run_experiment", "write_csv", "write_svg", "UnknownExperimentError"]

class UnknownExperimentError(ValueError):
    def __init__(self, name: str):
        super().__init__(f"unknown experiment {name!r}; valid names: {', '.join(EXPERIMENT_NAMES)}")


@dataclass(frozen=True)
class SweepResult:
    experiment: str
    axis_name: str
    axis: list[float] | np.ndarray
    series: dict[str, list[float] | np.ndarray]
    metadata: dict


_CSV_CHUNK_ROWS = 65_536


def _digit_words() -> np.ndarray:
    """Word i < 10^4 is i as four zero-padded ASCII digits, word 10^4 + i the
    same with its leading zeros NUL, word 2 * 10^4 four NULs."""
    v = np.arange(10_000, dtype=np.uint16)[:, None]
    digits = (v // np.array([1000, 100, 10, 1], np.uint16) % 10).astype(np.uint8) + ord("0")
    nul_led = np.where(v < np.array([1000, 100, 10, 0], np.uint16), np.uint8(0), digits)
    return np.concatenate([digits, nul_led, np.zeros((1, 4), np.uint8)]).view(np.uint32).ravel()


_DIGIT_WORDS = _digit_words()


def _cells(col: np.ndarray, end: str) -> tuple[bool, int] | np.ndarray:
    """A float64 chunk whose values are all integers below 1e16 in magnitude
    (``repr`` ``'%d.0'``) gives (any sign bit set, its 4-digit groups); any
    other chunk (NaN, inf, fractions, 1e16 and up, integer dtypes) gives
    ``repr`` of each value followed by ``end`` as rows of NUL-padded words."""
    if col.dtype == np.float64 and np.all((col == np.trunc(col)) & (np.abs(col) < 1e16)):
        return bool(np.signbit(col).any()), -(-len(str(int(np.abs(col).max()))) // 4)
    cells = [repr(v) + end for v in col.tolist()]
    return np.array(cells, f"S{-(-max(map(len, cells)) // 4) * 4}").view(np.uint32).reshape(len(cells), -1)


def _csv_rows(chunk: list[np.ndarray]) -> bytes:
    """CSV rows of equal-length column chunks (cells joined by ``,``, rows ended
    by ``\\r\\n``), filled as 4-byte words into one matrix whose NULs are dropped."""
    ends = [","] * (len(chunk) - 1) + ["\r\n"]
    cells = [_cells(c, end) for c, end in zip(chunk, ends)]
    ats = np.cumsum([0] + [c.shape[1] if isinstance(c, np.ndarray) else sum(c) + 1 for c in cells])
    rows = np.empty((len(chunk[0]), ats[-1]), np.uint32)
    for col, end, c, at, to in zip(chunk, ends, cells, ats, ats[1:]):
        if isinstance(c, np.ndarray):
            rows[:, at:to] = c
            continue
        if c[0]:  # so -0.0 stays "-0.0"
            rows[:, at] = np.signbit(col) * np.array("-", "S4").view(np.uint32)
        q = np.abs(col)
        for k in range(c[1]):  # right to left
            # Exact below 1e16: q / 1e4 < 1e12 rounds by at most 2^-14, and a
            # quotient that is not an integer lies at least 1e-4 from one; 1e4 *
            # rest is an even integer below 1e16, which a double holds. The top
            # group has no leading zeros, and one above the top is empty.
            rest = np.floor(q / 1e4)
            group = q - rest * 1e4 + 1e4 * (rest == 0)
            if k:
                group += 1e4 * (q == 0)
            rows[:, to - 2 - k] = np.take(_DIGIT_WORDS, group.astype(np.intp))
            q = rest
        rows[:, to - 1] = np.array(".0" + end, "S4").view(np.uint32)
    return rows.tobytes().translate(None, b"\0")


def write_csv(result: SweepResult, path: Path) -> None:
    """CSV as ``csv.writer`` would write it (repr of every float, ``\\r\\n`` line
    ends), formatted a bounded chunk of rows at a time so that long columns
    never become one Python string per cell all at once."""
    columns = [np.asarray(result.axis), *(np.asarray(v) for v in result.series.values())]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow([result.axis_name, *result.series.keys()])
        fh.flush()  # the rows go to the binary file underneath
        for lo in range(0, len(columns[0]), _CSV_CHUNK_ROWS):
            fh.buffer.write(_csv_rows([c[lo:lo + _CSV_CHUNK_ROWS] for c in columns]))
    meta_path = path.with_suffix(path.suffix + ".meta.json")
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(result.metadata, fh, indent=2, sort_keys=True)
        fh.write("\n")


_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def write_svg(result: SweepResult, path: Path) -> None:
    """Optional post-step: a plain 640 x 420 line chart of every finite series."""
    width, height, pad = 640, 420, 56
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
    out_dir = Path(spec.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    result = _run_queue_path(cfg, spec) if SWEEPS[spec.name] is None else _run_sweep(cfg, spec)

    path = out_dir / f"{spec.name}.csv"
    write_csv(result, path)
    written = [path, path.with_suffix(path.suffix + ".meta.json")]
    if plot:
        svg_path = out_dir / f"{spec.name}.svg"
        write_svg(result, svg_path)
        written.append(svg_path)
    return written


def _harvester_pair(cfg: NetworkConfig) -> tuple[NetworkConfig, NetworkConfig]:
    """(linear, nonlinear) variants of ``cfg``; the nonlinear one keeps the
    circuit thresholds of ``cfg``."""
    h = cfg.harvester
    nl = cfg if h.kind == "nonlinear" else replace(
        cfg, harvester=HarvesterModel(kind="nonlinear", pr_min=h.pr_min, pr_max=h.pr_max))
    return replace(cfg, harvester=HarvesterModel(kind="linear")), nl


# Each point function maps one swept config to {column: (value, converged)}.

def _jsp_point(cfg: NetworkConfig, spec: ExperimentSpec) -> dict[str, tuple]:
    qspec = QuadratureSpec()
    out = {}
    for suffix, c in zip(("", "_nl"), _harvester_pair(cfg)):
        out["mc" + suffix] = jsp_monte_carlo(c, trials=spec.trials, seed=spec.seed)
        out["lower" + suffix] = jsp_lower_bound(c, spec=qspec)
        out["upper" + suffix] = jsp_upper_bound(c, spec=qspec)
    return {c: (est.value, est.converged) for c, est in out.items()}


def _paoi_point(cfg: NetworkConfig, spec: ExperimentSpec) -> dict[str, tuple]:
    qspec = QuadratureSpec()
    p_a = spec.queue.p_a if spec.queue.p_a is not None else cfg.p_a
    out = {}
    for suffix, c in zip(("", "_nl"), _harvester_pair(cfg)):
        mu = jsp_lower_bound(c, spec=qspec)
        for column, closed_form in (("np_upper", paoi_np_closed_form), ("p_upper", paoi_p_closed_form)):
            out[column + suffix] = (closed_form(mu.value, p_a) if mu.value > 0.0 else math.inf,
                                    mu.converged)
    return out


def _xistar_point(cfg: NetworkConfig, spec: ExperimentSpec) -> dict[str, tuple]:
    qspec = QuadratureSpec(rel_tol=1e-5, abs_tol=1e-8)
    lin, _ = _harvester_pair(cfg)
    opt = optimize_xi(XiObjective(kind="max_jsp_lower", cfg=lin, spec=qspec), grid_step=0.05)
    # Both peak-age closed forms strictly decrease in mu: one argmax serves all three.
    return dict.fromkeys(("xi_star_jsp_lower", "xi_star_paoi_np", "xi_star_paoi_p"), (opt.xi_star, opt.converged))


_POINTS = {"jsp": _jsp_point, "paoi": _paoi_point, "xistar": _xistar_point}


def _run_sweep(cfg: NetworkConfig, spec: ExperimentSpec) -> SweepResult:
    """Set the experiment's axis field to each axis value (dB axes of p_t in
    watts) and evaluate its point function there; each value whose quadrature
    did not converge is named on stderr."""
    field, axis = SWEEPS[spec.name][0], spec.resolved_sweep()
    point = _POINTS[spec.name.split("-", 1)[0]]
    label, to_field = _axis_conversion(field, axis.unit)

    values = axis.values()
    rows = [point(replace(cfg, **{field: to_field(x)}), spec) for x in values]
    for x, row in zip(values, rows):
        for c, (_, ok) in row.items():
            if not ok:
                print(f"warning: {spec.name}: {label} = {x!r}: {c}: quadrature did not converge",
                      file=sys.stderr)
    return SweepResult(spec.name, label, values, {c: [row[c][0] for row in rows] for c in rows[0]},
                       _metadata(cfg, spec, axis))


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
    return SweepResult(spec.name, "slot", np.arange(1.0, q.n_slots + 1),
                       {"aoi": trace.aoi_path.astype(float)},
                       _metadata(cfg, spec, None) | {"mu": mu, "p_a": p_a})
