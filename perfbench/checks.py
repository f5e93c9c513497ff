"""Correctness checks on a workload's output files.

One operation is one output row: a sweep point, or for queue-path one
discipline run. A row fails when any check on it fails. Checks are split in
two kinds:

* ``known-defect``: the nonlinear sandwich ``lower_nl - eps <= mc_nl <=
  upper_nl + eps``. The ``_nl`` columns are known not to be bounds when the
  activation threshold binds; such rows count as failed operations but do not
  make the run incorrect.
* every other check (values finite and in range, the linear sandwich,
  agreement with the stored references, xi* coincidence, the peak-age closed
  form, input fidelity, determinism): a failure makes the run incorrect.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

Z95 = 1.959963984540054
KNOWN_DEFECT = "known-defect"
# Stored references come from tighter tolerances (make_reference.py).
BOUND_REF_ABS_TOL = 1e-6
XI_STAR_REF_TOL = 2e-3
XI_STAR_P_GAP = 1e-3  # acceptance criterion 5: preemptive argmin within the refinement tolerance
PAOI_REL_TOL = 0.01


@dataclass
class Row:
    label: str
    failures: list[tuple[str, str]] = field(default_factory=list)  # (kind, message)

    def fail(self, message: str, kind: str = "error") -> None:
        self.failures.append((kind, message))

    @property
    def failed(self) -> bool:
        return bool(self.failures)

    @property
    def incorrect(self) -> bool:
        return any(kind != KNOWN_DEFECT for kind, _ in self.failures)


def wilson_halfwidth(p: float, trials: int) -> float:
    """95% Wilson score half-width for an observed fraction p over trials."""
    z2 = Z95 * Z95
    return Z95 * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials)) / (1.0 + z2 / trials)


def read_csv(path: Path) -> tuple[list[str], list[list[float]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(v) for v in row] for row in rows[1:]]


def flatten(meta: dict, prefix: str = "") -> dict[str, object]:
    flat = {}
    for key, value in meta.items():
        if isinstance(value, dict):
            flat.update(flatten(value, f"{prefix}{key}."))
        else:
            flat[f"{prefix}{key}"] = value
    return flat


def fidelity_failures(meta: dict, expected: dict[str, object]) -> list[str]:
    """Sidecar entries that differ from the workload's definition."""
    flat = flatten(meta)
    return [f"meta {key} = {flat.get(key)!r}, workload defines {want!r}"
            for key, want in expected.items() if flat.get(key) != want]


def _sandwich(row: Row, lo: float, mc: float, up: float, eps_lo: float, eps_up: float,
              what: str, kind: str) -> None:
    if mc < lo - eps_lo:
        row.fail(f"{what}: lower {lo:.6g} > mc {mc:.6g} + eps {eps_lo:.3g}", kind)
    if mc > up + eps_up:
        row.fail(f"{what}: mc {mc:.6g} > upper {up:.6g} + eps {eps_up:.3g}", kind)


def check_jsp(header, values, axis, trials: int, reference: list[dict]) -> list[Row]:
    rows = []
    for i, x in enumerate(axis):
        row = Row(f"{header[0]}={x:g}")
        rows.append(row)
        if i >= len(values):
            row.fail("row missing")
            continue
        got = dict(zip(header, values[i]))
        ref = reference[i]
        if got[header[0]] != x or ref["x"] != x:
            row.fail(f"axis value {got[header[0]]!r}, expected {x!r}")
        cols = ("mc", "lower", "upper", "mc_nl", "lower_nl", "upper_nl")
        bad = [c for c in cols if not (math.isfinite(got[c]) and 0.0 <= got[c] <= 1.0)]
        if bad:
            row.fail(f"not a probability: {', '.join(bad)}")
            continue
        for name in ("lower", "upper"):
            tol = BOUND_REF_ABS_TOL + ref[f"{name}_err_program"] + ref[f"{name}_err"]
            if abs(got[name] - ref[name]) > tol:
                row.fail(f"{name} {got[name]!r} differs from reference {ref[name]!r} by more than {tol:.3g}")
        for sfx, kind in (("", "error"), ("_nl", KNOWN_DEFECT)):
            mc = got["mc" + sfx]
            hw = wilson_halfwidth(mc, trials)
            _sandwich(row, got["lower" + sfx], mc, got["upper" + sfx],
                      hw + ref[f"lower{sfx}_err_program"], hw + ref[f"upper{sfx}_err_program"],
                      "linear sandwich" if not sfx else "nonlinear sandwich", kind)
    return rows


def check_xistar(header, values, axis, reference: list[dict]) -> list[Row]:
    rows = []
    for i, x in enumerate(axis):
        row = Row(f"{header[0]}={x:g}")
        rows.append(row)
        if i >= len(values):
            row.fail("row missing")
            continue
        got = dict(zip(header, values[i]))
        if got[header[0]] != x or reference[i]["x"] != x:
            row.fail(f"axis value {got[header[0]]!r}, expected {x!r}")
        stars = [got[c] for c in ("xi_star_jsp_lower", "xi_star_paoi_np", "xi_star_paoi_p")]
        if not all(math.isfinite(s) and 0.0 < s < 1.0 for s in stars):
            row.fail(f"xi* outside (0, 1): {stars}")
            continue
        jsp, np_, p = stars
        if np_ != jsp:
            row.fail(f"xi_star_paoi_np {np_!r} != xi_star_jsp_lower {jsp!r}")
        if abs(p - jsp) > XI_STAR_P_GAP:
            row.fail(f"xi_star_paoi_p {p!r} is more than {XI_STAR_P_GAP} from xi_star_jsp_lower {jsp!r}")
        ref = reference[i]["xi_star"]
        if abs(jsp - ref) > XI_STAR_REF_TOL:
            row.fail(f"xi* {jsp!r} differs from reference {ref!r} by more than {XI_STAR_REF_TOL}")
    return rows


def batch_ci_halfwidth(samples: np.ndarray, n_batches: int = 64) -> float:
    """95% half-width by batch means; peak-age samples are autocorrelated."""
    usable = (samples.size // n_batches) * n_batches
    means = samples[:usable].reshape(n_batches, -1).mean(axis=1)
    return Z95 * float(means.std(ddof=1)) / math.sqrt(n_batches)


def paoi_closed_form(discipline: str, mu: float, p_a: float) -> float:
    if discipline == "non_preemptive":
        return (1.0 / p_a - 1.0) + 2.0 / mu
    q_s = mu + p_a * (1.0 - mu)
    return (1.0 / p_a - 1.0) + 1.0 / mu + 1.0 / q_s


def check_queue(path: Path, discipline: str, n_slots: int, mu: float, p_a: float) -> Row:
    """Mean peak age from the exported staircase against the closed form.

    The staircase grows by one per slot except right after a delivery, so the
    peak ages are the values followed by anything but a +1 step.
    """
    row = Row(f"discipline={discipline}")
    with open(path, encoding="utf-8") as fh:
        if fh.readline().strip() != "slot,aoi":
            row.fail("unexpected queue-path header")
            return row
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape != (n_slots, 2) or not np.array_equal(data[:, 0], np.arange(1, n_slots + 1)):
        row.fail(f"expected slots 1..{n_slots}, got {data.shape[0]} rows")
        return row
    aoi = data[:, 1]
    if not (np.all(np.isfinite(aoi)) and np.all(aoi >= 1.0)):
        row.fail("age values must be finite and >= 1")
        return row
    peaks = aoi[:-1][np.diff(aoi) != 1.0]
    want = paoi_closed_form(discipline, mu, p_a)
    tol = max(PAOI_REL_TOL * want, 3.0 * batch_ci_halfwidth(peaks))
    mean = float(peaks.mean())
    if abs(mean - want) > tol:
        row.fail(f"mean peak age {mean:.6g} vs closed form {want:.6g}, tolerance {tol:.3g}")
    return row


def check_outputs(workload, seed: int, out_dirs: dict[str, Path], reference: dict) -> dict[str, list[Row]]:
    """Row checks plus the input-fidelity guard on one iteration's outputs, per job."""
    rows: dict[str, list[Row]] = {}
    for job, out_dir in out_dirs.items():
        csv_path = out_dir / f"{workload.experiment}.csv"
        meta = json.loads(csv_path.with_suffix(".csv.meta.json").read_text(encoding="utf-8"))
        if workload.experiment == "queue-path":
            job_rows = [check_queue(csv_path, job, workload.n_slots, workload.mu, workload.p_a)]
        else:
            header, values = read_csv(csv_path)
            fidelity = ([] if len(values) == len(workload.axis)
                        else [f"{len(values)} rows, workload defines {len(workload.axis)}"])
            if workload.experiment.startswith("jsp-vs"):
                job_rows = check_jsp(header, values, workload.axis, workload.trials,
                                     reference[workload.name])
            else:
                job_rows = check_xistar(header, values, workload.axis, reference[workload.name])
            for message in fidelity:
                for row in job_rows:
                    row.fail(message)
        for message in fidelity_failures(meta, workload.expected_meta(job, seed)):
            for row in job_rows:
                row.fail(message)
        rows[job] = job_rows
    return rows
