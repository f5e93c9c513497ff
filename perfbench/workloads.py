"""Workload definitions: the config each workload hands the program and the
inputs its output sidecars must echo back (the input-fidelity contract).

Every workload runs serially in one fresh interpreter per iteration, through
``aoiharvest.config.parse_config`` and ``aoiharvest.experiments.run_experiment``.
Only the seed comes from the benchmark's ``--seed``; everything else is fixed
here so that a faster run cannot come from doing less work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str
    why: str
    trials: int = 10_000
    radius: float = 60.0
    sweep: tuple[float, float, float, str] | None = None  # start, stop, step, unit
    disciplines: tuple[str, ...] = ("non_preemptive",)
    mu: float | None = None
    p_a: float | None = None
    n_slots: int = 1000

    @property
    def axis(self) -> list[float]:
        """Sweep points, computed the way the program's SweepAxis does."""
        if self.sweep is None:
            return []
        start, stop, step, _ = self.sweep
        n = int(math.floor((stop - start) / step + 1e-9)) + 1
        return [start + i * step for i in range(n)]

    @property
    def jobs(self) -> tuple[str, ...]:
        """One label per run_experiment call; queue-path runs each discipline."""
        return self.disciplines if self.experiment == "queue-path" else (self.experiment,)

    @property
    def ops(self) -> int:
        """Operations per iteration: one per sweep point, or one per discipline run."""
        return len(self.jobs) if self.experiment == "queue-path" else len(self.axis)

    def config_text(self, job: str, seed: int, out_dir: str) -> str:
        lines = ["[network]", f"radius = {self.radius!r}",
                 "[experiment]", f"name = {self.experiment}", f"trials = {self.trials}",
                 f"seed = {seed}", f"output_dir = {out_dir}"]
        if self.sweep is not None:
            start, stop, step, unit = self.sweep
            lines += [f"sweep_start = {start!r}", f"sweep_stop = {stop!r}",
                      f"sweep_step = {step!r}", f"sweep_unit = {unit}"]
        lines += ["[queue]", f"n_slots = {self.n_slots}",
                  f"discipline = {job if self.experiment == 'queue-path' else 'non_preemptive'}"]
        if self.mu is not None:
            lines.append(f"mu = {self.mu!r}")
        if self.p_a is not None:
            lines.append(f"p_a = {self.p_a!r}")
        return "\n".join(lines) + "\n"

    def expected_meta(self, job: str, seed: int) -> dict[str, object]:
        """Dotted sidecar keys and the values the workload definition fixes."""
        want: dict[str, object] = {
            "experiment": self.experiment,
            "seed": seed,
            "trials": self.trials,
            "network.radius": self.radius,
            "queue.n_slots": self.n_slots,
        }
        if self.sweep is not None:
            start, stop, step, unit = self.sweep
            want.update({"sweep.start": start, "sweep.stop": stop,
                         "sweep.step": step, "sweep.unit": unit})
        if self.experiment == "queue-path":
            want.update({"queue.discipline": job, "queue.mu": self.mu, "queue.p_a": self.p_a,
                         "mu": self.mu, "p_a": self.p_a})
        return want


WORKLOADS = {w.name: w for w in (
    Workload(
        name="jsp-power",
        experiment="jsp-vs-power",
        why="11 power points sharing one R = 60 m geometry: Monte Carlo sample reuse shows here",
        trials=20_000,
        sweep=(0.0, 20.0, 2.0, "dB"),
    ),
    Workload(
        name="jsp-radius",
        experiment="jsp-vs-radius",
        why="10 radii from 20 to 200 m, no shared geometry: sort, regime probes and count window grow",
        trials=4_000,
        sweep=(20.0, 200.0, 20.0, "m"),
    ),
    Workload(
        name="xistar-radius",
        experiment="xistar-vs-radius",
        why="analytic xi* search at R = 200 m: count-series quadrature and optimizer, no sampling",
        sweep=(200.0, 200.0, 50.0, "m"),
    ),
    Workload(
        name="queue-path",
        experiment="queue-path",
        why="1e6-slot Geo/Geo/1 queue under both disciplines: queue simulator and large CSV output",
        disciplines=("non_preemptive", "preemptive"),
        mu=0.3,
        p_a=0.5,
        n_slots=1_000_000,
    ),
)}
