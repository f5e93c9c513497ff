"""Compute the stored reference values the row checks compare against.

    PYTHONPATH=src python3 perfbench/make_reference.py   # from the repository root

Writes perfbench/reference.json. The linear bounds and xi* are computed once
at tighter tolerances than the program uses; the quadrature error estimates
of the bounds at the program's own tolerances (linear and ``_nl``, with the
regime the program selects) are stored too, because the CSVs do not carry
them and the sandwich checks widen by them. None of these values depends on
the workload seed.
"""

from __future__ import annotations

import json
import time
from dataclasses import replace
from pathlib import Path

from aoiharvest.jsp import jsp_lower_bound, jsp_upper_bound, select_regime
from aoiharvest.model import HarvesterModel, NetworkConfig, db_to_watt
from aoiharvest.optimizer import XiObjective, optimize_xi
from aoiharvest.quadrature import QuadratureSpec

from workloads import WORKLOADS

TIGHT = QuadratureSpec(rel_tol=1e-9, abs_tol=1e-12, max_subdivisions=2000, series_mass=1.0 - 1e-12)
XI_TIGHT = QuadratureSpec(rel_tol=1e-8, abs_tol=1e-11, max_subdivisions=1000, series_mass=1.0 - 1e-10)
XI_REFINE_TOL = 1e-5


def point_config(workload, x: float) -> NetworkConfig:
    if workload.experiment.endswith("power"):
        return NetworkConfig(radius=workload.radius, p_t=db_to_watt(x))
    return NetworkConfig(radius=x)


def jsp_row(cfg: NetworkConfig, x: float) -> dict:
    lin = replace(cfg, harvester=HarvesterModel(kind="linear"))
    nl = replace(cfg, harvester=HarvesterModel(kind="nonlinear"))
    regime = select_regime(nl)
    row = {"x": x, "regime_nl": regime}
    for name, fn in (("lower", jsp_lower_bound), ("upper", jsp_upper_bound)):
        tight = fn(lin, regime="linear", spec=TIGHT)
        row[name] = tight.value
        row[f"{name}_err"] = tight.quadrature_error
        row[f"{name}_err_program"] = fn(lin, regime="linear", spec=QuadratureSpec()).quadrature_error
        row[f"{name}_nl_err_program"] = fn(nl, regime=regime, spec=QuadratureSpec()).quadrature_error
    return row


def xistar_row(cfg: NetworkConfig, x: float) -> dict:
    lin = replace(cfg, harvester=HarvesterModel(kind="linear"))
    opt = optimize_xi(XiObjective(kind="max_jsp_lower", cfg=lin, spec=XI_TIGHT),
                      grid_step=0.05, refine_tol=XI_REFINE_TOL)
    return {"x": x, "xi_star": opt.xi_star, "refine_tol": XI_REFINE_TOL}


def main() -> None:
    out = {}
    for workload in WORKLOADS.values():
        if workload.experiment.startswith("jsp-vs"):
            make = jsp_row
        elif workload.experiment.startswith("xistar"):
            make = xistar_row
        else:
            continue
        t0 = time.perf_counter()
        out[workload.name] = [make(point_config(workload, x), x) for x in workload.axis]
        print(f"{workload.name}: {time.perf_counter() - t0:.1f} s", flush=True)
    path = Path(__file__).with_name("reference.json")
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
