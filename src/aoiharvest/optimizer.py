"""Search for the slot-partitioning factor xi* that maximizes the analytic
JSP lower bound.

The bound moves the harvesting duration and the decoding threshold together
(both are functions of xi). Unimodality in xi is an observed property, not a
guarantee, so golden-section refinement is seeded from a coarse grid scan
rather than trusted globally. Both peak-age closed forms strictly decrease in
the success probability, so this xi* also minimizes either peak age of the
bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .jsp import jsp_lower_bound
from .model import NetworkConfig
from .quadrature import QuadratureSpec

__all__ = ["XiObjective", "XiOptimum", "optimize_xi", "search_scalar", "DegenerateObjectiveError",
           "OBJECTIVE_KINDS"]

OBJECTIVE_KINDS = ("max_jsp_lower",)

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class DegenerateObjectiveError(ValueError):
    """The objective is flat over the scanned grid (e.g. all-zero JSP)."""


@dataclass(frozen=True)
class XiObjective:
    """The JSP lower bound of ``cfg`` at ``spec``, as a function of xi.

    ``kind`` takes the one value ``"max_jsp_lower"``; it stays because
    perfbench/make_reference.py builds ``XiObjective(kind="max_jsp_lower", ...)``.
    """
    kind: str
    cfg: NetworkConfig
    spec: QuadratureSpec | None = None

    def __post_init__(self) -> None:
        if self.kind not in OBJECTIVE_KINDS:
            raise ValueError(f"kind must be one of {OBJECTIVE_KINDS}")


@dataclass(frozen=True)
class XiOptimum:
    xi_star: float
    value: float
    evaluations: int
    converged: bool = True        # every bound evaluated in the search converged


def search_scalar(f, grid_step: float, refine_tol: float) -> tuple[float, float, int]:
    """Minimize f over (grid_step, 1 - grid_step): coarse grid scan, then
    golden-section refinement in the bracket around the best grid point.

    Returns (x, f(x), evaluations); never worse than the best grid point.
    Raises DegenerateObjectiveError when the grid gives nothing to refine
    (all values equal, or none finite).
    """
    if not 0.0 < grid_step <= 0.1:
        raise ValueError("grid_step must be in (0, 0.1]")
    if refine_tol <= 0:
        raise ValueError("refine_tol must be > 0")

    grid = []
    x = grid_step
    while x < 1.0 - grid_step / 2.0:
        grid.append(round(x, 12))
        x += grid_step
    values = [f(x) for x in grid]
    n_evals = len(grid)

    finite = [v for v in values if math.isfinite(v)]
    if not finite:
        raise DegenerateObjectiveError("objective is unbounded over the whole xi grid")
    if len(finite) == len(values) and max(values) == min(values):
        raise DegenerateObjectiveError("objective is flat over the xi grid")

    i_best = min(range(len(grid)), key=lambda i: values[i])
    lo = grid[i_best - 1] if i_best > 0 else max(grid[0] - grid_step, 1e-9)
    hi = grid[i_best + 1] if i_best + 1 < len(grid) else min(grid[-1] + grid_step, 1.0 - 1e-9)

    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    n_evals += 2
    while hi - lo > refine_tol:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = f(x2)
        n_evals += 1

    best_val, best_x = min([(values[i_best], grid[i_best]), (f1, x1), (f2, x2)])
    return best_x, best_val, n_evals


def optimize_xi(obj: XiObjective, grid_step: float = 0.02, refine_tol: float = 1e-3) -> XiOptimum:
    """Coarse grid scan over (grid_step, 1 - grid_step), then golden-section
    refinement around the best grid point down to an interval of width
    refine_tol."""
    flags = []

    def f(xi: float) -> float:
        lo = jsp_lower_bound(replace(obj.cfg, xi=xi), spec=obj.spec)
        flags.append(lo.converged)
        return -lo.value

    x, fx, n_evals = search_scalar(f, grid_step, refine_tol)
    return XiOptimum(xi_star=x, value=-fx, evaluations=n_evals, converged=all(flags))
