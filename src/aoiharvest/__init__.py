"""Energy-harvesting IoT downlink analysis at desk scale.

Monte Carlo estimation and analytic bounding of the joint success
probability (harvested energy and SIR both over threshold in one slot),
slot-level age-of-information simulation with closed-form peak-age means,
and search for the optimal slot-partitioning factor.

An exported name imports its submodule on first access (PEP 562), so importing
the package, or ``aoiharvest.cli`` to parse a config, loads no NumPy or SciPy.
"""

import importlib

__version__ = "0.1.0"

# exported name -> the submodule that defines it, in the order of __all__
_EXPORTS = {
    **dict.fromkeys(["NetworkConfig", "HarvesterModel", "sir_threshold"], "model"),
    **dict.fromkeys(["DiscPpp", "pmf_count"], "geometry"),
    **dict.fromkeys(["QuadratureSpec", "integrate_adaptive"], "quadrature"),
    **dict.fromkeys(["JspEstimate", "jsp_monte_carlo", "jsp_lower_bound", "jsp_upper_bound"], "jsp"),
    **dict.fromkeys(["QueueParams", "QueueTrace", "PaoiStats", "simulate_queue", "paoi_np_closed_form",
                     "paoi_p_closed_form"], "aoi"),
    **dict.fromkeys(["XiObjective", "XiOptimum", "optimize_xi"], "optimizer"),
}
__all__ = ["__version__", *_EXPORTS]


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
