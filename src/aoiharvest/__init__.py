"""Energy-harvesting IoT downlink analysis at desk scale.

Monte Carlo estimation and analytic bounding of the joint success
probability (harvested energy and SIR both over threshold in one slot),
slot-level age-of-information simulation with closed-form peak-age means,
and search for the optimal slot-partitioning factor.
"""

__version__ = "0.1.0"

from .aoi import (
    PaoiStats,
    QueueParams,
    QueueTrace,
    paoi_np_closed_form,
    paoi_p_closed_form,
    residual_pmf,
    simulate_queue,
)
from .geometry import DiscPpp, pmf_count
from .jsp import JspEstimate, jsp_lower_bound, jsp_monte_carlo, jsp_upper_bound
from .model import HarvesterModel, NetworkConfig, sir_threshold
from .optimizer import XiObjective, XiOptimum, evaluate_objective, optimize_xi
from .quadrature import QuadratureSpec, erlang_lower, erlang_upper, integrate_adaptive, poisson_series

__all__ = [
    "__version__",
    "NetworkConfig",
    "HarvesterModel",
    "sir_threshold",
    "DiscPpp",
    "pmf_count",
    "QuadratureSpec",
    "erlang_lower",
    "erlang_upper",
    "integrate_adaptive",
    "poisson_series",
    "JspEstimate",
    "jsp_monte_carlo",
    "jsp_lower_bound",
    "jsp_upper_bound",
    "QueueParams",
    "QueueTrace",
    "PaoiStats",
    "simulate_queue",
    "paoi_np_closed_form",
    "paoi_p_closed_form",
    "residual_pmf",
    "XiObjective",
    "XiOptimum",
    "evaluate_objective",
    "optimize_xi",
]
