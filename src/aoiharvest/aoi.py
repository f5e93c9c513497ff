"""Slot-level age-of-information process over a Geo/Geo/1 link.

Bernoulli(p_a) arrivals, i.i.d. per-slot delivery probability mu (the JSP of
the link). Non-preemptive service drops arrivals while a packet is in
service; preemptive service replaces the in-service packet on arrival.

Slot convention: the in-service packet's transmission attempt is evaluated
first, then the slot's arrival is processed. An arrival is admitted when the
server ends the slot empty (it was idle, or the attempt just succeeded) and,
under preemption, when the attempt just failed (it replaces the in-service
packet). Every admitted packet is first attempted in the following slot, and
ages count attempt slots. Under this convention the service span W is
Geom(mu) on {1,2,...}, the delivered packet's own attempt count W_hat is
Geom(q_s) with q_s = mu + p_a(1-mu), the admission gap V has
P[V=n] = p_a(1-p_a)^n, and the mean peak age matches the closed forms as
exact expectations.

The per-slot AoI export is the staircase value just before any delivery reset
(so its local maxima are the peak-age samples); at a delivery the internal
age resets to the delivered packet's attempt-slot age.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import DISCIPLINES

__all__ = [
    "QueueParams",
    "QueueTrace",
    "PaoiStats",
    "simulate_queue",
    "paoi_np_closed_form",
    "paoi_p_closed_form",
    "InfiniteAgeError",
]


class InfiniteAgeError(ValueError):
    """Closed form requested with zero success or arrival probability."""


@dataclass(frozen=True)
class QueueParams:
    p_a: float
    mu: float
    discipline: str = "non_preemptive"
    n_slots: int = 100_000
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.p_a <= 1:
            raise ValueError("p_a must be in (0, 1]")
        if not 0 < self.mu <= 1:
            raise ValueError("mu must be in (0, 1]")
        if self.discipline not in DISCIPLINES:
            raise ValueError(f"discipline must be one of {DISCIPLINES}")
        if self.n_slots < 1:
            raise ValueError("n_slots must be >= 1")


@dataclass(frozen=True)
class QueueTrace:
    aoi_path: np.ndarray            # pre-reset staircase value per slot
    paoi_samples: np.ndarray        # peak age at each delivery
    delivery_slots: np.ndarray      # 1-based slot index of each delivery
    service_times: np.ndarray       # W_i, attempt span of each delivered generation
    residuals: np.ndarray           # W_hat_i, attempts of the delivered packet itself
    interarrivals: np.ndarray       # V_i, idle slots before each generation


@dataclass(frozen=True)
class PaoiStats:
    mean_paoi: float
    ci_halfwidth: float
    count: int
    mean_service: float
    mean_residual: float


def _batch_ci_halfwidth(samples: np.ndarray) -> float:
    """95% halfwidth via batch means (peak-age samples are autocorrelated)."""
    n = samples.size
    if n < 2:
        return math.inf
    n_batches = min(64, n // 2)
    if n_batches < 2:
        return 1.959963984540054 * float(samples.std(ddof=1)) / math.sqrt(n)
    usable = (n // n_batches) * n_batches
    means = samples[:usable].reshape(n_batches, -1).mean(axis=1)
    return 1.959963984540054 * float(means.std(ddof=1)) / math.sqrt(n_batches)


def _previous(x: np.ndarray) -> np.ndarray:
    """x shifted one place later, with 0 (the phantom slot) in front."""
    return np.concatenate(([0], x))[:x.size]


def simulate_queue(params: QueueParams) -> tuple[QueueTrace, PaoiStats]:
    """Simulate the slot recursion and aggregate peak-age statistics.

    The server is empty after every success slot: it either delivered or had
    nothing to send. So a success slot s is a delivery exactly when an arrival
    fell in [s_prev, s - 1], s_prev being the previous success slot (0 for the
    first, which counts the warm-up draw), and both disciplines deliver in the
    same slots. Each generation is admitted at the first arrival at or after
    the previous delivery; under preemption the delivered packet is the last
    arrival before its delivery slot. The peak age at each delivery is
    computed twice, from the aging staircase and from the components
    (previous residual + idle gap + service span); a mismatch raises, as a
    structural self-check of the accounting.
    """
    rng = np.random.default_rng(params.seed)
    n = params.n_slots
    # Index 0 is the warm-up arrival draw for the phantom delivery at slot 0.
    arrivals = rng.random(n + 1) < params.p_a
    success_slots = np.flatnonzero(rng.random(n) < params.mu) + 1
    # Arrivals in [0, s - 1] for each success slot s; the count also indexes
    # arrival_slots, which turns "first arrival at or after t" into a lookup.
    arrived = np.cumsum(arrivals, dtype=np.int32)[success_slots - 1]  # n < 2^31 (config.MAX_SLOTS)
    delivered = arrived > _previous(arrived)
    delivery_slots = success_slots[delivered]
    arrived = arrived[delivered]
    arrival_slots = np.flatnonzero(arrivals)

    prev_delivery = _previous(delivery_slots)
    admitted = arrival_slots[_previous(arrived)]
    service_times = delivery_slots - admitted
    interarrivals = admitted - prev_delivery
    if params.discipline == "preemptive":
        residuals = delivery_slots - arrival_slots[arrived - 1]
    else:
        residuals = service_times
    reset_age = np.concatenate(([1], residuals))  # the phantom packet's residual is 1
    peaks = reset_age[:-1] + interarrivals + service_times

    # A running sum of steps: 2 in slot 1, then +1 a slot, except that the
    # slot after a delivery d < n drops to the delivered packet's age + 1.
    aoi_path = np.ones(n, dtype=np.int64)
    aoi_path[0] = 2
    inner = delivery_slots < n
    aoi_path[delivery_slots[inner]] = (np.diff(reset_age) - delivery_slots + prev_delivery + 1)[inner]
    np.cumsum(aoi_path, out=aoi_path)
    if not np.array_equal(peaks, aoi_path[delivery_slots - 1]):
        raise RuntimeError("AoI accounting mismatch between staircase and components")

    trace = QueueTrace(aoi_path=aoi_path, paoi_samples=peaks, delivery_slots=delivery_slots,
                       service_times=service_times, residuals=residuals, interarrivals=interarrivals)
    count = peaks.size
    stats = PaoiStats(
        mean_paoi=float(peaks.mean()) if count else math.nan,
        ci_halfwidth=_batch_ci_halfwidth(peaks) if count else math.inf,
        count=count,
        mean_service=float(service_times.mean()) if count else math.nan,
        mean_residual=float(residuals.mean()) if count else math.nan,
    )
    return trace, stats


def _check_rates(mu: float, p_a: float) -> None:
    if mu == 0 or p_a == 0:
        raise InfiniteAgeError("mean peak age diverges at mu = 0 or p_a = 0")
    if not (0 < mu <= 1 and 0 < p_a <= 1):
        raise ValueError("mu and p_a must be in (0, 1]")


def paoi_np_closed_form(mu: float, p_a: float) -> float:
    """Mean peak age under non-preemptive service: (1/p_a - 1) + 2/mu slots."""
    _check_rates(mu, p_a)
    return (1.0 / p_a - 1.0) + 2.0 / mu


def paoi_p_closed_form(mu: float, p_a: float) -> float:
    """Mean peak age under preemptive service: (1/p_a - 1) + 1/mu + 1/q_s slots,
    with q_s = mu + p_a (1 - mu)."""
    _check_rates(mu, p_a)
    q_s = mu + p_a * (1.0 - mu)
    return (1.0 / p_a - 1.0) + 1.0 / mu + 1.0 / q_s
