"""Scalar configuration of the harvesting IoT downlink.

One slot of duration tau is split by the partitioning factor xi: the first
xi*tau harvests RF energy from every transmitter, the remaining (1-xi)*tau
carries the payload from the nearest transmitter. This module holds the
validated parameters, the decoding threshold they imply and the dB
conversion. The per-slot event itself (harvested energy and SIR both over
threshold) is written once, vectorised over Monte Carlo trials, in
``jsp._count_events``.

All internal quantities are SI (W, J, s, m); dB appears only at the CLI
boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields


class InvalidConfigError(ValueError):
    """A parameter is outside the model's validity range."""


# Largest mean transmitter count lambda pi R^2. The Monte Carlo sampler's first
# chunk holds 1,024 trials as rows padded to the largest count, about the mean
# count m. It peaks near 17 bytes per trial and unit of m (float64 rows, a byte
# mask and one float64 buffer of draws, then distances; measured 17.2-18.0 at
# m = 1e3 to 3e4), so 18 kB per unit of m, and this limit keeps it near 0.7 GB.
MAX_MEAN_COUNT = 4e4

# Service disciplines of the Geo/Geo/1 link in aoi.py, defined here so that
# config can check them without loading NumPy.
DISCIPLINES = ("non_preemptive", "preemptive")


@dataclass(frozen=True)
class HarvesterModel:
    """Energy-conversion circuit.

    ``linear`` converts any input power; ``nonlinear`` needs the total received
    power to exceed the activation threshold ``pr_min`` and clips the usable
    input at the saturation threshold ``pr_max``. Both thresholds are fixed
    circuit constants (input powers, W).
    """

    kind: str = "linear"
    pr_min: float = 0.045
    pr_max: float = 10.0

    def __post_init__(self) -> None:
        if self.kind not in ("linear", "nonlinear"):
            raise InvalidConfigError(f"kind must be 'linear' or 'nonlinear', got {self.kind!r}")
        # checked for either kind: the sweeps build a nonlinear twin of a linear config
        if not 0.0 <= self.pr_min < self.pr_max:
            raise InvalidConfigError(f"pr_min must be in [0, pr_max = {self.pr_max}), got {self.pr_min}")

    @property
    def window(self) -> tuple[float, float]:
        """Input-power window (lo, hi): no harvest below lo, input clipped at hi."""
        return (0.0, math.inf) if self.kind == "linear" else (self.pr_min, self.pr_max)


@dataclass(frozen=True)
class NetworkConfig:
    """Scalar parameters of the network model. Defaults are the reference settings."""

    density: float = 0.003      # transmitter density lambda (m^-2)
    radius: float = 60.0        # deployment disc radius R (m)
    alpha: float = 3.0          # path-loss exponent, > 2
    p_t: float = 10.0           # transmit power x path-loss constant (W)
    eta: float = 0.9            # energy-conversion efficiency, in (0, 1]
    xi: float = 0.4             # slot partitioning factor, in [0, 1)
    tau: float = 1.0            # slot duration (s)
    sigma_bits: float = 10.0    # payload size (bits)
    bandwidth: float = 1e4      # channel bandwidth B (Hz)
    e_th: float = 0.010         # energy threshold (J)
    p_a: float = 0.5            # packet arrival probability per slot, in (0, 1]
    harvester: HarvesterModel = field(default_factory=HarvesterModel)

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name != "harvester" and not math.isfinite(value):
                raise InvalidConfigError(f"{f.name} must be finite, got {value}")
        checks = [
            (self.density > 0, "density must be > 0"),
            (self.radius > 0, "radius must be > 0"),
            (self.alpha > 2, "alpha must be > 2"),
            (self.p_t > 0, "p_t must be > 0"),
            (0 < self.eta <= 1, "eta must be in (0, 1]"),
            (0 <= self.xi < 1, "xi must be in [0, 1)"),
            (self.tau > 0, "tau must be > 0"),
            (self.sigma_bits >= 0, "sigma_bits must be >= 0"),
            (self.bandwidth > 0, "bandwidth must be > 0"),
            (self.e_th >= 0, "e_th must be >= 0"),
            (0 < self.p_a <= 1, "p_a must be in (0, 1]"),
        ]
        for ok, msg in checks:
            if not ok:
                raise InvalidConfigError(msg)
        mean_count = self.density * math.pi * self.radius * self.radius
        if not mean_count <= MAX_MEAN_COUNT:
            raise InvalidConfigError(f"density * pi * radius^2 (the mean transmitter count, {mean_count:g}) "
                                     f"exceeds {MAX_MEAN_COUNT:g}, the Monte Carlo sampler's memory limit")


def sir_threshold(cfg: NetworkConfig) -> float:
    """Decoding threshold beta = 2**(r/B) - 1 with rate r = sigma/((1-xi)*tau).

    Strictly increasing in xi (shorter data phase needs a higher rate) and
    diverging as xi -> 1.
    """
    rate = cfg.sigma_bits / ((1.0 - cfg.xi) * cfg.tau)
    exponent = rate / cfg.bandwidth
    if exponent >= 1024.0:  # past the double range; the threshold is effectively infinite
        return math.inf
    return 2.0 ** exponent - 1.0


def db_to_watt(db: float) -> float:
    """10^(db/10) W; inf past the double range, which NetworkConfig rejects."""
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        return math.inf

