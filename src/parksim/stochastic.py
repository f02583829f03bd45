"""Queueing math and the Poisson traffic generator.

The lot-full probability is the literal Poisson pmf evaluated at the slot
count; expected occupancy comes from Little's Law; ventilation response time
is the concentration excess divided by the extraction rate. Arrivals follow
a non-homogeneous Poisson process with a piecewise-constant hourly rate
table, sampled exactly by restarting the exponential draw at hour
boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .domain import ConfigError

if TYPE_CHECKING:
    from .rng import PCG64

# Diurnal arrival profile (cars/hour) peaking at 100 between hours 12 and 13.
DEFAULT_HOURLY_RATES: tuple[float, ...] = (
    4, 3, 2, 2, 2, 5, 15, 35, 60, 80, 90, 95,
    100, 95, 85, 75, 65, 60, 50, 40, 30, 20, 12, 6,
)

SECONDS_PER_HOUR = 3600.0

NO_MORE_ARRIVALS = math.inf


@dataclass(frozen=True)
class TrafficProfile:
    hourly_rates: tuple[float, ...] = DEFAULT_HOURLY_RATES
    dwell_mean_s: float = 600.0

    def validate(self) -> None:
        if len(self.hourly_rates) != 24:
            raise ConfigError(f"hourly_rates needs 24 entries, got {len(self.hourly_rates)}")
        if any(rate < 0 for rate in self.hourly_rates):
            raise ConfigError("hourly rates must be >= 0")
        if self.dwell_mean_s <= 0:
            raise ConfigError("dwell_mean_s must be > 0")

    def rate_at(self, t_s: float) -> float:
        """Arrival rate (cars/hour) in effect at simulated time t_s."""
        return self.hourly_rates[int(t_s // SECONDS_PER_HOUR) % 24]


@dataclass(frozen=True)
class QueueReport:
    p_full: float
    expected_occupancy: float
    vent_response_s: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_full <= 1.0:
            raise ValueError(f"p_full outside [0, 1]: {self.p_full}")
        if self.expected_occupancy < 0:
            raise ValueError("expected_occupancy must be >= 0")


def poisson_pmf(lam: float, k: int) -> float:
    """P(X = k) for X ~ Poisson(lam); log-space above k = 20 to avoid overflow."""
    if lam < 0:
        raise ValueError(f"lambda must be >= 0, got {lam}")
    if k < 0 or k != int(k):
        raise ValueError(f"k must be a non-negative integer, got {k}")
    k = int(k)
    if lam == 0:
        return 1.0 if k == 0 else 0.0
    if k > 20:
        return math.exp(k * math.log(lam) - lam - math.lgamma(k + 1))
    return lam**k * math.exp(-lam) / math.factorial(k)


def p_full(lam: float, n: int) -> float:
    """Probability that the car count equals the slot count under Poisson(lam)."""
    return poisson_pmf(lam, n)


def littles_law(arrival_rate_per_hour: float, dwell_mean_hours: float) -> float:
    """Mean cars in the lot: arrival rate times mean dwell time."""
    if arrival_rate_per_hour < 0 or dwell_mean_hours < 0:
        raise ValueError("arrival rate and dwell time must be >= 0")
    return arrival_rate_per_hour * dwell_mean_hours


def vent_response(delta_g_ppm: float, reduction_rate_ppm_per_s: float) -> float:
    """Seconds to pull the gas level down by delta_g at the given extraction rate."""
    if reduction_rate_ppm_per_s <= 0:
        raise ValueError("ventilation cannot reduce concentration: rate must be > 0")
    if delta_g_ppm < 0:
        raise ValueError(f"delta_g must be >= 0, got {delta_g_ppm}")
    return delta_g_ppm / reduction_rate_ppm_per_s


def exponential_gap(rate_per_s: float, rng: PCG64) -> float:
    """Inverse-CDF exponential draw; explicit so the stream is portable."""
    return -math.log1p(-rng.random()) / rate_per_s


def next_arrival(profile: TrafficProfile, now: float, rng: PCG64) -> float:
    """Time of the next arrival after `now`, honoring the piecewise-constant rate.

    A draw that crosses an hour boundary is restarted at the boundary with
    the new hour's rate (exact for piecewise-constant intensities thanks to
    memorylessness). Returns NO_MORE_ARRIVALS when every rate is zero.
    """
    if now < 0:
        raise ValueError(f"now must be >= 0, got {now}")
    if not any(rate > 0 for rate in profile.hourly_rates):
        return NO_MORE_ARRIVALS
    t = now
    while True:
        rate = profile.rate_at(t)
        boundary = (math.floor(t / SECONDS_PER_HOUR) + 1) * SECONDS_PER_HOUR
        if rate <= 0:
            t = boundary
            continue
        gap = exponential_gap(rate / SECONDS_PER_HOUR, rng)
        if t + gap <= boundary:
            return t + gap
        t = boundary


def analyze(
    lam: float,
    n: int,
    t_avg_hours: float | None,
    delta_g_ppm: float,
    reduction_rate_ppm_per_s: float,
    lam_is_per_hour: bool,
) -> QueueReport:
    """Build a QueueReport from operator inputs.

    With a per-hour rate the Poisson mean is the offered load lam * t_avg;
    with a per-dwell rate lam is used directly and t_avg is not needed.
    """
    if lam_is_per_hour:
        if t_avg_hours is None:
            raise ConfigError("a per-hour arrival rate needs the mean dwell time")
        mean_cars = littles_law(lam, t_avg_hours)
    else:
        mean_cars = lam
    return QueueReport(
        p_full=p_full(mean_cars, n),
        expected_occupancy=mean_cars,
        vent_response_s=vent_response(delta_g_ppm, reduction_rate_ppm_per_s),
    )
