"""Summary statistics of the benchmark: percentiles with their sample
count, medians, and per-request TPOT.

A statistic of too few samples reads NaN instead of raising, so a run
whose operations failed still reports what it attempted.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.serving import RequestOutcome
from repro.telemetry import Histogram

# A percentile is reported only when at least this many samples lie beyond
# it; otherwise the tail it claims to describe is a handful of requests.
MIN_BEYOND = 10


@dataclass(frozen=True)
class Percentile:
    """One percentile of a sample, with the sample it was taken from."""

    q: float
    value: float
    samples: int

    @property
    def beyond(self) -> int:
        """Samples ranked above the percentile (the tail it summarises)."""
        return self.samples - math.ceil(self.samples * self.q / 100.0)


def percentile(values: Iterable[float], q: float,
               min_beyond: int = MIN_BEYOND) -> Percentile:
    """The ``q``-th percentile (0-100) of ``values`` with its sample count.

    The value is :meth:`repro.telemetry.Histogram.percentile` (linear
    interpolation, the repo's one quantile implementation).  It is NaN
    when fewer than ``min_beyond`` samples lie beyond the percentile, so a
    p90 needs at least 100 samples.
    """
    values = [float(v) for v in values]
    result = Percentile(q=float(q), value=float("nan"), samples=len(values))
    if result.beyond < min_beyond:
        return result
    return Percentile(q=result.q, value=Histogram.of(values).percentile(q),
                      samples=result.samples)


def mean(values: Iterable[float]) -> float:
    """The mean of ``values``; NaN when there are none."""
    values = list(values)
    return statistics.fmean(values) if values else float("nan")


def median(values: Iterable[float]) -> float:
    """The median of ``values``; NaN when there are none."""
    values = list(values)
    return statistics.median(values) if values else float("nan")


def tpot(outcome: RequestOutcome) -> Optional[float]:
    """Time per output token after the first, in seconds.

    ``(finish - first_token) / (tokens - 1)``: every gap between tokens of
    the request counts, so a decode step stalled behind co-scheduled
    prefills lengthens it.  ``None`` for a request with fewer than two
    tokens or no first-token time.
    """
    if outcome.first_token_time is None or outcome.decode_tokens < 2:
        return None
    return (outcome.finish_time - outcome.first_token_time) / \
        (outcome.decode_tokens - 1)

