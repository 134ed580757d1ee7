"""How reps are reduced to one number."""

from __future__ import annotations

from statistics import quantiles
from typing import List


def steady(values: List[float]) -> float:
    """The lower quartile: what reps are reduced to.

    Interference on a shared VM only ever slows a rep down, in bursts of
    0.1-15 s that can cover half a run.  Under such bursts the lower
    quartile of 5-13 reps moved 2.5-3.5% between runs where the median
    moved 6% (README, "Bounds"); on a quiet machine the two agree to
    within 2%.  min, median and max are printed beside it.
    """
    if len(values) < 2:
        return values[0]
    return quantiles(values, n=4, method="inclusive")[0]


def percentile(values: List[float], fraction: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]
