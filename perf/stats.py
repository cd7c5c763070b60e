"""Honest-statistics helpers: raw-sample percentiles and median-of-windows.

Every percentile here is taken from the raw samples ``perf/`` kept, never
from histogram buckets, and carries its sample count.  A percentile is
*refused* (``None``) unless at least :data:`MIN_BEYOND` samples lie beyond
it — the rule that keeps a p99.9 from being one outlier's latency.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Sequence

#: samples that must lie beyond a percentile for it to be reported
MIN_BEYOND = 10

#: shortest measured window whose timings are reported (``--fast`` waives it)
MIN_WINDOW_S = 5.0


def percentile(
    sorted_samples: Sequence[float], q: float, min_beyond: int = MIN_BEYOND
) -> Optional[float]:
    """The ``q``-quantile (0 < q < 1) of already-sorted raw samples by
    linear interpolation, or ``None`` when fewer than ``min_beyond``
    samples lie beyond it."""
    n = len(sorted_samples)
    if n * (1.0 - q) < min_beyond or n * q < 1:
        return None
    pos = q * (n - 1)
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    frac = pos - lo
    return sorted_samples[lo] * (1.0 - frac) + sorted_samples[hi] * frac


class Spread:
    """One metric measured several times — across a workload's windows or
    a microbench's repeats: the median is the value, and it is printed
    with the min and max it was taken from."""

    __slots__ = ("values", "samples", "what")

    def __init__(self, values: Sequence[float], samples: int = 0, what: str = "windows") -> None:
        self.values = list(values)
        #: raw samples behind the value, summed over the windows
        self.samples = samples
        self.what = what

    @property
    def median(self) -> float:
        return statistics.median(self.values)

    def fmt(self, name: str, unit: str) -> str:
        samples = f"n={self.samples:<7} " if self.samples else ""
        return (
            f"  {name:<34} {self.median:>14.4f} {unit:<6} {samples}"
            f"min={min(self.values):.4f} max={max(self.values):.4f} "
            f"{self.what}={len(self.values)}"
        )


def across_windows(
    windows: List[Dict[str, Optional[float]]], counts: List[Dict[str, int]]
) -> Dict[str, Optional[Spread]]:
    """Fold per-window metric dicts into one :class:`Spread` per name.  A
    metric any window refused (``None``) is refused for the workload."""
    out: Dict[str, Optional[Spread]] = {}
    for name in windows[0]:
        values = [w[name] for w in windows]
        if any(v is None for v in values):
            out[name] = None
            continue
        out[name] = Spread(values, sum(c.get(name, 1) for c in counts))
    return out
