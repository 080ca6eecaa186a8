"""Bounded-memory streaming metric accumulators.

The exact metrics pipeline keeps every per-request sample in Python
lists, which makes collector memory O(requests) and caps the feasible
trace horizon.  This module provides the streaming alternative:

* :class:`StreamingStat` — count/sum/min/max moments in O(1) memory.
* :class:`QuantileSketch` — a DDSketch-style log-bucketed quantile
  sketch with a configurable relative-accuracy guarantee.  Buckets are
  mergeable by index, so sketches from parallel sweep shards combine
  associatively; the bucket table is capped (lowest buckets collapse
  first), so memory stays bounded regardless of sample count.

The sketch exposes the same read API as
:class:`~repro.metrics.cdf.Cdf` (``percentile`` / ``median`` / ``mean``
/ ``fraction_below`` / ``curve`` / ``empty`` / ``len``), so report
consumers are mode-agnostic.  It is streaming mode's sample store, and
the TTFT store of its request ledger (:mod:`repro.metrics.ledger`).

Accuracy: a value inserted into the sketch lands in a bucket whose
midpoint estimate is within ``alpha`` relative error of the true value
(default 0.5 %).  Percentiles interpolate between bucket estimates with
the same fractional-rank rule NumPy's ``percentile`` uses, so streaming
percentiles track exact ones to within ``alpha`` (plus nothing else) as
long as the bucket cap is not hit; collapsing only degrades the *lowest*
quantiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterator

#: default relative-accuracy target (0.5 % — comfortably inside the 1 %
#: cross-check tolerance against exact percentiles)
DEFAULT_ALPHA = 0.005

#: default cap on log-buckets; ~4k buckets at alpha=0.005 span >17
#: decades of dynamic range, far beyond any latency/utilization metric
DEFAULT_MAX_BINS = 4096

#: values at or below this magnitude land in the dedicated zero bucket
_MIN_TRACKABLE = 1e-12


@dataclass
class StreamingStat:
    """O(1) running moments: count, sum, min, max."""

    count: int = 0
    total: float = 0.0
    minimum: float = math.inf
    maximum: float = -math.inf

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def merge(self, other: "StreamingStat") -> None:
        self.count += other.count
        self.total += other.total
        if other.minimum < self.minimum:
            self.minimum = other.minimum
        if other.maximum > self.maximum:
            self.maximum = other.maximum

    @property
    def mean(self) -> float:
        if self.count == 0:
            raise ValueError("mean of an empty StreamingStat")
        return self.total / self.count

    def encode(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.minimum if self.count else None,
            "max": self.maximum if self.count else None,
        }

    @classmethod
    def decode(cls, payload: dict[str, Any]) -> "StreamingStat":
        stat = cls(count=payload["count"], total=payload["total"])
        if stat.count:
            stat.minimum = payload["min"]
            stat.maximum = payload["max"]
        return stat


class QuantileSketch:
    """A mergeable, bounded-memory quantile sketch over nonnegative samples.

    Buckets are geometric: bucket ``i`` covers ``(gamma**(i-1), gamma**i]``
    with ``gamma = (1+alpha)/(1-alpha)``, so every bucket's midpoint
    estimate ``2*gamma**i/(gamma+1)`` is within ``alpha`` relative error
    of any value it holds.  Values ``<= 1e-12`` (including exact zeros)
    share a dedicated zero bucket.  Exact count/sum/min/max ride along in
    a :class:`StreamingStat`, so ``mean``/extremes carry no sketch error.
    """

    __slots__ = ("alpha", "max_bins", "_log_gamma", "_gamma", "_bins", "_zero_count", "stat")

    def __init__(self, alpha: float = DEFAULT_ALPHA, max_bins: int = DEFAULT_MAX_BINS) -> None:
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        if max_bins < 2:
            raise ValueError("max_bins must be >= 2")
        self.alpha = alpha
        self.max_bins = max_bins
        self._gamma = (1.0 + alpha) / (1.0 - alpha)
        self._log_gamma = math.log(self._gamma)
        self._bins: dict[int, int] = {}
        self._zero_count = 0
        self.stat = StreamingStat()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_values(cls, values, alpha: float = DEFAULT_ALPHA) -> "QuantileSketch":
        sketch = cls(alpha=alpha)
        for value in values:
            sketch.add(float(value))
        return sketch

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def add(self, value: float, count: int = 1) -> None:
        if value < 0.0:
            raise ValueError(f"QuantileSketch holds nonnegative samples, got {value!r}")
        if count <= 0:
            raise ValueError("count must be positive")
        self.stat.count += count
        self.stat.total += value * count
        if value < self.stat.minimum:
            self.stat.minimum = value
        if value > self.stat.maximum:
            self.stat.maximum = value
        if value <= _MIN_TRACKABLE:
            self._zero_count += count
            return
        index = math.ceil(math.log(value) / self._log_gamma)
        self._bins[index] = self._bins.get(index, 0) + count
        if len(self._bins) > self.max_bins:
            self._collapse()

    def merge(self, other: "QuantileSketch") -> None:
        """Fold ``other`` into this sketch (associative, order-insensitive
        for all integer state; float moments sum in call order)."""
        if other.alpha != self.alpha:
            raise ValueError(
                f"cannot merge sketches with different accuracies "
                f"({self.alpha} vs {other.alpha})"
            )
        self._zero_count += other._zero_count
        for index, count in other._bins.items():
            self._bins[index] = self._bins.get(index, 0) + count
        self.stat.merge(other.stat)
        if len(self._bins) > self.max_bins:
            self._collapse()

    def copy(self) -> "QuantileSketch":
        return QuantileSketch.decode(self.encode())

    def _collapse(self) -> None:
        """Collapse the lowest buckets into one; high quantiles keep their
        accuracy guarantee, only the distribution's low tail coarsens."""
        indices = sorted(self._bins)
        overflow = len(indices) - self.max_bins
        if overflow <= 0:
            return
        keep_from = indices[overflow]
        moved = sum(self._bins.pop(index) for index in indices[:overflow])
        self._bins[keep_from] += moved

    # ------------------------------------------------------------------
    # Cdf-compatible read API
    # ------------------------------------------------------------------
    def cdf(self) -> "QuantileSketch":
        """The sample-store read: a sketch is its own distribution."""
        return self

    @property
    def count(self) -> int:
        return self.stat.count

    def __len__(self) -> int:
        return self.stat.count

    @property
    def empty(self) -> bool:
        return self.stat.count == 0

    @property
    def bin_count(self) -> int:
        """Occupied buckets (the bounded-memory witness)."""
        return len(self._bins) + (1 if self._zero_count else 0)

    def _bucket_value(self, index: int) -> float:
        return 2.0 * math.exp(index * self._log_gamma) / (self._gamma + 1.0)

    def _iter_buckets(self) -> Iterator[tuple[float, int]]:
        """(estimate, count) pairs in ascending value order."""
        if self._zero_count:
            yield 0.0, self._zero_count
        for index in sorted(self._bins):
            yield self._bucket_value(index), self._bins[index]

    def percentile(self, q: float) -> float:
        """The q-th percentile (0-100), NumPy 'linear' rank interpolation
        over bucket estimates, clamped to the exact observed extremes."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q!r}")
        if self.empty:
            raise ValueError("percentile of an empty QuantileSketch")
        # The extremes are tracked exactly — answer them without sketch error.
        if q == 0.0:
            return self.stat.minimum
        if q == 100.0:
            return self.stat.maximum
        h = q / 100.0 * (self.stat.count - 1)
        return self._value_at_ranks([h])[0]

    @property
    def median(self) -> float:
        return self.percentile(50.0)

    @property
    def mean(self) -> float:
        if self.empty:
            raise ValueError("mean of an empty QuantileSketch")
        return self.stat.mean

    def fraction_below(self, threshold: float) -> float:
        """P(X <= threshold), resolved at bucket granularity."""
        if self.empty:
            raise ValueError("fraction_below of an empty QuantileSketch")
        if threshold < self.stat.minimum:
            return 0.0
        if threshold >= self.stat.maximum:
            return 1.0
        below = 0
        for value, count in self._iter_buckets():
            if value > threshold:
                break
            below += count
        return below / self.stat.count

    def _value_at_ranks(self, ranks: list[float]) -> list[float]:
        """Interpolated values at ascending fractional ranks, one bucket walk."""
        lo, hi = self.stat.minimum, self.stat.maximum
        buckets = list(self._iter_buckets())
        values: list[float] = []
        cumulative = 0
        position = 0
        for h in ranks:
            floor_rank = math.floor(h)
            ceil_rank = math.ceil(h)
            v_lo = v_hi = None
            while position < len(buckets):
                value, count = buckets[position]
                if v_lo is None and cumulative + count > floor_rank:
                    v_lo = value
                if cumulative + count > ceil_rank:
                    v_hi = value
                    break
                cumulative += count
                position += 1
            assert v_lo is not None and v_hi is not None
            estimate = v_lo if ceil_rank == floor_rank else v_lo + (h - floor_rank) * (v_hi - v_lo)
            values.append(float(min(max(estimate, lo), hi)))
        return values

    def curve(self, points: int = 100) -> list[tuple[float, float]]:
        """(value, cumulative fraction) pairs for plotting/printing.

        One cumulative bucket walk serves every point (the fractions are
        ascending), mirroring the vectorized exact :meth:`Cdf.curve`."""
        if self.empty:
            return []
        step = 100.0 / (points - 1) if points > 1 else 0.0
        qs = [i * step for i in range(points)]
        ranks = [q / 100.0 * (self.stat.count - 1) for q in qs]
        return list(zip(self._value_at_ranks(ranks), [q / 100.0 for q in qs]))

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def encode(self) -> dict[str, Any]:
        return {
            "alpha": self.alpha,
            "max_bins": self.max_bins,
            "zero_count": self._zero_count,
            "bins": [[index, self._bins[index]] for index in sorted(self._bins)],
            "stat": self.stat.encode(),
        }

    @classmethod
    def decode(cls, payload: dict[str, Any]) -> "QuantileSketch":
        sketch = cls(alpha=payload["alpha"], max_bins=payload["max_bins"])
        sketch._zero_count = payload["zero_count"]
        sketch._bins = {int(index): count for index, count in payload["bins"]}
        sketch.stat = StreamingStat.decode(payload["stat"])
        return sketch
