"""Run reports: the figures' raw material.

A ``RunReport`` holds a run's outcome ledger, sample stores and
counters, and derives every metric the paper plots.

The accumulators' types are the metrics mode (see
:mod:`repro.metrics.ledger`), but they answer the same calls, so the
derived accessors (counts, rates, ``*_cdf()``) and
:func:`merge_run_reports` never branch on it: a streaming ``ttft_cdf()``
returns a :class:`~repro.metrics.streaming.QuantileSketch`, which
answers the same percentile/mean/fraction_below/curve API as
:class:`Cdf`.  Only the raw per-request views (``requests`` /
``completed``) are exact-only, and only the payload codec reads the mode.

Every additive per-run scalar is declared once, as a field of
:class:`RunCounters` (the operation counters the collector accumulates)
or :class:`RunTotals` (the report-only sums).  ``to_dict``,
``from_dict`` and :func:`merge_run_reports` iterate those fields, so a
new counter is one field: it is serialized, restored and merged (ints
with ``sum``, floats with ``math.fsum``) without further edits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Any, Iterable, Union

from repro.engine.request import Request
from repro.hardware.specs import HardwareKind
from repro.metrics.cdf import Cdf
from repro.metrics.ledger import ACCUMULATORS, ExactLedger, Ledger, SampleList, SampleStore
from repro.metrics.streaming import QuantileSketch

#: anything exposing the shared Cdf read API (percentile/mean/curve/...)
Distribution = Union[Cdf, QuantileSketch]

#: payload group of the prefix-sharing counters: nested under this key,
#: and omitted while all are zero, so unshared payloads (and the golden
#: fixtures) never carry it
KV_SHARING = "kv_sharing"
#: group of wall-clock measurements, which ``to_dict(include_volatile=False)``
#: omits so the rest of the payload is determined by the spec and seed
VOLATILE = "volatile"
_KV = {"group": KV_SHARING}


@dataclass(kw_only=True)
class RunCounters:
    """The run's operation counters (§VII/§VIII), declared once.

    :class:`~repro.metrics.collector.MetricsCollector` accumulates them
    and :class:`RunReport` carries them.  A field's type is its merge
    rule and its ``metadata["group"]`` (if any) its payload group.
    """

    scaling_ops: int = 0
    scaling_busy_seconds: float = 0.0
    migrations: int = 0
    evictions: int = 0  # §VII-D underestimation evictions only
    preemptions: int = 0
    cold_starts: int = 0
    # Prefix-sharing counters (``repro.kv``), carried identically in both
    # metrics modes; all 0 with sharing off.
    prefix_lookups: int = field(default=0, metadata=_KV)
    prefix_lookup_tokens: int = field(default=0, metadata=_KV)
    prefix_hit_tokens: int = field(default=0, metadata=_KV)
    shared_block_refs: int = field(default=0, metadata=_KV)
    logical_prompt_blocks: int = field(default=0, metadata=_KV)
    cow_blocks: int = field(default=0, metadata=_KV)


@dataclass(kw_only=True)
class RunTotals(RunCounters):
    """The report's other additive scalars, merged like the counters."""

    node_seconds_cpu: float = 0.0
    node_seconds_gpu: float = 0.0
    decode_tokens_cpu: int = 0
    decode_tokens_gpu: int = 0
    # Run-cost accounting (set by ServingSystem.finish_run).
    events_processed: int = 0
    wall_seconds: float = field(default=0.0, metadata={"group": VOLATILE})


_SCALARS = fields(RunTotals)
# The annotations are strings (``from __future__ import annotations``);
# a scalar of any other type fails here, at import.
_MERGE_RULES = {f.name: {"int": sum, "float": math.fsum}[f.type] for f in _SCALARS}


def _group(group: str | None) -> tuple[str, ...]:
    return tuple(f.name for f in _SCALARS if f.metadata.get("group") == group)


#: per-link utilization sums a shard merge adds up (with their zeros)
_LINK_SUMS = {"bytes": 0.0, "busy_seconds": 0.0, "transfers": 0}

#: payload keys of each mode's accumulators: (ledger, memory stores, KV store)
_PAYLOAD_KEYS = {
    "exact": ("requests", "memory_samples", "kv_utilization_samples"),
    "streaming": ("request_aggregate", "memory_sketches", "kv_utilization_sketch"),
}


@dataclass(frozen=True)
class OverheadStat:
    """Wall-clock cost of one instrumented section over a run."""

    count: int
    total_seconds: float

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.count if self.count else 0.0

    @staticmethod
    def encode(stats: dict[str, "OverheadStat"]) -> dict[str, list]:
        """Payload rows ``[count, total_seconds, mean_seconds]``, by name."""
        return {
            name: [stat.count, stat.total_seconds, stat.mean_seconds]
            for name, stat in sorted(stats.items())
        }

    @classmethod
    def decode(cls, rows: dict[str, list]) -> dict[str, "OverheadStat"]:
        """Inverse of :meth:`encode` (the stored mean is derived, not read)."""
        return {name: cls(count=row[0], total_seconds=row[1]) for name, row in rows.items()}


@dataclass
class RunReport(RunTotals):
    """All measured outcomes of one serving run."""

    system: str
    duration: float
    #: request outcomes: the counts, the TTFTs and (exact mode) every request
    outcomes: Ledger = field(default_factory=ExactLedger)
    batch_histogram: dict[int, int] = field(default_factory=dict)
    gpu_batch_histogram: dict[int, int] = field(default_factory=dict)
    memory_samples: dict[HardwareKind, SampleStore] = field(default_factory=dict)
    kv_utilization_samples: SampleStore = field(default_factory=SampleList)
    overhead_stats: dict[str, OverheadStat] = field(default_factory=dict)
    #: per-link interconnect utilization (bytes / busy seconds / peak
    #: concurrency), present in both metrics modes for topologies with
    #: shared links; empty — and omitted from the payload — otherwise.
    link_utilization: dict[str, dict] = field(default_factory=dict)

    @property
    def metrics_mode(self) -> str:
        return self.outcomes.mode

    # ------------------------------------------------------------------
    # Request outcomes
    # ------------------------------------------------------------------
    @property
    def requests(self) -> list[Request]:
        """Every request of the run (exact mode; streaming retains none)."""
        return self.outcomes.requests

    @property
    def completed(self) -> list[Request]:
        """Completed requests (exact mode; streaming raises RuntimeError)."""
        return self.outcomes.completed_requests()

    @property
    def total_requests(self) -> int:
        return self.outcomes.arrivals

    @property
    def completed_count(self) -> int:
        return self.outcomes.completed

    @property
    def dropped_count(self) -> int:
        return self.outcomes.dropped

    @property
    def slo_met_count(self) -> int:
        return self.outcomes.slo_met

    @property
    def slo_rate(self) -> float:
        total = self.total_requests
        if not total:
            return 0.0
        return self.slo_met_count / total

    @property
    def slo_miss_rate(self) -> float:
        return 1.0 - self.slo_rate

    def ttft_cdf(self) -> Distribution:
        """TTFT of requests that produced a first token (Fig. 22 left)."""
        return self.outcomes.ttft_cdf()

    # ------------------------------------------------------------------
    # Resource usage
    # ------------------------------------------------------------------
    @property
    def avg_nodes_used_cpu(self) -> float:
        return self.node_seconds_cpu / self.duration if self.duration else 0.0

    @property
    def avg_nodes_used_gpu(self) -> float:
        return self.node_seconds_gpu / self.duration if self.duration else 0.0

    @property
    def decode_speed_cpu(self) -> float:
        """Decode tokens per CPU-node-second (Fig. 22 'Decode Speed')."""
        if self.node_seconds_cpu <= 0:
            return 0.0
        return self.decode_tokens_cpu / self.node_seconds_cpu

    @property
    def decode_speed_gpu(self) -> float:
        if self.node_seconds_gpu <= 0:
            return 0.0
        return self.decode_tokens_gpu / self.node_seconds_gpu

    # ------------------------------------------------------------------
    # Efficiency (Fig. 25)
    # ------------------------------------------------------------------
    def memory_utilization_cdf(self, kind: HardwareKind = HardwareKind.GPU) -> Distribution:
        store = self.memory_samples.get(kind)
        return Cdf.from_values(()) if store is None else store.cdf()

    def kv_utilization_cdf(self) -> Distribution:
        return self.kv_utilization_samples.cdf()

    @property
    def mean_kv_utilization(self) -> float:
        """Mean sampled KV utilization, 0.0 when never sampled (Fig. 31)."""
        cdf = self.kv_utilization_cdf()
        return 0.0 if cdf.empty else cdf.mean

    def batch_size_cdf(self) -> Cdf:
        values: list[float] = []
        for batch, count in self.batch_histogram.items():
            values.extend([float(batch)] * count)
        return Cdf.from_values(values)

    @property
    def mean_batch_size(self) -> float:
        return self._mean_of(self.batch_histogram)

    @property
    def mean_gpu_batch_size(self) -> float:
        """Average decode batch on GPU nodes only (Fig. 25's comparison)."""
        return self._mean_of(self.gpu_batch_histogram)

    @staticmethod
    def _mean_of(histogram: dict[int, int]) -> float:
        total = sum(histogram.values())
        if total == 0:
            return 0.0
        weighted = sum(batch * count for batch, count in histogram.items())
        return weighted / total

    # ------------------------------------------------------------------
    # Interconnect (topology runs)
    # ------------------------------------------------------------------
    def link_busy_fraction(self, link_id: str) -> float:
        """Share of the trace window a link spent with ≥1 active transfer."""
        stats = self.link_utilization.get(link_id)
        if stats is None or self.duration <= 0:
            return 0.0
        return min(1.0, stats.get("busy_seconds", 0.0) / self.duration)

    @property
    def link_bytes_total(self) -> float:
        """Bytes moved across all tracked links (loads + KV migrations)."""
        return math.fsum(
            stats.get("bytes", 0.0) for stats in self.link_utilization.values()
        )

    # ------------------------------------------------------------------
    # Prefix sharing (``kv_sharing="on"`` runs)
    # ------------------------------------------------------------------
    @property
    def prefix_hit_rate(self) -> float:
        """Prompt tokens served from the prefix cache / tokens looked up."""
        if self.prefix_lookup_tokens <= 0:
            return 0.0
        return self.prefix_hit_tokens / self.prefix_lookup_tokens

    @property
    def shared_block_ratio(self) -> float:
        """Prompt blocks satisfied by shared references / logical blocks."""
        if self.logical_prompt_blocks <= 0:
            return 0.0
        return self.shared_block_refs / self.logical_prompt_blocks

    @property
    def scaling_time_fraction(self) -> float:
        """Share of instance lifetime spent resizing KV (Fig. 31 overhead)."""
        busy = self.node_seconds_cpu + self.node_seconds_gpu
        if busy <= 0:
            return 0.0
        return self.scaling_busy_seconds / busy

    # ------------------------------------------------------------------
    # Presentation
    # ------------------------------------------------------------------
    def summary_line(self, system: str | None = None) -> str:
        """One line of headline figures, labelled ``system`` (default: the
        report's bundle name, which a parametrised system such as
        ``neo+{C}`` shares across its variants)."""
        return (
            f"{system or self.system:>12s}: req={self.total_requests:5d} "
            f"slo_met={self.slo_met_count:5d} ({100 * self.slo_rate:5.1f}%) "
            f"dropped={self.dropped_count:4d} "
            f"nodes(cpu/gpu)={self.avg_nodes_used_cpu:.1f}/{self.avg_nodes_used_gpu:.1f} "
            f"decode(tok/node·s cpu/gpu)={self.decode_speed_cpu:.0f}/{self.decode_speed_gpu:.0f}"
        )

    def timing_line(self) -> str:
        """Run cost: simulated events processed per wall-clock second."""
        rate = self.events_processed / self.wall_seconds if self.wall_seconds > 0 else 0.0
        return (
            f"wall={self.wall_seconds:.2f}s "
            f"events={self.events_processed} ({rate:,.0f} ev/s)"
        )

    # ------------------------------------------------------------------
    # Serialization (sweep cache / figure re-renders)
    # ------------------------------------------------------------------
    def to_dict(self, include_volatile: bool = True) -> dict:
        """A JSON-safe dict that round-trips through :meth:`from_dict`.

        With ``include_volatile=False`` the wall-clock measurements (the
        :data:`VOLATILE` scalars and ``overhead_stats``) are omitted: the
        remainder is fully determined by the run's spec and seed, so two
        runs of the same spec — sequential or parallel, cached or fresh —
        serialize to identical bytes.
        """
        payload: dict = {
            "system": self.system,
            "duration": self.duration,
            "requests": [],
            "batch_histogram": sorted(self.batch_histogram.items()),
            "gpu_batch_histogram": sorted(self.gpu_batch_histogram.items()),
            "memory_samples": {},
            "kv_utilization_samples": [],
        }
        payload.update((name, getattr(self, name)) for name in _group(None))
        # Only topologies with shared links record link utilization, and
        # the key is omitted when empty, so pre-topology payloads (and
        # the golden fixtures) serialize byte-identically.
        if self.link_utilization:
            payload["link_utilization"] = {
                link_id: dict(stats)
                for link_id, stats in sorted(self.link_utilization.items())
            }
        kv_sharing = {name: getattr(self, name) for name in _group(KV_SHARING)}
        if any(kv_sharing.values()):
            payload[KV_SHARING] = kv_sharing
        # The codec's one mode dispatch.  Exact payloads predate the mode
        # key; streaming payloads keep the exact keys, empty.
        mode = self.metrics_mode
        if mode != "exact":
            payload["metrics_mode"] = mode
        ledger_key, memory_key, kv_key = _PAYLOAD_KEYS[mode]
        payload[ledger_key] = self.outcomes.encode()
        payload[memory_key] = {
            kind.value: store.encode()
            for kind, store in sorted(self.memory_samples.items(), key=lambda kv: kv[0].value)
        }
        payload[kv_key] = self.kv_utilization_samples.encode()
        if include_volatile:
            payload.update((name, getattr(self, name)) for name in _group(VOLATILE))
            payload["overhead_stats"] = OverheadStat.encode(self.overhead_stats)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "RunReport":
        mode = payload.get("metrics_mode", "exact")
        ledger, samples = ACCUMULATORS[mode]
        ledger_key, memory_key, kv_key = _PAYLOAD_KEYS[mode]
        kv_sharing = payload.get(KV_SHARING, {})
        scalars = {}
        for f in _SCALARS:
            group = f.metadata.get("group")
            if group is None:
                scalars[f.name] = payload[f.name]
            else:
                source = kv_sharing if group == KV_SHARING else payload
                scalars[f.name] = source.get(f.name, f.default)
        return cls(
            system=payload["system"],
            duration=payload["duration"],
            outcomes=ledger.decode(payload[ledger_key]),
            batch_histogram={int(k): v for k, v in payload["batch_histogram"]},
            gpu_batch_histogram={int(k): v for k, v in payload["gpu_batch_histogram"]},
            memory_samples={
                HardwareKind(kind): samples.decode(store)
                for kind, store in payload[memory_key].items()
            },
            kv_utilization_samples=samples.decode(payload[kv_key]),
            overhead_stats=OverheadStat.decode(payload.get("overhead_stats", {})),
            link_utilization={
                link_id: dict(stats)
                for link_id, stats in payload.get("link_utilization", {}).items()
            },
            **scalars,
        )


def merge_run_reports(reports: Iterable["RunReport"]) -> "RunReport":
    """Combine reports from shards of one logical run into a single report.

    Counters, durations, node-seconds, histograms, and overhead stats
    sum; quantile sketches merge bucket-wise — an associative operation,
    so a parallel :class:`~repro.runner.executor.SweepExecutor` can fold
    shard results in any grouping and reach the same aggregate (integer
    state is bit-identical; float sums agree to rounding).

    All shards must share one metrics mode.  Exact shards merge by
    concatenating their request lists — legal, but memory stays
    O(requests); the long-horizon path is streaming shards, whose merge
    stays O(sketch buckets).
    """
    reports = list(reports)
    if not reports:
        raise ValueError("merge_run_reports needs at least one report")
    modes = {report.metrics_mode for report in reports}
    if len(modes) > 1:
        raise ValueError(f"cannot merge reports with mixed metrics modes: {sorted(modes)}")
    first = reports[0]
    outcomes = type(first.outcomes)()
    # Either mode's store type; each merges only stores of its own type.
    kv_samples: Any = type(first.kv_utilization_samples)()
    memory_samples: dict[HardwareKind, Any] = {}
    batch_histogram: dict[int, int] = {}
    gpu_batch_histogram: dict[int, int] = {}
    overhead_stats: dict[str, OverheadStat] = {}
    link_utilization: dict[str, dict] = {}
    for report in reports:
        for link_id, stats in report.link_utilization.items():
            merged = link_utilization.setdefault(
                link_id, {"kind": stats.get("kind", ""), **_LINK_SUMS, "max_concurrent": 0}
            )
            for key, zero in _LINK_SUMS.items():
                merged[key] += stats.get(key, zero)
            merged["max_concurrent"] = max(merged["max_concurrent"], stats.get("max_concurrent", 0))
        outcomes.merge(report.outcomes)
        kv_samples.merge(report.kv_utilization_samples)
        for kind, store in report.memory_samples.items():
            memory_samples.setdefault(kind, type(store)()).merge(store)
        for batch, count in report.batch_histogram.items():
            batch_histogram[batch] = batch_histogram.get(batch, 0) + count
        for batch, count in report.gpu_batch_histogram.items():
            gpu_batch_histogram[batch] = gpu_batch_histogram.get(batch, 0) + count
        for name, stat in report.overhead_stats.items():
            seen = overhead_stats.get(name, OverheadStat(count=0, total_seconds=0.0))
            overhead_stats[name] = OverheadStat(
                count=seen.count + stat.count,
                total_seconds=seen.total_seconds + stat.total_seconds,
            )

    return RunReport(
        system=first.system,
        duration=math.fsum(report.duration for report in reports),
        outcomes=outcomes,
        batch_histogram=batch_histogram,
        gpu_batch_histogram=gpu_batch_histogram,
        memory_samples=memory_samples,
        kv_utilization_samples=kv_samples,
        overhead_stats=overhead_stats,
        link_utilization=link_utilization,
        **{name: rule(getattr(r, name) for r in reports) for name, rule in _MERGE_RULES.items()},
    )
