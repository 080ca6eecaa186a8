"""Run reports: the figures' raw material.

A ``RunReport`` holds the finalized requests plus aggregate counters and
derives every metric the paper plots.

Reports come in two metrics modes (see
:mod:`repro.metrics.collector`): ``exact`` retains every request and
sample, ``streaming`` carries bounded counters and quantile sketches
instead.  The derived accessors (counts, rates, ``*_cdf()``) are
mode-agnostic — a streaming ``ttft_cdf()`` returns a
:class:`~repro.metrics.streaming.QuantileSketch`, which answers the same
percentile/mean/fraction_below/curve API as :class:`Cdf`.  Only the raw
per-request views (``requests`` / ``completed``) are exact-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterable, Union

from repro.engine.request import Request, RequestState
from repro.hardware.specs import HardwareKind
from repro.metrics.cdf import Cdf
from repro.metrics.streaming import QuantileSketch, RequestAggregate

#: anything exposing the shared Cdf read API (percentile/mean/curve/...)
Distribution = Union[Cdf, QuantileSketch]


@dataclass(frozen=True)
class OverheadStat:
    count: int
    total_seconds: float
    mean_seconds: float


# Request fields serialized into report JSON, in row order.
_REQUEST_FIELDS: tuple[str, ...] = (
    "req_id",
    "deployment",
    "arrival",
    "input_len",
    "output_len",
    "ttft_slo",
    "tpot_slo",
    "state",
    "grace",
    "tokens_out",
    "prefill_len",
    "first_token_at",
    "finished_at",
    "dropped_at",
    "violation_at",
    "cold_started",
    "migrations",
)


def _request_to_row(request: Request) -> list[Any]:
    row = []
    for name in _REQUEST_FIELDS:
        value = getattr(request, name)
        row.append(value.value if name == "state" else value)
    return row


def _request_from_row(row: list[Any]) -> Request:
    values = dict(zip(_REQUEST_FIELDS, row))
    request = Request(
        req_id=values["req_id"],
        deployment=values["deployment"],
        arrival=values["arrival"],
        input_len=values["input_len"],
        output_len=values["output_len"],
        ttft_slo=values["ttft_slo"],
        tpot_slo=values["tpot_slo"],
    )
    request.state = RequestState(values["state"])
    for name in _REQUEST_FIELDS[8:]:
        setattr(request, name, values[name])
    return request


@dataclass
class RunReport:
    """All measured outcomes of one serving run."""

    system: str
    duration: float
    requests: list[Request]
    node_seconds_cpu: float = 0.0
    node_seconds_gpu: float = 0.0
    decode_tokens_cpu: int = 0
    decode_tokens_gpu: int = 0
    batch_histogram: dict[int, int] = field(default_factory=dict)
    gpu_batch_histogram: dict[int, int] = field(default_factory=dict)
    memory_samples: dict[HardwareKind, list[float]] = field(default_factory=dict)
    kv_utilization_samples: list[float] = field(default_factory=list)
    overhead_stats: dict[str, OverheadStat] = field(default_factory=dict)
    #: per-link interconnect utilization (bytes / busy seconds / peak
    #: concurrency), present in both metrics modes for topologies with
    #: shared links; empty — and omitted from the payload — otherwise.
    link_utilization: dict[str, dict] = field(default_factory=dict)
    scaling_ops: int = 0
    scaling_busy_seconds: float = 0.0
    migrations: int = 0
    evictions: int = 0
    preemptions: int = 0
    cold_starts: int = 0
    # Prefix-sharing counters (``repro.kv``), carried identically in both
    # metrics modes; all 0 — and omitted from the payload — with sharing
    # off, so default fixtures and fingerprints are untouched.
    prefix_lookups: int = 0
    prefix_lookup_tokens: int = 0
    prefix_hit_tokens: int = 0
    shared_block_refs: int = 0
    logical_prompt_blocks: int = 0
    cow_blocks: int = 0
    # Run-cost accounting (set by ServingSystem.finish_run).
    wall_seconds: float = 0.0
    events_processed: int = 0
    # Streaming-mode payload (None/empty in exact mode).
    metrics_mode: str = "exact"
    request_aggregate: RequestAggregate | None = None
    memory_sketches: dict[HardwareKind, QuantileSketch] = field(default_factory=dict)
    kv_utilization_sketch: QuantileSketch | None = None

    # ------------------------------------------------------------------
    # Request outcomes
    # ------------------------------------------------------------------
    @property
    def total_requests(self) -> int:
        if self.request_aggregate is not None:
            return self.request_aggregate.arrivals
        return len(self.requests)

    @property
    def completed(self) -> list[Request]:
        self._require_exact("completed")
        return [r for r in self.requests if r.state is RequestState.COMPLETED]

    def _require_exact(self, what: str) -> None:
        if self.request_aggregate is not None:
            raise RuntimeError(
                f"RunReport.{what} needs per-request data, which streaming "
                f"metrics mode does not retain; use the aggregate accessors "
                f"(counts, rates, *_cdf()) or rerun with metrics='exact'"
            )

    @property
    def completed_count(self) -> int:
        if self.request_aggregate is not None:
            return self.request_aggregate.completed
        return sum(1 for r in self.requests if r.state is RequestState.COMPLETED)

    @property
    def dropped_count(self) -> int:
        if self.request_aggregate is not None:
            return self.request_aggregate.dropped
        return sum(1 for r in self.requests if r.state is RequestState.DROPPED)

    @property
    def slo_met_count(self) -> int:
        if self.request_aggregate is not None:
            return self.request_aggregate.slo_met
        return sum(1 for r in self.requests if r.slo_met)

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
        if self.request_aggregate is not None:
            return self.request_aggregate.ttft
        values = [r.ttft for r in self.requests if r.ttft is not None]
        return Cdf.from_values(values)

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
        if self.metrics_mode == "streaming":
            return self.memory_sketches.get(kind, QuantileSketch())
        return Cdf.from_values(self.memory_samples.get(kind, []))

    def kv_utilization_cdf(self) -> Distribution:
        if self.kv_utilization_sketch is not None:
            return self.kv_utilization_sketch
        return Cdf.from_values(self.kv_utilization_samples)

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

    _KV_SHARING_FIELDS = (
        "prefix_lookups",
        "prefix_lookup_tokens",
        "prefix_hit_tokens",
        "shared_block_refs",
        "logical_prompt_blocks",
        "cow_blocks",
    )

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

        With ``include_volatile=False`` the wall-clock measurements
        (``wall_seconds``, ``overhead_stats``) are omitted: the remainder
        is fully determined by the run's spec and seed, so two runs of
        the same spec — sequential or parallel, cached or fresh —
        serialize to identical bytes.
        """
        payload: dict = {
            "system": self.system,
            "duration": self.duration,
            "requests": [_request_to_row(r) for r in self.requests],
            "node_seconds_cpu": self.node_seconds_cpu,
            "node_seconds_gpu": self.node_seconds_gpu,
            "decode_tokens_cpu": self.decode_tokens_cpu,
            "decode_tokens_gpu": self.decode_tokens_gpu,
            "batch_histogram": sorted(self.batch_histogram.items()),
            "gpu_batch_histogram": sorted(self.gpu_batch_histogram.items()),
            "memory_samples": {
                kind.value: list(samples)
                for kind, samples in sorted(
                    self.memory_samples.items(), key=lambda kv: kv[0].value
                )
            },
            "kv_utilization_samples": list(self.kv_utilization_samples),
            "scaling_ops": self.scaling_ops,
            "scaling_busy_seconds": self.scaling_busy_seconds,
            "migrations": self.migrations,
            "evictions": self.evictions,
            "preemptions": self.preemptions,
            "cold_starts": self.cold_starts,
            "events_processed": self.events_processed,
        }
        # Only topologies with shared links record link utilization, and
        # the key is omitted when empty, so pre-topology payloads (and
        # the golden fixtures) serialize byte-identically.
        if self.link_utilization:
            payload["link_utilization"] = {
                link_id: dict(stats)
                for link_id, stats in sorted(self.link_utilization.items())
            }
        # Prefix-sharing counters only exist when sharing ran, and the
        # key is omitted when all are zero, so unshared payloads (and the
        # golden fixtures) serialize byte-identically.
        if any(getattr(self, name) for name in self._KV_SHARING_FIELDS):
            payload["kv_sharing"] = {
                name: getattr(self, name) for name in self._KV_SHARING_FIELDS
            }
        # Streaming keys appear only in streaming mode, so exact payloads
        # (and their cache fingerprints / golden fixtures) are unchanged.
        if self.metrics_mode != "exact":
            payload["metrics_mode"] = self.metrics_mode
            payload["request_aggregate"] = (
                self.request_aggregate.to_dict() if self.request_aggregate is not None else None
            )
            payload["memory_sketches"] = {
                kind.value: sketch.to_dict()
                for kind, sketch in sorted(
                    self.memory_sketches.items(), key=lambda kv: kv[0].value
                )
            }
            payload["kv_utilization_sketch"] = (
                self.kv_utilization_sketch.to_dict()
                if self.kv_utilization_sketch is not None
                else None
            )
        if include_volatile:
            payload["wall_seconds"] = self.wall_seconds
            payload["overhead_stats"] = {
                name: [stat.count, stat.total_seconds, stat.mean_seconds]
                for name, stat in sorted(self.overhead_stats.items())
            }
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "RunReport":
        overhead_stats = {
            name: OverheadStat(count=row[0], total_seconds=row[1], mean_seconds=row[2])
            for name, row in payload.get("overhead_stats", {}).items()
        }
        kv_sharing = payload.get("kv_sharing", {})
        return cls(
            system=payload["system"],
            duration=payload["duration"],
            requests=[_request_from_row(row) for row in payload["requests"]],
            node_seconds_cpu=payload["node_seconds_cpu"],
            node_seconds_gpu=payload["node_seconds_gpu"],
            decode_tokens_cpu=payload["decode_tokens_cpu"],
            decode_tokens_gpu=payload["decode_tokens_gpu"],
            batch_histogram={int(k): v for k, v in payload["batch_histogram"]},
            gpu_batch_histogram={int(k): v for k, v in payload["gpu_batch_histogram"]},
            memory_samples={
                HardwareKind(kind): list(samples)
                for kind, samples in payload["memory_samples"].items()
            },
            kv_utilization_samples=list(payload["kv_utilization_samples"]),
            overhead_stats=overhead_stats,
            link_utilization={
                link_id: dict(stats)
                for link_id, stats in payload.get("link_utilization", {}).items()
            },
            scaling_ops=payload["scaling_ops"],
            scaling_busy_seconds=payload["scaling_busy_seconds"],
            migrations=payload["migrations"],
            evictions=payload["evictions"],
            preemptions=payload["preemptions"],
            cold_starts=payload["cold_starts"],
            prefix_lookups=kv_sharing.get("prefix_lookups", 0),
            prefix_lookup_tokens=kv_sharing.get("prefix_lookup_tokens", 0),
            prefix_hit_tokens=kv_sharing.get("prefix_hit_tokens", 0),
            shared_block_refs=kv_sharing.get("shared_block_refs", 0),
            logical_prompt_blocks=kv_sharing.get("logical_prompt_blocks", 0),
            cow_blocks=kv_sharing.get("cow_blocks", 0),
            wall_seconds=payload.get("wall_seconds", 0.0),
            events_processed=payload["events_processed"],
            metrics_mode=payload.get("metrics_mode", "exact"),
            request_aggregate=(
                RequestAggregate.from_dict(payload["request_aggregate"])
                if payload.get("request_aggregate") is not None
                else None
            ),
            memory_sketches={
                HardwareKind(kind): QuantileSketch.from_dict(sketch)
                for kind, sketch in payload.get("memory_sketches", {}).items()
            },
            kv_utilization_sketch=(
                QuantileSketch.from_dict(payload["kv_utilization_sketch"])
                if payload.get("kv_utilization_sketch") is not None
                else None
            ),
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
    streaming = first.metrics_mode == "streaming"

    merged_aggregate = None
    merged_memory: dict[HardwareKind, QuantileSketch] = {}
    merged_kv = None
    if streaming:
        merged_aggregate = RequestAggregate()
        merged_kv = QuantileSketch()
        for report in reports:
            if report.request_aggregate is not None:
                merged_aggregate.merge(report.request_aggregate)
            if report.kv_utilization_sketch is not None:
                merged_kv.merge(report.kv_utilization_sketch)
            for kind, sketch in report.memory_sketches.items():
                merged_memory.setdefault(kind, QuantileSketch()).merge(sketch)

    batch_histogram: dict[int, int] = {}
    gpu_batch_histogram: dict[int, int] = {}
    memory_samples: dict[HardwareKind, list[float]] = {}
    kv_samples: list[float] = []
    overheads: dict[str, list[float]] = {}
    link_utilization: dict[str, dict] = {}
    for report in reports:
        for link_id, stats in report.link_utilization.items():
            merged = link_utilization.setdefault(
                link_id,
                {
                    "kind": stats.get("kind", ""),
                    "bytes": 0.0,
                    "busy_seconds": 0.0,
                    "transfers": 0,
                    "max_concurrent": 0,
                },
            )
            merged["bytes"] += stats.get("bytes", 0.0)
            merged["busy_seconds"] += stats.get("busy_seconds", 0.0)
            merged["transfers"] += stats.get("transfers", 0)
            merged["max_concurrent"] = max(
                merged["max_concurrent"], stats.get("max_concurrent", 0)
            )
    for report in reports:
        for batch, count in report.batch_histogram.items():
            batch_histogram[batch] = batch_histogram.get(batch, 0) + count
        for batch, count in report.gpu_batch_histogram.items():
            gpu_batch_histogram[batch] = gpu_batch_histogram.get(batch, 0) + count
        for kind, samples in report.memory_samples.items():
            memory_samples.setdefault(kind, []).extend(samples)
        kv_samples.extend(report.kv_utilization_samples)
        for name, stat in report.overhead_stats.items():
            overheads.setdefault(name, [0, 0.0])
            overheads[name][0] += stat.count
            overheads[name][1] += stat.total_seconds
    overhead_stats = {
        name: OverheadStat(
            count=count,
            total_seconds=total,
            mean_seconds=total / count if count else 0.0,
        )
        for name, (count, total) in overheads.items()
    }

    return RunReport(
        system=first.system,
        duration=math.fsum(report.duration for report in reports),
        requests=[request for report in reports for request in report.requests],
        node_seconds_cpu=math.fsum(report.node_seconds_cpu for report in reports),
        node_seconds_gpu=math.fsum(report.node_seconds_gpu for report in reports),
        decode_tokens_cpu=sum(report.decode_tokens_cpu for report in reports),
        decode_tokens_gpu=sum(report.decode_tokens_gpu for report in reports),
        batch_histogram=batch_histogram,
        gpu_batch_histogram=gpu_batch_histogram,
        memory_samples=memory_samples,
        kv_utilization_samples=kv_samples,
        overhead_stats=overhead_stats,
        link_utilization=link_utilization,
        scaling_ops=sum(report.scaling_ops for report in reports),
        scaling_busy_seconds=math.fsum(report.scaling_busy_seconds for report in reports),
        migrations=sum(report.migrations for report in reports),
        evictions=sum(report.evictions for report in reports),
        preemptions=sum(report.preemptions for report in reports),
        cold_starts=sum(report.cold_starts for report in reports),
        prefix_lookups=sum(report.prefix_lookups for report in reports),
        prefix_lookup_tokens=sum(report.prefix_lookup_tokens for report in reports),
        prefix_hit_tokens=sum(report.prefix_hit_tokens for report in reports),
        shared_block_refs=sum(report.shared_block_refs for report in reports),
        logical_prompt_blocks=sum(report.logical_prompt_blocks for report in reports),
        cow_blocks=sum(report.cow_blocks for report in reports),
        wall_seconds=math.fsum(report.wall_seconds for report in reports),
        events_processed=sum(report.events_processed for report in reports),
        metrics_mode=first.metrics_mode,
        request_aggregate=merged_aggregate,
        memory_sketches=merged_memory,
        kv_utilization_sketch=merged_kv,
    )
