"""Run-time metrics collection.

The collector is driven by the serving systems: they report request
outcomes, instance load/unload transitions (for the nodes-used integral),
decode tokens (for per-node decode speed), periodic memory-utilization
samples, batch sizes at each decode iteration, and wall-clock scheduling
overheads (Fig. 33 measures the real cost of our scheduler code).

Two accumulation modes:

* ``exact`` (default) — per-request objects and per-sample lists are
  retained, so reports serialize losslessly and byte-identically to the
  golden fixtures.  Memory is O(requests).
* ``streaming`` — request outcomes fold into
  :class:`~repro.metrics.streaming.RequestAggregate` counters the moment
  a request finishes, and memory/KV samples feed bounded
  :class:`~repro.metrics.streaming.QuantileSketch` instances.  Memory is
  O(in-flight requests + sketch buckets), independent of trace horizon —
  the regime the long-horizon scenarios need.

Either way, scheduling overheads accumulate as running count/sum/min/max
(:class:`~repro.metrics.streaming.StreamingStat`): the report only ever
derived count/total/mean from them, so keeping the raw per-call list was
pure O(iterations) overhead.

The operation counters (scale ops, migrations, evictions, preemptions,
cold starts, prefix sharing) are not declared here: the collector
inherits them from :class:`~repro.metrics.report.RunCounters`, the same
table the report carries, and ``finalize`` copies them field by field.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field, fields

from repro.engine.request import Request
from repro.hardware.specs import HardwareKind
from repro.metrics.report import OverheadStat, RunCounters, RunReport
from repro.metrics.streaming import QuantileSketch, RequestAggregate, StreamingStat

#: recognised collector modes
METRICS_MODES = ("exact", "streaming")


@dataclass
class _NodeActivity:
    """Tracks the time-intervals during which a node has ≥1 loaded instance.

    Reading the busy integral never mutates state (the open interval, if
    any, is clipped on the fly), so finalizing a run twice yields
    byte-identical reports and the activity keeps accepting load/unload
    events afterwards.
    """

    kind: HardwareKind
    loaded_instances: int = 0
    busy_since: float | None = None
    intervals: list[tuple[float, float]] = field(default_factory=list)

    def on_load(self, now: float) -> None:
        if self.loaded_instances == 0:
            self.busy_since = now
        self.loaded_instances += 1

    def on_unload(self, now: float) -> None:
        if self.loaded_instances <= 0:
            raise RuntimeError("unload without a matching load")
        self.loaded_instances -= 1
        if self.loaded_instances == 0:
            self.intervals.append((self.busy_since, now))
            self.busy_since = None

    def busy_seconds(self, horizon: float, now: float) -> float:
        """Busy time clipped to the trace window [0, horizon] so the
        nodes-used average is comparable across systems (drain-period work
        caused by late arrivals is not double-counted).  The still-open
        interval (if any) is counted up to ``now`` without closing it."""
        intervals = self.intervals
        if self.busy_since is not None:
            intervals = intervals + [(self.busy_since, now)]
        # fsum: exact and permutation-invariant, so the busy integral is
        # independent of interval accumulation order (shard merges fold
        # these into cross-run sums).
        return math.fsum(
            max(0.0, min(end, horizon) - min(start, horizon)) for start, end in intervals
        )


@dataclass
class MetricsCollector(RunCounters):
    """Accumulates everything a RunReport needs.

    The operation counters are the inherited :class:`RunCounters`
    fields, which policies, observers and the KV store increment, and
    :meth:`finalize` copies into the report by iterating them.
    """

    mode: str = "exact"
    requests: list[Request] = field(default_factory=list)
    _nodes: dict[str, _NodeActivity] = field(default_factory=dict)
    decode_tokens: dict[HardwareKind, int] = field(
        default_factory=lambda: defaultdict(int)
    )
    batch_histogram: dict[int, int] = field(default_factory=lambda: defaultdict(int))
    gpu_batch_histogram: dict[int, int] = field(default_factory=lambda: defaultdict(int))
    memory_samples: dict[HardwareKind, list[float]] = field(
        default_factory=lambda: defaultdict(list)
    )
    kv_utilization_samples: list[float] = field(default_factory=list)
    overheads: dict[str, StreamingStat] = field(
        default_factory=lambda: defaultdict(StreamingStat)
    )
    #: per-link utilization (bytes, busy seconds, peak concurrency) from
    #: the topology's bandwidth tracker; recorded once at run end, only
    #: for topologies with shared (contendable) links, in both metrics
    #: modes — the payload is bounded by the link count.
    link_stats: dict[str, dict] = field(default_factory=dict)
    # Streaming-mode state (unused in exact mode).
    _pending: dict[int, Request] = field(default_factory=dict, repr=False)
    _aggregate: RequestAggregate | None = field(default=None, repr=False)
    _memory_sketches: dict[HardwareKind, QuantileSketch] | None = field(
        default=None, repr=False
    )
    _kv_sketch: QuantileSketch | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.mode not in METRICS_MODES:
            raise ValueError(
                f"unknown metrics mode {self.mode!r} (known: {', '.join(METRICS_MODES)})"
            )
        if self.streaming:
            self._aggregate = RequestAggregate()
            self._memory_sketches = defaultdict(QuantileSketch)
            self._kv_sketch = QuantileSketch()

    @property
    def streaming(self) -> bool:
        return self.mode == "streaming"

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    def register_request(self, request: Request) -> None:
        if not self.streaming:
            self.requests.append(request)
            return
        self._aggregate.arrivals += 1
        self._pending[request.req_id] = request

    def request_finished(self, request: Request) -> None:
        """Streaming mode: fold a finished request's outcome and release it.

        A no-op in exact mode (the retained object carries its outcome)
        and for requests already folded — the fold happens exactly once.
        """
        if not self.streaming:
            return
        if self._pending.pop(request.req_id, None) is None:
            return
        self._aggregate.fold(request)

    # ------------------------------------------------------------------
    # Node activity
    # ------------------------------------------------------------------
    def node_loaded(self, node_id: str, kind: HardwareKind, now: float) -> None:
        if node_id not in self._nodes:
            self._nodes[node_id] = _NodeActivity(kind=kind)
        self._nodes[node_id].on_load(now)

    def node_unloaded(self, node_id: str, now: float) -> None:
        activity = self._nodes.get(node_id)
        if activity is None:
            raise RuntimeError(f"unload of node {node_id!r} that was never loaded")
        activity.on_unload(now)

    # ------------------------------------------------------------------
    # Throughput / memory / overheads
    # ------------------------------------------------------------------
    def add_decode_tokens(self, kind: HardwareKind, tokens: int) -> None:
        self.decode_tokens[kind] += tokens

    def sample_batch_size(
        self, batch_size: int, kind: HardwareKind | None = None, count: int = 1
    ) -> None:
        """Record ``count`` decode iterations launched at ``batch_size``.

        ``count > 1`` is the batched form used by engine backends that
        fold a whole chain of identical iterations at once; histograms
        are commutative counters, so the fold order cannot matter.
        """
        self.batch_histogram[batch_size] += count
        if kind is HardwareKind.GPU:
            self.gpu_batch_histogram[batch_size] += count

    def sample_memory_utilization(self, kind: HardwareKind, utilization: float) -> None:
        if self.streaming:
            self._memory_sketches[kind].add(utilization)
        else:
            self.memory_samples[kind].append(utilization)

    def sample_kv_utilization(self, utilization: float) -> None:
        if self.streaming:
            self._kv_sketch.add(utilization)
        else:
            self.kv_utilization_samples.append(utilization)

    def add_overhead(self, name: str, seconds: float) -> None:
        self.overheads[name].add(seconds)

    def record_link_stats(self, stats: dict[str, dict]) -> None:
        self.link_stats = dict(stats)

    def add_scaling_op(self, duration: float) -> None:
        self.scaling_ops += 1
        self.scaling_busy_seconds += duration

    # ------------------------------------------------------------------
    # Finalization
    # ------------------------------------------------------------------
    def finalize(self, now: float, duration: float, system: str) -> RunReport:
        """Assemble the report.  Idempotent: nothing here mutates collector
        state, so calling finalize twice yields identical reports."""
        # Tolerate hardware kinds beyond the CPU/GPU pair the report
        # itemizes: unknown kinds accumulate without a KeyError (their
        # busy time is simply not attributed to either column yet).
        node_seconds: dict[HardwareKind, float] = defaultdict(float)
        for activity in self._nodes.values():
            node_seconds[activity.kind] += activity.busy_seconds(duration, now)
        overhead_stats = {
            name: OverheadStat(count=stat.count, total_seconds=stat.total)
            for name, stat in self.overheads.items()
        }
        if self.streaming:
            # Requests still in flight at the horizon carry their final
            # observed state (queued/decoding => not completed, TTFT if a
            # first token appeared) — the same set exact mode reports.
            aggregate = RequestAggregate(
                arrivals=self._aggregate.arrivals,
                completed=self._aggregate.completed,
                dropped=self._aggregate.dropped,
                slo_met=self._aggregate.slo_met,
                ttft=QuantileSketch.from_dict(self._aggregate.ttft.to_dict()),
            )
            for request in self._pending.values():
                aggregate.fold(request)
        return RunReport(
            system=system,
            duration=duration,
            requests=list(self.requests),
            node_seconds_cpu=node_seconds.get(HardwareKind.CPU, 0.0),
            node_seconds_gpu=node_seconds.get(HardwareKind.GPU, 0.0),
            decode_tokens_cpu=self.decode_tokens[HardwareKind.CPU],
            decode_tokens_gpu=self.decode_tokens[HardwareKind.GPU],
            batch_histogram=dict(self.batch_histogram),
            gpu_batch_histogram=dict(self.gpu_batch_histogram),
            memory_samples={k: list(v) for k, v in self.memory_samples.items()},
            kv_utilization_samples=list(self.kv_utilization_samples),
            overhead_stats=overhead_stats,
            link_utilization={k: dict(v) for k, v in self.link_stats.items()},
            metrics_mode=self.mode,
            request_aggregate=aggregate if self.streaming else None,
            memory_sketches=(
                {k: QuantileSketch.from_dict(v.to_dict()) for k, v in self._memory_sketches.items()}
                if self.streaming
                else {}
            ),
            kv_utilization_sketch=(
                QuantileSketch.from_dict(self._kv_sketch.to_dict()) if self.streaming else None
            ),
            **{f.name: getattr(self, f.name) for f in fields(RunCounters)},
        )
