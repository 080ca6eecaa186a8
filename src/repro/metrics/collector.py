"""Run-time metrics collection.

The collector is driven by the serving systems: they report request
outcomes, instance load/unload transitions (for the nodes-used integral),
decode tokens (for per-node decode speed), periodic memory-utilization
samples, batch sizes at each decode iteration, and wall-clock scheduling
overheads (Fig. 33 measures the real cost of our scheduler code).

The metrics mode is read once, here, to pick the accumulator types
(:data:`~repro.metrics.ledger.ACCUMULATORS`): the request-outcome
ledger, whose counts are live O(1) reads during the run, and one sample
store per sampled distribution.  ``exact`` (the default) retains every
request and sample (lossless payloads, the golden fixtures);
``streaming`` releases finished requests and sketches the samples, so
memory is O(in-flight requests + sketch buckets).

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
from repro.metrics.ledger import ACCUMULATORS, METRICS_MODES, Ledger, SampleStore
from repro.metrics.report import OverheadStat, RunCounters, RunReport
from repro.metrics.streaming import StreamingStat


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
    _nodes: dict[str, _NodeActivity] = field(default_factory=dict)
    decode_tokens: dict[HardwareKind, int] = field(
        default_factory=lambda: defaultdict(int)
    )
    batch_histogram: dict[int, int] = field(default_factory=lambda: defaultdict(int))
    gpu_batch_histogram: dict[int, int] = field(default_factory=lambda: defaultdict(int))
    overheads: dict[str, StreamingStat] = field(
        default_factory=lambda: defaultdict(StreamingStat)
    )
    #: per-link utilization (bytes, busy seconds, peak concurrency) from
    #: the topology's bandwidth tracker; recorded once at run end, only
    #: for topologies with shared (contendable) links, in both metrics
    #: modes — the payload is bounded by the link count.
    link_stats: dict[str, dict] = field(default_factory=dict)
    # The mode's accumulators, built by __post_init__.
    outcomes: Ledger = field(init=False)
    memory_samples: dict[HardwareKind, SampleStore] = field(init=False)
    kv_utilization_samples: SampleStore = field(init=False)

    def __post_init__(self) -> None:
        if self.mode not in ACCUMULATORS:
            raise ValueError(
                f"unknown metrics mode {self.mode!r} (known: {', '.join(METRICS_MODES)})"
            )
        ledger, samples = ACCUMULATORS[self.mode]
        self.outcomes = ledger()
        self.memory_samples = defaultdict(samples)
        self.kv_utilization_samples = samples()

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    def register_request(self, request: Request) -> None:
        self.outcomes.register(request)

    def request_finished(self, request: Request) -> None:
        """Fold a finished request's outcome (once: a repeat is a no-op)."""
        self.outcomes.finish(request)

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
        self.memory_samples[kind].add(utilization)

    def sample_kv_utilization(self, utilization: float) -> None:
        self.kv_utilization_samples.add(utilization)

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
        return RunReport(
            system=system,
            duration=duration,
            outcomes=self.outcomes.snapshot(),
            node_seconds_cpu=node_seconds.get(HardwareKind.CPU, 0.0),
            node_seconds_gpu=node_seconds.get(HardwareKind.GPU, 0.0),
            decode_tokens_cpu=self.decode_tokens[HardwareKind.CPU],
            decode_tokens_gpu=self.decode_tokens[HardwareKind.GPU],
            batch_histogram=dict(self.batch_histogram),
            gpu_batch_histogram=dict(self.gpu_batch_histogram),
            memory_samples={k: v.copy() for k, v in self.memory_samples.items()},
            kv_utilization_samples=self.kv_utilization_samples.copy(),
            overhead_stats=overhead_stats,
            link_utilization={k: dict(v) for k, v in self.link_stats.items()},
            **{f.name: getattr(self, f.name) for f in fields(RunCounters)},
        )
