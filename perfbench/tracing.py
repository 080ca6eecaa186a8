"""Per-layer spans, taken from outside the package.

:class:`Tracer` replaces the public entry points of each layer — module
functions as the calling module sees them, methods on their classes —
with timing wrappers, and restores the originals afterwards.  Nothing
under ``src/`` changes and the wrappers are transparent: a traced round
must produce the same simulated digest as an untraced one (the benchmark
checks this every traced round).

Every wrapped call keeps a running total of its layer's inclusive time
(outermost call of that layer only, so a layer calling itself is not
counted twice) and of its own self time (its duration minus that of the
wrapped calls nested inside it).  Spans of the coarse layers are also
kept as Chrome trace events; the per-call layers (``perf``, ``memory``,
``scheduler``) are counted and timed but not emitted, since they run
hundreds of thousands of times per round.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator, Optional, Sequence

#: PerfDatabase lookups timed as the ``perf`` layer
PERF_LOOKUPS = (
    "law",
    "decode_kernel",
    "quantified",
    "estimate_ttft",
    "estimate_tpot",
    "execute_prefill",
    "execute_decode",
    "cpu_can_serve",
)

#: MemoryOrchestrator methods timed as the ``memory`` layer
MEMORY_METHODS = (
    "optimistic_free",
    "pessimistic_free",
    "planned_kv_bytes",
    "has_instance",
    "can_admit",
    "admit_instance",
    "retarget_load_kv",
    "unload_instance",
    "can_scale_to",
    "request_scale",
)

#: layers counted and timed but not written as individual trace events
_UNEMITTED = frozenset({"perf", "memory", "scheduler"})

#: cap on emitted trace events per run (later spans are only counted)
MAX_EVENTS = 200_000


def _subclasses(cls: type) -> list[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


def _targets() -> list[tuple[str, Any, str]]:
    """``(layer, owner, attribute)`` for every wrapped entry point."""
    import repro.federation.runner as federation
    import repro.policies.base as policy_base
    import repro.policies.slinfer as slinfer
    import repro.registry  # noqa: F401  (registers every placement policy)
    import repro.runner.executor as executor
    from repro.core.system import ServingSystem
    from repro.memory.orchestrator import MemoryOrchestrator
    from repro.metrics.collector import MetricsCollector
    from repro.perf.database import PerfDatabase
    from repro.sim.engine import ENGINES

    targets: list[tuple[str, Any, str]] = []
    for module in (executor, federation):
        targets.append(("runner.synth", module, "build_workload"))
        targets.append(("runner.synth", module, "build_workload_stream"))
        targets.append(("runner.build_system", module, "build_system"))
    for name in ENGINES.names():
        engine = ENGINES.get(name)
        if "run_loop" in vars(engine):
            targets.append(("sim.loop", engine, "run_loop"))
    targets.append(("shadow", slinfer, "shadow_validate"))
    for policy in _subclasses(policy_base.PlacementPolicy):
        if "try_place" in vars(policy):
            targets.append(("placement", policy, "try_place"))
    targets.append(("scheduler", policy_base, "select_next_work"))
    targets.extend(("perf", PerfDatabase, name) for name in PERF_LOOKUPS)
    targets.extend(("memory", MemoryOrchestrator, name) for name in MEMORY_METHODS)
    for name in ("plan_preemption", "order_dispatch_candidates", "order_nodes_best_fit"):
        targets.append(("consolidation", slinfer, name))
    targets.append(("metrics.finalize", MetricsCollector, "finalize"))
    targets.append(("federation.partition", federation, "shard_workload"))
    targets.append(("federation.partition", federation, "shard_stream"))
    targets.append(("federation.merge", federation, "merge_run_reports"))
    targets.append(("federation.shard", federation.ShardRunner, "run"))
    targets.append(("admission.enqueue", ServingSystem, "enqueue"))
    targets.append(("admission.dispatch", ServingSystem, "dispatch"))
    return targets


class RoundStats:
    """What one traced round recorded, layer by layer."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.inclusive: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.verdicts: Counter[str] = Counter()
        self.placed = 0
        self.retry_calls = 0
        # id(request) -> (request, first enqueue time); holding the request
        # keeps its id from being reused by a later request
        self.queued_at: dict[int, tuple[Any, float]] = {}
        self.queue_waits: list[float] = []


class Tracer:
    """Installs layer wrappers and collects their spans, round by round."""

    def __init__(self) -> None:
        self.rounds: list[RoundStats] = []
        self.events: list[dict] = []
        self.dropped_events = 0
        self._stats: Optional[RoundStats] = None
        self._stack: list[float] = []  # child-time accumulators of open spans
        self._depth: Counter[str] = Counter()
        self._origin = time.perf_counter()

    # ------------------------------------------------------------------
    # Wrapper construction
    # ------------------------------------------------------------------
    def _wrap(self, layer: str, fn: Callable) -> Callable:
        tracer = self
        clock = time.perf_counter
        emit = layer not in _UNEMITTED
        name = getattr(fn, "__qualname__", layer)

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stats = tracer._stats
            if stats is None:
                return fn(*args, **kwargs)
            if layer.startswith("admission."):
                tracer._observe_admission(stats, layer, args)
                return fn(*args, **kwargs)
            stack = tracer._stack
            depth = tracer._depth
            outermost = depth[layer] == 0
            depth[layer] += 1
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                children = stack.pop()
                depth[layer] -= 1
                if stack:
                    stack[-1] += duration
                stats.self_time[layer] += duration - children
                if outermost:
                    stats.calls[layer] += 1
                    stats.inclusive[layer] += duration
                if emit:
                    tracer._emit(name, layer, start, duration)
            if layer == "shadow":
                stats.verdicts[result.value] += 1
            elif layer == "placement":
                stats.placed += bool(result)
                if args[1].retrying:
                    stats.retry_calls += 1
            return result

        return wrapper

    def _observe_admission(self, stats: RoundStats, layer: str, args: tuple) -> None:
        system, request = args[0], args[1]
        if layer == "admission.enqueue":
            stats.queued_at.setdefault(id(request), (request, system.sim.now))
        else:
            queued = stats.queued_at.pop(id(request), None)
            if queued is not None:
                stats.queue_waits.append(system.sim.now - queued[1])

    def _emit(self, name: str, layer: str, start: float, duration: float) -> None:
        if len(self.events) >= MAX_EVENTS:
            self.dropped_events += 1
            return
        self.events.append(
            {
                "name": name,
                "cat": layer,
                "ph": "X",
                "ts": round((start - self._origin) * 1e6, 3),
                "dur": round(duration * 1e6, 3),
                "pid": 1,
                "tid": len(self.rounds),
            }
        )

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    @contextmanager
    def traced_round(self, label: str) -> Iterator[RoundStats]:
        """Wrap every layer for the duration of one round."""
        stats = RoundStats()
        self.rounds.append(stats)
        self.events.append(
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": len(self.rounds),
             "args": {"name": label}}
        )
        installed = []
        try:
            for layer, owner, attribute in _targets():
                original = vars(owner).get(attribute)
                if original is None:
                    continue
                installed.append((owner, attribute, original))
                setattr(owner, attribute, self._wrap(layer, original))
            self._stats = stats
            yield stats
        finally:
            self._stats = None
            for owner, attribute, original in reversed(installed):
                setattr(owner, attribute, original)
            self._stack.clear()
            self._depth.clear()

    def write_chrome_trace(self, path: Path, run_key: str, metadata: dict) -> None:
        """Write the kept spans as Chrome trace-event JSON (Perfetto opens it)."""
        payload = {
            "traceEvents": [
                {"name": "process_name", "ph": "M", "pid": 1, "args": {"name": run_key}},
                *self.events,
            ],
            "displayTimeUnit": "ms",
            "otherData": {**metadata, "run": run_key, "dropped_events": self.dropped_events},
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload), encoding="utf-8")


def layer_metrics(stats: RoundStats, reports: Sequence[Any], arrivals: int) -> dict[str, float]:
    """The per-layer metrics of one traced round (see README.md for the map)."""
    calls, inclusive = stats.calls, stats.inclusive
    shadow_calls = calls["shadow"]
    placement_calls = calls["placement"]
    histogram: Counter[int] = Counter()
    for report in reports:
        histogram.update(report.batch_histogram)
    batches = sum(histogram.values())
    return {
        "runner.synth_s": inclusive["runner.synth"],
        "runner.build_system_s": inclusive["runner.build_system"],
        "sim.events": sum(report.events_processed for report in reports),
        "sim.loop_self_s": stats.self_time["sim.loop"],
        "shadow.calls": shadow_calls,
        "shadow.s": inclusive["shadow"],
        "shadow.pass_ratio": stats.verdicts["pass"] / shadow_calls if shadow_calls else 0.0,
        "shadow.case1": stats.verdicts["case1-new-request-ttft"],
        "shadow.case2": stats.verdicts["case2-existing-delayed"],
        "shadow.case3": stats.verdicts["case3-aggregate-decode"],
        "placement.calls": placement_calls,
        "placement.s": inclusive["placement"],
        "placement.ok_ratio": stats.placed / placement_calls if placement_calls else 0.0,
        "placement.retry_calls": stats.retry_calls,
        "placement.per_request": placement_calls / arrivals if arrivals else 0.0,
        "scheduler.calls": calls["scheduler"],
        "scheduler.s": inclusive["scheduler"],
        "perf.calls": calls["perf"],
        "perf.s": inclusive["perf"],
        "memory.s": inclusive["memory"],
        "memory.scale_ops": sum(report.scaling_ops for report in reports),
        "memory.scaling_busy_s": sum(report.scaling_busy_seconds for report in reports),
        "consolidation.preemptions": sum(report.preemptions for report in reports),
        "consolidation.migrations": sum(report.migrations for report in reports),
        "consolidation.evictions": sum(report.evictions for report in reports),
        "consolidation.s": inclusive["consolidation"],
        "admission.drops": sum(report.dropped_count for report in reports),
        "admission.queue_wait_p50_s": (
            statistics.median(stats.queue_waits) if stats.queue_waits else 0.0
        ),
        "engine.batch_mean": (
            sum(size * count for size, count in histogram.items()) / batches if batches else 0.0
        ),
        "engine.kv_util_mean": statistics.fmean(
            report.mean_kv_utilization for report in reports
        ),
        "metrics.finalize_s": inclusive["metrics.finalize"],
        "metrics.payload_bytes": sum(
            len(json.dumps(report.to_dict(include_volatile=False))) for report in reports
        ),
        "federation.partition_s": inclusive["federation.partition"],
        "federation.merge_s": inclusive["federation.merge"],
        "federation.shard_wall_sum_s": inclusive["federation.shard"],
    }
