"""The curated benchmark suite behind ``repro bench``.

One suite, written to ``BENCH_core.json``: the primitives every
experiment rides on — the raw discrete-event loop, event-bus
publishing, the end-to-end serving loop (the acceptance case:
``core-loop``), an overload run that churns the admission queue, a
policy-matrix sweep, workload synthesis throughput, the
streaming-metrics pipeline (the ``core-loop`` spec under bounded-memory
collection plus raw sketch ingest — ``metrics-streaming`` /
``metrics-sketch-insert``), the vectorized engine backend on a
decode-dominated run (``engine-vectorized``), the prefix-sharing block
map on the shared-sysprompt workload (``prefix-share``), the sharded
federation (``federation-sharded``), and shadow validation under a
bursty overload (``shadow-spike``).

Every case is deterministic (fixed seeds, fixed event counts), returns
its event count, and scales its problem size with the configured
trace scale so ``full`` measurements stay meaningful while ``smoke``
stays CI-fast.  Tier-1's scenario-parametrized suites run every
registered scenario; this suite times only the cases above.
"""

from __future__ import annotations

from typing import Callable

from repro.bench.config import BenchConfig
from repro.bench.timers import Measurement, measure
from repro.policies.events import Event, EventBus, IterationFinished, RequestArrived
from repro.runner import RunSpec, SweepExecutor, build_workload, execute_spec, expand_grid
from repro.sim.simulator import Simulator

#: per-scale multiplier for synthetic (non-trace) case sizes
_SCALE_FACTOR = {"smoke": 1, "quick": 3, "full": 10}


def _factor(config: BenchConfig) -> int:
    return _SCALE_FACTOR.get(config.scale, 1)


# ----------------------------------------------------------------------
# Core primitives
# ----------------------------------------------------------------------
def _sim_event_loop(config: BenchConfig) -> int:
    """Raw simulator throughput: schedule/fire/cancel with no serving logic."""
    total = 50_000 * _factor(config)
    sim = Simulator()
    fired = 0

    def tick() -> None:
        nonlocal fired
        fired += 1
        if fired < total:
            handle = sim.schedule(1.0, tick)
            if fired % 7 == 0:  # exercise the lazy-cancellation path
                handle.cancel()
                sim.schedule(1.0, tick)

    sim.schedule(1.0, tick)
    sim.run()
    return fired


def _event_bus_publish(config: BenchConfig) -> int:
    """Publish throughput with concrete-type and base-type subscribers."""
    total = 200_000 * _factor(config)
    bus = EventBus()
    seen = [0, 0]
    bus.subscribe(IterationFinished, lambda e: seen.__setitem__(0, seen[0] + 1))
    bus.subscribe(Event, lambda e: seen.__setitem__(1, seen[1] + 1))
    bus.subscribe(RequestArrived, lambda e: None)  # never published below
    event = IterationFinished(None, None, 1, 1, 0.0)
    publish = bus.publish
    for _ in range(total):
        publish(event)
    assert seen[0] == seen[1] == total
    return total


def _core_loop(config: BenchConfig) -> int:
    """The acceptance case: SLINFER end-to-end on the azure trace."""
    spec = RunSpec(
        system="slinfer",
        scenario="azure",
        n_models=16,
        cluster="cpu2-gpu2",
        seed=1,
        scale=config.scale,
    )
    return execute_spec(spec).report.events_processed


def _queue_churn(config: BenchConfig) -> int:
    """Overloaded single GPU: queue/retry/drop bookkeeping under pressure."""
    spec = RunSpec(
        system="sllm",
        scenario="azure",
        n_models=12,
        cluster="cpu0-gpu1",
        seed=2,
        scale=config.scale,
    )
    return execute_spec(spec).report.events_processed


def _policy_matrix(config: BenchConfig) -> int:
    """The 2x2 placement x reclaim ablation sweep (uncached)."""
    specs = expand_grid(
        ["slinfer"],
        n_models=(8,),
        clusters=("cpu2-gpu2",),
        scale=config.scale,
        policies={"placement": ["slinfer", "sllm"], "reclaim": ["keepalive", "never"]},
    )
    executor = SweepExecutor(workers=config.workers, cache=None)
    results = executor.run(specs)
    return sum(result.report.events_processed for result in results)


def _workload_synthesis(config: BenchConfig) -> int:
    """Trace-generation throughput (batched RNG draws), in requests."""
    spec = RunSpec(system="slinfer", scenario="azure", n_models=64, seed=3, scale=config.scale)
    return len(build_workload(spec).requests)


def _metrics_streaming(config: BenchConfig) -> int:
    """The core-loop spec under streaming (bounded-memory) metrics.

    Identical simulation work to ``core-loop`` — the events/sec delta
    between the two entries *is* the measured throughput cost of
    sketch-based collection (gated to stay small; target <5 %)."""
    spec = RunSpec(
        system="slinfer",
        scenario="azure",
        n_models=16,
        cluster="cpu2-gpu2",
        seed=1,
        scale=config.scale,
        metrics="streaming",
    )
    return execute_spec(spec).report.events_processed


def _topology_contention(config: BenchConfig) -> int:
    """The contention model under stress: a cold-start storm behind one
    shared, oversubscribed NIC (``rack-oversub`` cluster).

    Every wave of the ``cold-churn`` scenario launches concurrent model
    loads that time-share the rack uplink, so this case measures the
    event-driven re-timing machinery (transfer start/finish → rate
    recomputation → completion reschedule) end-to-end."""
    spec = RunSpec(
        system="slinfer",
        scenario="cold-churn",
        n_models=12,
        cluster="rack-oversub",
        seed=1,
        scale=config.scale,
    )
    return execute_spec(spec).report.events_processed


def _metrics_sketch_insert(config: BenchConfig) -> int:
    """Raw quantile-sketch ingest + query throughput (samples/sec)."""
    from repro.metrics.streaming import QuantileSketch

    total = 200_000 * _factor(config)
    sketch = QuantileSketch()
    add = sketch.add
    # A deterministic value stream spanning several orders of magnitude
    # (the TTFT-like regime), no RNG on the timed path.
    for i in range(total):
        add(0.001 + (i % 9973) * 0.01)
    assert len(sketch) == total
    for q in (50.0, 90.0, 99.0):
        sketch.percentile(q)
    return total


#: decode-marathon workloads memo-built once per scale: the engine case
#: times the serving loop, not trace synthesis (the build lands in the
#: first warmup round, outside the timed region)
_MARATHON_WORKLOADS: dict[str, object] = {}


def _engine_vectorized(config: BenchConfig) -> int:
    """The vectorized-backend acceptance case: a decode-dominated run.

    ``decode-marathon`` keeps one instance decoding a stable batch for
    thousands of iterations, so virtually every event is a chained
    decode step — the path the vectorized engine batches (same-chain
    bursts, cumsum fast-forward).  The committed baseline gates this
    case like any other; the backend's byte-identical contract is
    enforced separately by the parity tests."""
    spec = RunSpec(
        system="slinfer",
        scenario="decode-marathon",
        n_models=1,
        cluster="cpu0-gpu1",
        seed=1,
        scale=config.scale,
        engine="vectorized",
    )
    workload = _MARATHON_WORKLOADS.get(config.scale)
    if workload is None:
        workload = _MARATHON_WORKLOADS[config.scale] = build_workload(spec)
    return execute_spec(spec, workload=workload).report.events_processed


def _prefix_share(config: BenchConfig) -> int:
    """The prefix-sharing block map under its canonical workload.

    ``shared-sysprompt`` session trains drive the whole admit → radix
    walk → refcount → commit → evict path on every request, so this case
    times the block-map machinery itself on top of the serving loop.
    The hit rate lands in the report's ``kv_sharing`` block and is
    anchored (>0.5) by the calibration test, not here."""
    spec = RunSpec(
        system="slinfer",
        scenario="shared-sysprompt",
        n_models=8,
        cluster="cpu2-gpu2",
        seed=1,
        scale=config.scale,
        kv_sharing="on",
    )
    return execute_spec(spec).report.events_processed


def _shadow_spike(config: BenchConfig) -> int:
    """Shadow validation (§VI-C) under a bursty overload.

    ``bursty-spike`` overloads eight models on two CPU and two GPU nodes,
    so queued requests retry placement and every attempt simulates the
    node's future before it is accepted: this case times that layer on
    top of the serving loop."""
    spec = RunSpec(
        system="slinfer",
        scenario="bursty-spike",
        n_models=8,
        cluster="cpu2-gpu2",
        seed=1,
        scale=config.scale,
    )
    return execute_spec(spec).report.events_processed


def _streaming_footprint_meta(config: BenchConfig) -> dict[str, int]:
    """Bounded-footprint evidence recorded next to the timing numbers.

    Serialized-report sizes for the same run in both modes: the exact
    payload grows with the request count, the streaming payload is
    pinned by the sketch bucket caps."""
    import json

    axes = dict(
        system="slinfer", scenario="azure", n_models=16,
        cluster="cpu2-gpu2", seed=1, scale=config.scale,
    )
    exact = execute_spec(RunSpec(**axes)).report
    streaming = execute_spec(RunSpec(**axes, metrics="streaming")).report
    return {
        "payload_bytes_exact": len(json.dumps(exact.to_dict(include_volatile=False))),
        "payload_bytes_streaming": len(json.dumps(streaming.to_dict(include_volatile=False))),
        "ttft_sketch_bins": streaming.ttft_cdf().bin_count,
    }


def _federation_sharded(config: BenchConfig) -> int:
    """The sharded-federation acceptance case: a 4-shard fleet run.

    ``global-storm`` on a single overloaded GPU node, split into four
    region shards by sticky sessions and served in-process.  Times the
    full federated path: deterministic workload partition, per-shard
    serving loops, shard-report merge.  Other shard counts simulate a
    different system (each region shard sees storms only 1/4 of the
    time), so no ratio against them is recorded here."""
    from repro.federation.runner import run_federation

    spec = RunSpec(
        system="slinfer",
        scenario="global-storm",
        model="llama-2-7b",
        n_models=16,
        cluster="cpu0-gpu1",
        seed=1,
        scale=config.scale,
        duration=360.0 * _factor(config),
        scenario_params={"load_factor": 7.0},
        metrics="streaming",
        engine="vectorized",
        federation="sticky4",
    )
    return run_federation(spec, workers=1).report.events_processed


CORE_CASES: dict[str, Callable[[BenchConfig], int]] = {
    "sim-event-loop": _sim_event_loop,
    "event-bus-publish": _event_bus_publish,
    "core-loop": _core_loop,
    "queue-churn": _queue_churn,
    "policy-matrix": _policy_matrix,
    "workload-synthesis": _workload_synthesis,
    "metrics-streaming": _metrics_streaming,
    "metrics-sketch-insert": _metrics_sketch_insert,
    "topology-contention": _topology_contention,
    "engine-vectorized": _engine_vectorized,
    "prefix-share": _prefix_share,
    "federation-sharded": _federation_sharded,
    "shadow-spike": _shadow_spike,
}

#: untimed per-case annotations attached to the written report
_CASE_META: dict[str, Callable[[BenchConfig], dict]] = {
    "metrics-streaming": _streaming_footprint_meta,
}


def run_core_suite(config: BenchConfig, only: set[str] | None = None) -> list[Measurement]:
    measurements = []
    for name, case in CORE_CASES.items():
        if only is not None and name not in only:
            continue
        meta_fn = _CASE_META.get(name)
        measurements.append(
            measure(
                lambda case=case: case(config),
                name=name,
                repeats=config.repeats,
                warmup=config.warmup,
                meta=meta_fn(config) if meta_fn is not None else None,
            )
        )
    return measurements
