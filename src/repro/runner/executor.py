"""Sweep execution: one spec, or a grid of specs across worker processes.

:func:`execute_spec` runs a single :class:`~repro.runner.spec.RunSpec`,
ingesting its scenario's trace as a lazy stream.  :class:`SweepExecutor`
runs many — consulting the result cache first, then fanning the
remainder out over a ``multiprocessing`` pool (``--workers`` /
``REPRO_WORKERS``).

Determinism: every simulation is fully seeded, and results always travel
through the same JSON round-trip whether they were computed in-process,
in a worker, or restored from cache.  A parallel sweep therefore
produces byte-identical per-spec reports to a sequential one (only the
wall-clock timing envelope differs).
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields as dataclass_fields
from typing import Any, Sequence

from repro.registry import build_cluster, system_factory
from repro.runner.cache import ResultCache
from repro.runner.env import env_setting
from repro.runner.spec import RunResult, RunSpec, axis_value, build_workload_stream


def check_workers(value: int | str) -> int:
    """``value`` as a worker count; ``ValueError`` unless a positive integer.

    The one check behind every worker setting: ``REPRO_WORKERS``, both
    ``--workers`` flags, :class:`SweepExecutor`, ``run_federation`` and
    ``BenchConfig``.
    """
    try:
        count = int(value)
    except ValueError:
        count = 0
    if count < 1:
        raise ValueError(f"workers must be a positive integer, got {value!r}")
    return count


def default_workers() -> int:
    """Worker-count default from the ``REPRO_WORKERS`` environment variable
    (unset or empty: 1; anything but a positive integer is an error)."""
    return env_setting("REPRO_WORKERS", 1, check_workers, "a positive integer")


def build_system(spec: RunSpec, **system_kwargs: Any):
    """Construct the spec's serving system (cluster + policies + axes).

    The single assembly point shared by :func:`execute_spec` and the
    gateway bridge, so a live run faces exactly the system a batch run
    of the same spec would.  Each axis whose field names a ``forward``
    keyword is passed under it only when non-default, so system
    factories written before an axis existed keep working for every
    default-valued spec; explicit ``system_kwargs`` win.  Any explicit
    engine name is forwarded, so a spec pinned to ``reference`` runs it
    even when ``REPRO_ENGINE`` names another backend.
    """
    for entry in dataclass_fields(spec):
        keyword = entry.metadata.get("forward")
        value = getattr(spec, entry.name)
        if keyword is not None and value != entry.default:
            system_kwargs.setdefault(keyword, axis_value(value))
    return system_factory(spec.system)(
        build_cluster(spec.cluster, topology=spec.topology), **system_kwargs
    )


def execute_spec(spec: RunSpec, workload=None, **system_kwargs: Any) -> RunResult:
    """Run one spec in-process and return its result envelope.

    The scenario's trace is fed lazily through
    :func:`~repro.runner.spec.build_workload_stream` (O(in-flight) ingest
    memory).  ``workload`` short-circuits trace synthesis when the caller
    already built the spec's workload (it must be the one
    ``build_workload(spec)`` would produce, or the fingerprint lies).

    Specs with a ``federation`` axis dispatch to the sharded executor
    (:func:`repro.federation.runner.execute_federated`): the returned
    report is the merge of the fleet's shard reports.  Shard systems are
    assembled internally, so caller workloads and system kwargs cannot
    apply there.
    """
    if spec.federation is not None:
        if workload is not None or system_kwargs:
            raise ValueError(
                "federated specs build their shard systems and workloads "
                "internally; workload= and system kwargs are not supported"
            )
        from repro.federation.runner import execute_federated

        return execute_federated(spec)
    if workload is None:
        workload = build_workload_stream(spec)
    system = build_system(spec, **system_kwargs)
    report = system.run(workload)
    # The system is ours and finished: free its state by refcount now
    # instead of leaving a cyclic graph for the collector.
    system.release()
    return RunResult(
        spec=spec,
        fingerprint=spec.fingerprint(),
        report=report,
        wall_seconds=report.wall_seconds,
    )


def _worker(spec_dict: dict[str, Any]) -> dict[str, Any]:
    """Process-pool entry point: execute and return the transport payload."""
    return execute_spec(RunSpec.from_dict(spec_dict)).to_payload()


class SweepExecutor:
    """Runs spec grids with caching and optional process parallelism."""

    def __init__(
        self,
        workers: int | None = None,
        cache: ResultCache | None = None,
    ) -> None:
        self.workers = default_workers() if workers is None else check_workers(workers)
        self.cache = cache

    def run(self, specs: Sequence[RunSpec]) -> list[RunResult]:
        """Execute ``specs``, returning results in spec order.

        Cached specs are restored without simulation; the rest run
        sequentially or across the worker pool.  Every result is passed
        through the canonical JSON round-trip, so the returned reports
        are independent of worker count and cache state.
        """
        results: list[RunResult | None] = [None] * len(specs)
        # fingerprint -> (spec, indices asking for it), in first-seen order:
        # a spec repeated within one call is simulated once.
        pending: dict[str, tuple[RunSpec, list[int]]] = {}
        for index, spec in enumerate(specs):
            fingerprint = spec.fingerprint()
            if fingerprint in pending:
                pending[fingerprint][1].append(index)
                continue
            payload = self.cache.get(fingerprint) if self.cache is not None else None
            if payload is not None:
                results[index] = RunResult.from_payload(payload, from_cache=True)
            else:
                pending[fingerprint] = (spec, [index])

        if pending:
            todo = [spec for spec, _ in pending.values()]
            if self.workers > 1 and len(todo) > 1:
                payloads = self._run_parallel(todo)
            else:
                payloads = [execute_spec(spec).to_payload() for spec in todo]
            for (_, indices), payload in zip(pending.values(), payloads):
                if self.cache is not None:
                    self.cache.put(payload["fingerprint"], payload)
                for index in indices:
                    results[index] = RunResult.from_payload(payload)

        return [result for result in results if result is not None]

    def run_merged(self, specs: Sequence[RunSpec]) -> tuple[list[RunResult], "RunReport"]:
        """Execute ``specs`` as shards of one logical run and fold them.

        Returns the per-shard results plus the merged
        :class:`~repro.metrics.report.RunReport`.  Streaming-mode shards
        merge sketch-wise (bounded memory, associative — any shard
        grouping yields the same aggregate), which is how a long horizon
        is split across worker processes without any shard, or the
        merge, holding O(total requests) state.
        """
        from repro.metrics.report import merge_run_reports

        results = self.run(specs)
        return results, merge_run_reports([result.report for result in results])

    def _run_parallel(self, specs: Sequence[RunSpec]) -> list[dict[str, Any]]:
        workers = min(self.workers, len(specs))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_worker, [spec.to_dict() for spec in specs]))
