"""Deterministic workload partitioning across federation shards.

A static router's partition is a pure function of the deployment names
(:meth:`~repro.federation.router.GlobalRouter.assign`), so every shard
can synthesize the full trace locally — the generators are seeded — and
keep only its own slice.  No request objects ever cross a process
boundary on the static path.  A shard's slice is a lazy filter over the
trace stream, so the per-shard subsequence preserves the trace's
arrival order and each shard keeps the O(in-flight) ingest property.
"""

from __future__ import annotations

from typing import Iterator

from repro.workloads.spec import RequestSpec
from repro.workloads.stream import IteratorStream, WorkloadStream

__all__ = ["shard_stream"]


def shard_stream(
    stream: WorkloadStream, assignment: dict[str, int], shard_id: int
) -> WorkloadStream:
    """One shard's slice of a workload stream, filtered lazily."""
    deployments = {
        name: deployment
        for name, deployment in stream.deployments.items()
        if assignment[name] == shard_id
    }

    def _filtered() -> Iterator[RequestSpec]:
        for spec in stream:
            if assignment[spec.deployment] == shard_id:
                yield spec

    return IteratorStream(
        name=f"{stream.name}#{shard_id}",
        deployments=deployments,
        source=_filtered,
        duration=stream.duration,
    )
