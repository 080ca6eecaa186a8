"""Reactive consolidation orderings (§VIII-B and §V placement).

Two orderings:

* **Dispatch**: among an LLM's replicas, prefer CPU instances (§V), and
  within each hardware kind route to the *largest* batch first — large
  instances grow larger, small fragments drain and are reclaimed sooner.
* **Placement**: among nodes that can host a new instance, pick best-fit
  (least free memory that still fits) so deployments stay packed and whole
  nodes stay free for future large placements; :func:`first_per_kind`
  bounds the nodes probed without hiding a hardware kind.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable

from repro.engine.instance import Instance
from repro.hardware.node import Node


def order_dispatch_candidates(
    instances: list[Instance],
    prefer_cpu: bool = True,
    bin_packing: bool = True,
) -> list[Instance]:
    """Order replica instances for request dispatch."""

    def sort_key(instance: Instance) -> tuple:
        cpu_rank = 0 if (instance.node.is_cpu and prefer_cpu) else 1
        batch_rank = -instance.batch_size if bin_packing else instance.created_at
        return (cpu_rank, batch_rank, instance.inst_id)

    return sorted(instances, key=sort_key)


def order_nodes_best_fit(
    nodes: list[Node],
    free_bytes: Callable[[Node], int],
    required_bytes: int,
    prefer_cpu: bool = True,
) -> list[Node]:
    """Order candidate nodes for a new instance (CPU-first, then best-fit)."""
    fitting = [node for node in nodes if free_bytes(node) >= required_bytes]

    def sort_key(node: Node) -> tuple:
        cpu_rank = 0 if (node.is_cpu and prefer_cpu) else 1
        return (cpu_rank, free_bytes(node), node.node_id)

    return sorted(fitting, key=sort_key)


def first_per_kind(nodes: list[Node], limit: int) -> list[Node]:
    """The first ``limit`` nodes of each hardware kind, in ``nodes``' order.

    A candidate window bounded per kind cannot hide a kind: with CPUs
    ordered first, a flat window of ``limit`` would never reach a GPU
    once ``limit`` CPU nodes qualify.
    """
    seen: Counter = Counter()
    window = []
    for node in nodes:
        seen[node.kind] += 1
        if seen[node.kind] <= limit:
            window.append(node)
    return window
