"""Figs. 32-33 — node-count scaling and scheduling overhead."""

from __future__ import annotations

from dataclasses import dataclass

from repro.metrics.report import OverheadStat
from repro.runner import ExperimentScale, RunSpec, SweepExecutor, current_scale


def _pairs_cluster(pairs: int) -> str:
    """``pairs`` CPU + ``pairs`` GPU nodes; 4 + 4 is the paper testbed."""
    return "paper" if pairs == 4 else f"cpu{pairs}-gpu{pairs}"


@dataclass(frozen=True)
class NodeScalingPoint:
    total_nodes: int  # CPU + GPU, split evenly
    system: str
    slo_met: int
    total: int


def run_node_scaling(
    node_pairs: tuple[int, ...] = (1, 2, 3, 4),
    n_models: int = 64,
    scale: ExperimentScale | None = None,
    seed: int = 1,
    executor: SweepExecutor | None = None,
) -> list[NodeScalingPoint]:
    """Fig. 32: 1 CPU + 1 GPU up to 4 CPU + 4 GPU."""
    window = (scale or current_scale()).spec_axes()
    cells = [(pairs, system) for pairs in node_pairs for system in ("sllm+c+s", "slinfer")]
    specs = [
        RunSpec(
            system=system, n_models=n_models, cluster=_pairs_cluster(pairs), seed=seed, **window
        )
        for pairs, system in cells
    ]
    return [
        NodeScalingPoint(
            total_nodes=2 * pairs,
            system=system,
            slo_met=result.report.slo_met_count,
            total=result.report.total_requests,
        )
        for (pairs, system), result in zip(cells, (executor or SweepExecutor()).run(specs))
    ]


@dataclass(frozen=True)
class OverheadPoint:
    total_nodes: int
    shadow_validation: OverheadStat
    token_schedule: OverheadStat


def run_scheduling_overhead(
    node_pairs: tuple[int, ...] = (1, 2, 3, 4),
    n_models: int = 64,
    scale: ExperimentScale | None = None,
    seed: int = 1,
    executor: SweepExecutor | None = None,
) -> list[OverheadPoint]:
    """Fig. 33: measured wall-clock cost of SLINFER's decisions.

    Unlike the other figures this measures *our implementation's* real
    overhead, mirroring how the paper measures its own scheduler.  The
    overhead stats travel with each result (and its cache entry), so a
    run shared with Fig. 32 reports the cost measured when it ran.
    """
    window = (scale or current_scale()).spec_axes()
    specs = [
        RunSpec(
            system="slinfer", n_models=n_models, cluster=_pairs_cluster(pairs), seed=seed, **window
        )
        for pairs in node_pairs
    ]
    empty = OverheadStat(count=0, total_seconds=0.0, mean_seconds=0.0)
    return [
        OverheadPoint(
            total_nodes=2 * pairs,
            shadow_validation=result.report.overhead_stats.get("shadow_validation", empty),
            token_schedule=result.report.overhead_stats.get("token_schedule", empty),
        )
        for pairs, result in zip(node_pairs, (executor or SweepExecutor()).run(specs))
    ]
