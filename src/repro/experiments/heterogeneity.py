"""Heterogeneity experiments: Figs. 24, 26 and 29."""

from __future__ import annotations

from dataclasses import dataclass

from repro.metrics.report import RunReport
from repro.runner import ExperimentScale, RunSpec, SweepExecutor, current_scale


# ----------------------------------------------------------------------
# Fig. 24 — CPU scalability: adding CPU vs GPU nodes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScalabilityPoint:
    added_nodes: int
    kind: str  # "cpu" | "gpu"
    slo_met: int
    total: int


def run_cpu_scalability(
    max_added: int = 8,
    n_models: int = 64,
    scale: ExperimentScale | None = None,
    seed: int = 1,
    executor: SweepExecutor | None = None,
) -> list[ScalabilityPoint]:
    """Start from 2 GPU + 0 CPU nodes and add CPU or GPU nodes."""
    window = (scale or current_scale()).spec_axes()
    steps = [
        (kind, added, f"cpu{added}-gpu2" if kind == "cpu" else f"cpu0-gpu{2 + added}")
        for kind in ("cpu", "gpu")
        for added in range(0, max_added + 1, 2)
    ]
    specs = [
        RunSpec(system="slinfer", n_models=n_models, cluster=cluster, seed=seed, **window)
        for _, _, cluster in steps
    ]
    return [
        ScalabilityPoint(
            added_nodes=added,
            kind=kind,
            slo_met=result.report.slo_met_count,
            total=result.report.total_requests,
        )
        for (kind, added, _), result in zip(steps, (executor or SweepExecutor()).run(specs))
    ]


# ----------------------------------------------------------------------
# Fig. 26 — mixed deployment with 34B (TP-2) models
# ----------------------------------------------------------------------
POPULARITY_RATIOS: tuple[tuple[int, int, int, int], ...] = (
    (4, 1, 1, 1),
    (3, 2, 1, 1),
    (2, 2, 2, 1),
    (1, 2, 3, 1),
    (1, 1, 4, 1),
    (0, 0, 0, 1),
)


@dataclass(frozen=True)
class MixedResult:
    ratio: str
    system: str
    report: RunReport


def run_mixed_deployment(
    ratios: tuple = POPULARITY_RATIOS,
    n_models: int = 36,
    scale: ExperimentScale | None = None,
    seed: int = 1,
    executor: SweepExecutor | None = None,
) -> list[MixedResult]:
    """§IX-E setup: 4 CPU + 6 GPU nodes, varying model-size popularity."""
    window = (scale or current_scale()).spec_axes()
    cells = [(ratio, system) for ratio in ratios for system in ("sllm+c", "sllm+c+s", "slinfer")]
    specs = [
        RunSpec(
            system=system,
            scenario="mixed-fleet",
            n_models=n_models,
            cluster="mixed-fleet",
            seed=seed,
            scenario_params={"ratio": ratio},
            **window,
        )
        for ratio, system in cells
    ]
    return [
        MixedResult(ratio=":".join(str(x) for x in ratio), system=system, report=result.report)
        for (ratio, system), result in zip(cells, (executor or SweepExecutor()).run(specs))
    ]


# ----------------------------------------------------------------------
# Fig. 29 — harvested CPU cores: NEO+ vs sllm+c+s vs SLINFER
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class HarvestPoint:
    cores_per_gpu: int
    system: str
    slo_miss_rate: float


def _harvest_cluster(cores: int) -> str:
    """The Fig. 29 cluster: 4 GPUs plus 4 CPU nodes of ``cores`` cores.

    0 cores means no CPU nodes at all; a whole 32-core Xeon per node is
    the paper testbed itself.
    """
    return {0: "cpu0-gpu4", 32: "paper"}.get(cores, f"harvest{cores}")


def run_harvested_cores(
    core_counts: tuple[int, ...] = (0, 8, 16, 32),
    n_models: int = 64,
    scale: ExperimentScale | None = None,
    seed: int = 1,
    executor: SweepExecutor | None = None,
) -> list[HarvestPoint]:
    window = (scale or current_scale()).spec_axes()
    cells = [
        (cores, system) for cores in core_counts for system in ("neo+", "sllm+c+s", "slinfer")
    ]
    specs = [
        RunSpec(
            # NEO+ harvests the same cores to assist its GPU decode.
            system=f"neo+{cores}" if system == "neo+" and cores > 0 else system,
            n_models=n_models,
            cluster=_harvest_cluster(cores),
            seed=seed,
            **window,
        )
        for cores, system in cells
    ]
    return [
        HarvestPoint(cores_per_gpu=cores, system=system, slo_miss_rate=result.report.slo_miss_rate)
        for (cores, system), result in zip(cells, (executor or SweepExecutor()).run(specs))
    ]
