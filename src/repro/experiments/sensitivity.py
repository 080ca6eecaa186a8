"""Sensitivity analyses (§IX-I): Figs. 27, 30, 31, 34-35."""

from __future__ import annotations

from dataclasses import dataclass

from repro.metrics.report import RunReport
from repro.models.catalog import LLAMA31_8B
from repro.runner import ExperimentScale, RunSpec, SweepExecutor, current_scale


# ----------------------------------------------------------------------
# Fig. 27 — BurstGPT load levels
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BurstGptPoint:
    rps: float
    system: str
    report: RunReport


def run_burstgpt_loads(
    rps_levels: tuple[float, ...] = (0.5, 1.0, 2.0, 4.0),
    n_models: int = 64,
    scale: ExperimentScale | None = None,
    seed: int = 1,
    executor: SweepExecutor | None = None,
) -> list[BurstGptPoint]:
    window = (scale or current_scale()).spec_axes()
    cells = [(rps, system) for rps in rps_levels for system in ("sllm+c+s", "slinfer")]
    specs = [
        RunSpec(
            system=system,
            scenario="burstgpt",
            n_models=n_models,
            seed=seed,
            scenario_params={"aggregate_rps": rps},
            **window,
        )
        for rps, system in cells
    ]
    return [
        BurstGptPoint(rps=rps, system=system, report=result.report)
        for (rps, system), result in zip(cells, (executor or SweepExecutor()).run(specs))
    ]


# ----------------------------------------------------------------------
# Fig. 30 — keep-alive threshold sensitivity
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class KeepalivePoint:
    threshold: float
    system: str
    gpus_used: float
    p95_ttft: float


def run_keepalive_sweep(
    thresholds: tuple[float, ...] = (0.0, 1.0, 2.0, 4.0, 8.0),
    n_models: int = 64,
    scale: ExperimentScale | None = None,
    seed: int = 1,
    executor: SweepExecutor | None = None,
) -> list[KeepalivePoint]:
    window = (scale or current_scale()).spec_axes()
    cells = [(threshold, system) for threshold in thresholds for system in ("sllm+c+s", "slinfer")]
    specs = [
        RunSpec(
            system=system, n_models=n_models, seed=seed, config={"keepalive": threshold}, **window
        )
        for threshold, system in cells
    ]
    points = []
    for (threshold, system), result in zip(cells, (executor or SweepExecutor()).run(specs)):
        ttft_cdf = result.report.ttft_cdf()
        points.append(
            KeepalivePoint(
                threshold=threshold,
                system=system,
                gpus_used=result.report.avg_nodes_used_gpu,
                p95_ttft=ttft_cdf.percentile(95.0) if not ttft_cdf.empty else float("nan"),
            )
        )
    return points


# ----------------------------------------------------------------------
# Fig. 31 — KV-cache watermark sensitivity
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WatermarkPoint:
    watermark: float
    kv_utilization: float
    scaling_overhead: float  # share of node-busy time spent resizing
    migration_rate: float


def run_watermark_sweep(
    watermarks: tuple[float, ...] = (0.0, 0.10, 0.25, 0.50, 1.00),
    n_models: int = 64,
    scale: ExperimentScale | None = None,
    seed: int = 1,
    executor: SweepExecutor | None = None,
) -> list[WatermarkPoint]:
    window = (scale or current_scale()).spec_axes()
    specs = [
        RunSpec(
            system="slinfer",
            n_models=n_models,
            seed=seed,
            config={"watermark": watermark},
            **window,
        )
        for watermark in watermarks
    ]
    return [
        WatermarkPoint(
            watermark=watermark,
            kv_utilization=result.report.mean_kv_utilization,
            scaling_overhead=result.report.scaling_time_fraction,
            # §IX-I5 reports the *underestimation*-driven migration rate.
            migration_rate=result.report.evictions / max(1, result.report.total_requests),
        )
        for watermark, result in zip(watermarks, (executor or SweepExecutor()).run(specs))
    ]


# ----------------------------------------------------------------------
# Fig. 35 — dataset sweep with 8B models
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DatasetResult:
    dataset: str
    system: str
    report: RunReport


def run_dataset_sweep(
    dataset_names: tuple[str, ...] = (
        "humaneval",
        "azure-code",
        "azure-conversation",
        "longbench",
        "sharegpt",
    ),
    n_models: int = 64,
    scale: ExperimentScale | None = None,
    seed: int = 1,
    executor: SweepExecutor | None = None,
) -> list[DatasetResult]:
    """§IX-I1: Llama-3.1-8B across the five length distributions."""
    window = (scale or current_scale()).spec_axes()
    cells = [(dataset, system) for dataset in dataset_names for system in ("sllm+c+s", "slinfer")]
    specs = [
        RunSpec(
            system=system,
            model=LLAMA31_8B.name,
            n_models=n_models,
            seed=seed,
            scenario_params={"dataset": dataset},
            **window,
        )
        for dataset, system in cells
    ]
    return [
        DatasetResult(dataset=dataset, system=system, report=result.report)
        for (dataset, system), result in zip(cells, (executor or SweepExecutor()).run(specs))
    ]
