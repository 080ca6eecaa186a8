"""Fig. 25 — GPU efficiency under mixed model sizes (2:2:2)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.cluster import paper_testbed
from repro.metrics.cdf import Cdf
from repro.metrics.report import RunReport
from repro.models.catalog import LLAMA2_13B, LLAMA2_7B, LLAMA32_3B
from repro.registry import system_factory
from repro.runner import ExperimentScale, current_scale
from repro.workloads.azure_serverless import (
    AzureServerlessConfig,
    mixed_models,
    synthesize_azure_trace,
)


@dataclass(frozen=True)
class EfficiencyResult:
    system: str
    memory_cdf: Cdf
    batch_cdf: Cdf
    mean_batch: float
    report: RunReport


def run_gpu_efficiency(
    n_models: int = 60,
    load_factor: float = 2.0,
    scale: ExperimentScale | None = None,
    seed: int = 1,
) -> list[EfficiencyResult]:
    """Serve a 3B:7B:13B = 2:2:2 mix and compare memory/batch efficiency.

    ``load_factor`` raises the per-model request rate above the standard
    trace: Fig. 25 studies GPU efficiency under meaningful multiplexing
    pressure, where batching behaviour differentiates the systems.
    """
    scale = scale or current_scale()
    models = mixed_models(
        {LLAMA32_3B: 2, LLAMA2_7B: 2, LLAMA2_13B: 2}, total=n_models, seed=seed
    )
    config = AzureServerlessConfig(
        n_models=n_models,
        duration=scale.duration,
        requests_per_model=scale.requests_per_model * load_factor,
        seed=seed,
    )
    workload = synthesize_azure_trace(models, config)
    results = []
    for name in ("sllm", "sllm+c+s", "slinfer"):
        report = system_factory(name)(paper_testbed()).run(workload)
        gpu_values = []
        for batch, count in report.gpu_batch_histogram.items():
            gpu_values.extend([float(batch)] * count)
        results.append(
            EfficiencyResult(
                system=name,
                memory_cdf=report.memory_utilization_cdf(),
                batch_cdf=Cdf.from_values(gpu_values),
                mean_batch=report.mean_gpu_batch_size,
                report=report,
            )
        )
    return results
