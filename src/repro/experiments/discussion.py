"""§X discussion experiments: INT4 quantization for 22B-model sharing."""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.cluster import Cluster
from repro.metrics.report import RunReport
from repro.models.catalog import CODESTRAL_22B, Quantization
from repro.registry import system_factory
from repro.runner import ExperimentScale, current_scale
from repro.workloads.azure_serverless import (
    AzureServerlessConfig,
    replica_models,
    synthesize_azure_trace,
)


@dataclass(frozen=True)
class QuantizationResult:
    quantization: str
    gpus_used: float
    slo_rate: float
    report: RunReport


def run_quantization_comparison(
    n_models: int = 32,
    scale: ExperimentScale | None = None,
    seed: int = 1,
) -> list[QuantizationResult]:
    """§X: 32 Codestral-22B deployments, fp16 vs INT4 weights.

    FP16 22B weights (≈44 GB) force near-exclusive GPU use; INT4 (≈11 GB)
    restores sharing and cuts GPU usage (the paper measures 3.8 → 2.6).
    """
    scale = scale or current_scale()
    results = []
    for quantization in (Quantization.FP16, Quantization.INT4):
        model = (
            CODESTRAL_22B
            if quantization is Quantization.FP16
            else CODESTRAL_22B.quantized(quantization)
        )
        config = AzureServerlessConfig(
            n_models=n_models,
            duration=scale.duration,
            requests_per_model=scale.requests_per_model,
            seed=seed,
        )
        workload = synthesize_azure_trace(replica_models(model, n_models), config)
        report = system_factory("slinfer")(Cluster.build(0, 4)).run(workload)
        results.append(
            QuantizationResult(
                quantization=quantization.value,
                gpus_used=report.avg_nodes_used_gpu,
                slo_rate=report.slo_rate,
                report=report,
            )
        )
    return results
