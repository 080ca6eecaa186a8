"""Motivation-section experiments (Figs. 4-12, 17)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.specs import A100_80GB, XEON_GEN4_32C
from repro.metrics.cdf import Cdf
from repro.models.catalog import (
    CODELLAMA_34B,
    LLAMA2_13B,
    LLAMA2_7B,
    ModelSpec,
)
from repro.perf.laws import LatencyLaw, kv_scaling_seconds
from repro.runner import ExperimentScale, RunSpec, SweepExecutor, current_scale
from repro.slo import ttft_slo
from repro.workloads.azure_serverless import AzureServerlessConfig, synthesize_azure_trace

GIB = 1024**3


# ----------------------------------------------------------------------
# Fig. 4 — ServerlessLLM's serving capacity vs number of models
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CapacityPoint:
    n_models: int
    slo_rate: float


def run_fig4_sllm_capacity(
    counts: tuple[int, ...] = (16, 32, 64, 96, 128),
    scale: ExperimentScale | None = None,
    seed: int = 1,
    executor: SweepExecutor | None = None,
) -> list[CapacityPoint]:
    window = (scale or current_scale()).spec_axes()
    specs = [
        RunSpec(system="sllm", n_models=n_models, cluster="cpu0-gpu4", seed=seed, **window)
        for n_models in counts
    ]
    return [
        CapacityPoint(n_models=n_models, slo_rate=result.report.slo_rate)
        for n_models, result in zip(counts, (executor or SweepExecutor()).run(specs))
    ]


# ----------------------------------------------------------------------
# Fig. 5 — GPU memory utilization under sllm at 128 models
# ----------------------------------------------------------------------
def run_fig5_memory_utilization(
    n_models: int = 128,
    scale: ExperimentScale | None = None,
    seed: int = 1,
    executor: SweepExecutor | None = None,
) -> Cdf:
    window = (scale or current_scale()).spec_axes()
    spec = RunSpec(system="sllm", n_models=n_models, cluster="cpu0-gpu4", seed=seed, **window)
    [result] = (executor or SweepExecutor()).run([spec])
    return result.report.memory_utilization_cdf()


# ----------------------------------------------------------------------
# Fig. 6 — TTFT vs input length across hardware and model sizes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TtftCurve:
    label: str  # e.g. "C-7B"
    lengths: list[int]
    ttft_s: list[float]
    slo_s: list[float]


def run_fig6_ttft_curves(
    lengths: tuple[int, ...] = (128, 256, 512, 1024, 2048, 4096, 8192),
) -> list[TtftCurve]:
    curves = []
    for prefix, hardware in (("C", XEON_GEN4_32C), ("G", A100_80GB)):
        for model, tag in (
            (LLAMA2_7B, "7B"),
            (LLAMA2_13B, "13B"),
            (CODELLAMA_34B, "34B"),
        ):
            law = LatencyLaw(hardware, model)
            usable = [length for length in lengths if length <= model.max_context]
            curves.append(
                TtftCurve(
                    label=f"{prefix}-{tag}",
                    lengths=usable,
                    ttft_s=[law.prefill_seconds(length) for length in usable],
                    slo_s=[ttft_slo(length) for length in usable],
                )
            )
    return curves


# ----------------------------------------------------------------------
# Figs. 7-8 — TPOT vs batch size and token length
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TpotCurve:
    label: str  # e.g. "C-512"
    batches: list[int]
    tpot_s: list[float]


def run_fig7_8_tpot_curves(
    model: ModelSpec = LLAMA2_7B,
    batches: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128),
    lengths: tuple[int, ...] = (512, 1024, 2048),
) -> list[TpotCurve]:
    curves = []
    for prefix, hardware in (("C", XEON_GEN4_32C), ("G", A100_80GB)):
        for length in lengths:
            law = LatencyLaw(hardware, model)
            label_len = f"{length // 1024}K" if length >= 1024 else str(length)
            curves.append(
                TpotCurve(
                    label=f"{prefix}-{label_len}",
                    batches=list(batches),
                    tpot_s=[law.decode_seconds(batch, length) for batch in batches],
                )
            )
    return curves


# ----------------------------------------------------------------------
# Figs. 9 & 12 — memory footprint / concurrency under percentile workloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FootprintProfile:
    label: str  # e.g. "P99, 7B"
    footprint_cdf: Cdf  # bytes, sampled over time
    concurrency_cdf: Cdf
    min_footprint: float  # the weights floor
    peak_footprint: float


def _percentile_function_trace(percentile: float, seed: int, scale: ExperimentScale):
    """Arrival stream of the function at a popularity percentile."""
    models = {f"f{i:03d}": LLAMA2_7B for i in range(128)}
    config = AzureServerlessConfig(
        n_models=128,
        duration=scale.duration,
        requests_per_model=scale.requests_per_model,
        seed=seed,
    )
    workload = synthesize_azure_trace(models, config)
    counts = workload.requests_per_model()
    ranked = sorted(counts, key=counts.get, reverse=True)
    index = min(len(ranked) - 1, int(len(ranked) * (100.0 - percentile) / 100.0))
    chosen = ranked[index]
    return [r for r in workload.requests if r.deployment == chosen]


def run_fig9_memory_footprint(
    model: ModelSpec = LLAMA2_7B,
    percentiles: tuple[float, ...] = (99.0, 95.0, 90.0, 80.0, 50.0),
    scale: ExperimentScale | None = None,
    seed: int = 1,
) -> list[FootprintProfile]:
    """Replay percentile-ranked functions and track footprint/concurrency.

    Requests run at GPU speed with unbounded instances (as under sllm,
    where bursts spawn replicas); footprint(t) = instances·weights + KV.
    """
    scale = scale or current_scale()
    law = LatencyLaw(A100_80GB, model)
    from repro.perf.limits import concurrency_limit

    per_instance = max(1, concurrency_limit(A100_80GB, model, 2048))
    profiles = []
    for percentile in percentiles:
        requests = _percentile_function_trace(percentile, seed, scale)
        events = []  # (time, +1/-1, tokens)
        for request in requests:
            decode = law.decode_seconds(8, request.input_len) * request.output_len
            start = request.arrival
            end = start + law.prefill_seconds(request.input_len) + decode
            tokens = request.input_len + request.output_len
            events.append((start, 1, tokens))
            events.append((end, -1, tokens))
        events.sort()
        concurrency = 0
        live_tokens = 0
        footprints = []
        concurrencies = []
        for _time, delta, tokens in events:
            concurrency += delta
            live_tokens += delta * tokens
            instances = max(1, -(-concurrency // per_instance))
            footprint = instances * model.weight_bytes + live_tokens * model.kv_bytes_per_token
            footprints.append(footprint)
            if delta > 0:
                concurrencies.append(concurrency)
        if not footprints:
            footprints = [model.weight_bytes]
            concurrencies = [0]
        profiles.append(
            FootprintProfile(
                label=f"P{percentile:g}, {model.size_label}",
                footprint_cdf=Cdf.from_values(footprints),
                concurrency_cdf=Cdf.from_values(concurrencies),
                min_footprint=float(model.weight_bytes),
                peak_footprint=float(max(footprints)),
            )
        )
    return profiles


# ----------------------------------------------------------------------
# Fig. 17 — KV-cache scaling overhead
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScalingCostPoint:
    cache_gib: int
    down_seconds: float  # scale to 0.5×
    up_seconds: float  # scale to 2×


def run_fig17_scaling_cost(
    sizes_gib: tuple[int, ...] = (2, 4, 8, 16, 32),
) -> list[ScalingCostPoint]:
    points = []
    for size in sizes_gib:
        size_bytes = size * GIB
        used = size_bytes // 2  # half-full cache, as measured
        points.append(
            ScalingCostPoint(
                cache_gib=size,
                down_seconds=kv_scaling_seconds(size_bytes, size_bytes // 2, used),
                up_seconds=kv_scaling_seconds(size_bytes, size_bytes * 2, used),
            )
        )
    return points
