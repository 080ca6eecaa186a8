"""Synthetic Azure Serverless Trace (Fig. 21).

Following ServerlessLLM's methodology, the paper maps each LLM to one
serverless function from the Azure trace [61] and replays 30-minute
segments with 32 / 64 / 128 functions.  The published characteristics we
reproduce (Figs. 3, 12, 21 and §III-C):

* totals of ≈2366 / 4684 / 9266 requests per 30 min at 32 / 64 / 128 models
  (≈74 requests/model on average);
* a heavy-tailed per-model rate: "most models have few requests, while top
  models have many"; the top 1 % of functions contributes ≈26 % of requests;
* burstiness: hot functions see concurrency spikes from 1 to >128, cold
  functions receive sporadic single requests.

The generator draws per-model base rates from a Zipf law (exponent ≈1.2
yields the 26 % top-share), then emits a mix of Poisson singletons and
clustered bursts whose size scales with the model's popularity.

:func:`synthesize_azure_trace` returns the materialized
:class:`~repro.workloads.spec.Workload`.  The scenarios built on this
arrival process take the same draws as a lazy
:class:`~repro.workloads.stream.GroupedStream` under their own names.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.models.catalog import ModelSpec
from repro.sim.rng import make_rng
from repro.workloads.datasets import AZURE_CONV, LengthDistribution
from repro.workloads.spec import Deployment, Workload
from repro.workloads.stream import ArrayGroup, GroupedStream

# Requests per model per 30 minutes in the paper's sampled segments
# (2366/32 ≈ 4684/64 ≈ 9266/128 ≈ 73 requests per model on average).
REQUESTS_PER_MODEL_30MIN = 73.0


@dataclass(frozen=True)
class AzureServerlessConfig:
    """Parameters of the synthetic serverless trace."""

    n_models: int = 64
    duration: float = 1800.0
    requests_per_model: float = REQUESTS_PER_MODEL_30MIN
    zipf_exponent: float = 1.2
    burst_fraction: float = 0.55  # share of a hot model's traffic in bursts
    burst_mean_gap: float = 0.35  # seconds between arrivals inside a burst
    max_burst_size: int = 160
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_models <= 0:
            raise ValueError("n_models must be positive")
        if self.duration <= 0:
            raise ValueError("duration must be positive")


def _zipf_weights(n: int, exponent: float, rng: np.random.Generator) -> np.ndarray:
    """Normalized Zipf popularity, randomly assigned to model indices."""
    ranks = np.arange(1, n + 1, dtype=float)
    weights = ranks**-exponent
    weights /= weights.sum()
    rng.shuffle(weights)
    return weights


def clamp_input_len(input_len: int, output_len: int, max_context: int) -> int:
    """Trim the prompt so prompt + generation fits the model context."""
    return max(1, min(input_len, max_context - output_len - 1))


def clamp_input_lens(input_lens: np.ndarray, output_lens: np.ndarray, max_context: int) -> np.ndarray:
    """Vectorized :func:`clamp_input_len` over paired length arrays."""
    return np.maximum(1, np.minimum(input_lens, max_context - output_lens - 1))


def _burst_sizes(total: int, popularity: float, max_size: int, rng: np.random.Generator) -> list[int]:
    """Split ``total`` burst requests into clusters; hot models burst bigger.

    Draws stay scalar here on purpose: the number of geometric draws is
    determined by the values drawn, so any batched over-draw would
    advance the shared arrival stream and change every later arrival.
    """
    sizes: list[int] = []
    remaining = total
    # Popular models produce bursts around ~1/3 of their per-minute peak.
    mean_size = max(2.0, min(max_size, 2.0 + 400.0 * popularity))
    while remaining > 0:
        size = int(min(remaining, max(2, rng.geometric(1.0 / mean_size))))
        sizes.append(size)
        remaining -= size
    return sizes


def synthesize_azure_trace(
    models: dict[str, ModelSpec],
    config: AzureServerlessConfig | None = None,
    length_distribution: LengthDistribution = AZURE_CONV,
    tp_degrees: dict[str, int] | None = None,
) -> Workload:
    """Generate a multi-model serverless workload.

    ``models`` maps deployment names to their model specs (replicas of the
    same spec get distinct names, as in §IX-B where "32, 64, and 128 replica
    models are generated from Llama-3.2-3B").
    """
    return _azure_stream(
        f"azure-serverless-{len(models)}m", models, config, length_distribution, tp_degrees
    ).materialize()


def _azure_stream(
    trace_name: str,
    models: dict[str, ModelSpec],
    config: AzureServerlessConfig | None,
    length_distribution: LengthDistribution,
    tp_degrees: dict[str, int] | None = None,
) -> GroupedStream:
    """The synthetic serverless trace as emission groups, named ``trace_name``.

    The scenarios built on this arrival process (``azure``,
    ``mixed-fleet``, ``het-fleet``, ``cpu-harvest``) return it directly.
    """
    config = config or AzureServerlessConfig(n_models=len(models))
    if len(models) != config.n_models:
        config = AzureServerlessConfig(
            n_models=len(models),
            duration=config.duration,
            requests_per_model=config.requests_per_model,
            zipf_exponent=config.zipf_exponent,
            burst_fraction=config.burst_fraction,
            burst_mean_gap=config.burst_mean_gap,
            max_burst_size=config.max_burst_size,
            seed=config.seed,
        )
    rate_rng = make_rng(config.seed, "azure-rates")
    arrival_rng = make_rng(config.seed, "azure-arrivals")
    length_rng = make_rng(config.seed, "azure-lengths")

    names = list(models)
    weights = _zipf_weights(len(names), config.zipf_exponent, rate_rng)
    total_target = config.requests_per_model * len(names)

    groups: list[ArrayGroup] = []
    for name, weight in zip(names, weights):
        expected = total_target * weight
        count = int(arrival_rng.poisson(expected))
        if count == 0:
            continue
        burst_count = int(count * config.burst_fraction) if expected > 30 else 0
        single_count = count - burst_count

        times: list[float] = arrival_rng.uniform(
            0.0, config.duration, size=single_count
        ).tolist()
        for size in _burst_sizes(burst_count, weight, config.max_burst_size, arrival_rng):
            start = float(arrival_rng.uniform(0.0, config.duration))
            gaps = arrival_rng.exponential(config.burst_mean_gap, size=size)
            burst_times = start + np.cumsum(gaps)
            times.extend(t for t in burst_times.tolist() if t < config.duration)

        # Lengths are drawn and clamped as whole arrays (inputs first,
        # then outputs — the same stream order as per-request sampling).
        input_lens = length_distribution.sample_input_lens(length_rng, len(times))
        output_lens = length_distribution.sample_output_lens(length_rng, len(times))
        input_lens = clamp_input_lens(input_lens, output_lens, models[name].max_context)
        groups.append(ArrayGroup(name, times, input_lens, output_lens))

    tp_degrees = tp_degrees or {}
    deployments = {
        name: Deployment(name=name, model=spec, tp_degree=tp_degrees.get(name, 1))
        for name, spec in models.items()
    }
    return GroupedStream(trace_name, deployments, groups, config.duration)


def replica_models(spec: ModelSpec, count: int, prefix: str | None = None) -> dict[str, ModelSpec]:
    """``count`` deployments replicating one model spec (§IX-B setup)."""
    prefix = prefix or spec.name
    return {f"{prefix}#{i:03d}": spec for i in range(count)}


def mixed_models(
    ratio: dict[ModelSpec, int],
    total: int,
    seed: int = 0,
) -> dict[str, ModelSpec]:
    """A mixed-size model population in the given ratio (Figs. 25-26)."""
    if total <= 0:
        raise ValueError("total must be positive")
    weight_sum = sum(ratio.values())
    if weight_sum <= 0:
        raise ValueError("ratio weights must sum to a positive value")
    models: dict[str, ModelSpec] = {}
    specs = list(ratio)
    counts = [round(total * ratio[s] / weight_sum) for s in specs]
    # Fix rounding drift on the most common spec.
    drift = total - sum(counts)
    counts[int(np.argmax(counts))] += drift
    rng = make_rng(seed, "mixed-models")
    entries: list[ModelSpec] = []
    for spec, count in zip(specs, counts):
        entries.extend([spec] * count)
    rng.shuffle(entries)  # interleave sizes across popularity ranks
    for index, spec in enumerate(entries):
        models[f"{spec.name}#{index:03d}"] = spec
    return models
