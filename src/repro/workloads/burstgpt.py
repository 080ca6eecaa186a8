"""Synthetic BurstGPT trace (§IX-I2, Fig. 27).

BurstGPT is a single-model LLM invocation trace with bursty arrivals.  The
paper emulates a serverless environment by distributing its invocations
across 64 models following a Pareto distribution, and samples segments at
aggregate loads of 0.5 / 1 / 2 / 4 requests per second.

We model the aggregate arrival process as a renewal process with Gamma
inter-arrivals (shape < 1 ⇒ coefficient of variation > 1, i.e. burstier
than Poisson, matching the trace's published character).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.models.catalog import ModelSpec
from repro.sim.rng import make_rng
from repro.workloads.datasets import AZURE_CONV, LengthDistribution
from repro.workloads.spec import Deployment, RequestSpec, Workload
from repro.workloads.stream import GroupedStream, SpecGroup


@dataclass(frozen=True)
class BurstGPTConfig:
    aggregate_rps: float = 1.0
    duration: float = 1800.0
    n_models: int = 64
    gamma_shape: float = 0.35  # CV ≈ 1.7 — bursty arrivals
    pareto_alpha: float = 1.1  # model-popularity spread (§IX-I2 "Pareto")
    seed: int = 0

    def __post_init__(self) -> None:
        if self.aggregate_rps <= 0:
            raise ValueError("aggregate_rps must be positive")
        if self.n_models <= 0:
            raise ValueError("n_models must be positive")


def synthesize_burstgpt_trace(
    models: dict[str, ModelSpec],
    config: BurstGPTConfig | None = None,
    length_distribution: LengthDistribution = AZURE_CONV,
) -> Workload:
    """Generate a BurstGPT-style workload over ``models``."""
    return _burstgpt_stream(models, config, length_distribution).materialize()


def _burstgpt_stream(
    models: dict[str, ModelSpec],
    config: BurstGPTConfig | None,
    length_distribution: LengthDistribution,
) -> GroupedStream:
    """The BurstGPT-style trace as one emission group (the ``burstgpt``
    scenario returns it directly)."""
    config = config or BurstGPTConfig(n_models=len(models))
    if len(models) != config.n_models:
        raise ValueError(
            f"got {len(models)} models but config.n_models={config.n_models}"
        )
    arrival_rng = make_rng(config.seed, "burstgpt-arrivals")
    assign_rng = make_rng(config.seed, "burstgpt-assign")
    length_rng = make_rng(config.seed, "burstgpt-lengths")

    mean_gap = 1.0 / config.aggregate_rps
    expected = int(config.duration * config.aggregate_rps * 1.2) + 10
    gaps = arrival_rng.gamma(config.gamma_shape, mean_gap / config.gamma_shape, size=expected)
    times = np.cumsum(gaps)
    times = times[times < config.duration]

    names = list(models)
    popularity = assign_rng.pareto(config.pareto_alpha, size=len(names)) + 1.0
    popularity /= popularity.sum()
    assignments = assign_rng.choice(len(names), size=len(times), p=popularity)

    pairs = length_distribution.sample_pairs(length_rng, len(times))
    requests = []
    for time, model_idx, (input_len, output_len) in zip(times, assignments, pairs):
        name = names[int(model_idx)]
        max_context = models[name].max_context
        input_len = max(1, min(input_len, max_context - output_len - 1))
        requests.append(RequestSpec(name, float(time), input_len, output_len))

    deployments = {name: Deployment(name=name, model=spec) for name, spec in models.items()}
    return GroupedStream(
        f"burstgpt-{config.aggregate_rps:g}rps",
        deployments,
        [SpecGroup(requests)],
        config.duration,
    )
