"""Shared experiment plumbing on top of the run-orchestration layer.

Scale control lives in :mod:`repro.runner.scale`; systems, clusters, and
scenarios are resolved through :mod:`repro.registry`.  This module keeps
the experiment-facing conveniences.
"""

from __future__ import annotations

from repro.models.catalog import ModelSpec
from repro.registry import SCENARIOS, systems_named
from repro.runner.scale import (
    FULL_SCALE,
    QUICK_SCALE,
    SMOKE_SCALE,
    ExperimentScale,
    current_scale,
)
from repro.workloads.datasets import AZURE_CONV, LengthDistribution
from repro.workloads.spec import Workload

__all__ = [
    "ExperimentScale",
    "FULL_SCALE",
    "QUICK_SCALE",
    "SMOKE_SCALE",
    "current_scale",
    "make_azure_workload",
    "systems_named",
]


def make_azure_workload(
    model: ModelSpec,
    n_models: int,
    scale: ExperimentScale | None = None,
    seed: int = 1,
    length_distribution: LengthDistribution = AZURE_CONV,
) -> Workload:
    """The §IX-B workload: n replica deployments on the Azure trace."""
    scale = scale or current_scale()
    return SCENARIOS.get("azure")(
        model,
        n_models,
        scale.duration,
        scale.requests_per_model,
        seed,
        dataset=length_distribution.name,
    ).materialize()

