"""repro — a reproduction of "Towards Resource-Efficient Serverless LLM
Inference with SLINFER" (HPCA 2026).

Public API quick reference::

    from repro import ServingSystem, paper_testbed
    from repro.workloads import synthesize_azure_trace, AzureServerlessConfig
    from repro.workloads.azure_serverless import replica_models
    from repro.models import LLAMA2_7B

    workload = synthesize_azure_trace(replica_models(LLAMA2_7B, 32),
                                      AzureServerlessConfig(n_models=32))
    report = ServingSystem(paper_testbed(), policies="slinfer").run(workload)
    print(report.summary_line())

Systems are composed from policy bundles (``repro.policies``):
placement, reclaim, admission, and work-selection policies plus a typed
event bus for metrics/observability.  ``python -m repro list policies``
shows the tables; ``repro sweep --policy kind=spec,...`` sweeps
mechanism ablations.

Sub-packages: ``sim`` (event kernel), ``models``, ``hardware``, ``perf``
(calibrated latency substrate + §VI-B quantification), ``engine``
(instances/requests/KV-cache), ``compute`` (headroom & shadow validation),
``memory`` (watermark & hazard-aware orchestration), ``consolidation``,
``policies`` (composable policy layer + event bus), ``core`` (the
serving loop), ``workloads``, ``metrics``, and ``experiments`` (one
runner per paper table/figure).
"""

from repro.core import ServingSystem, SlinferConfig, SystemConfig
from repro.hardware import Cluster, paper_testbed
from repro.policies import EventBus, PolicyBundle, build_bundle
from repro.metrics import RunReport
from repro.registry import CLUSTERS, SCENARIOS, SYSTEMS, build_cluster, system_factory
from repro.runner import (
    ResultCache,
    RunResult,
    RunSpec,
    SweepExecutor,
    execute_spec,
    expand_grid,
)
from repro.slo import DEFAULT_SLO, SloPolicy, ttft_slo

__version__ = "1.1.0"

__all__ = [
    "CLUSTERS",
    "Cluster",
    "DEFAULT_SLO",
    "EventBus",
    "ResultCache",
    "RunReport",
    "RunResult",
    "RunSpec",
    "PolicyBundle",
    "SCENARIOS",
    "SYSTEMS",
    "ServingSystem",
    "SlinferConfig",
    "SloPolicy",
    "SweepExecutor",
    "SystemConfig",
    "build_bundle",
    "build_cluster",
    "execute_spec",
    "expand_grid",
    "paper_testbed",
    "system_factory",
    "ttft_slo",
    "__version__",
]
