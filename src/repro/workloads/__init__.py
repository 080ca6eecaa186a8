"""Workload generation: request traces and token-length distributions.

The paper samples token lengths from the Azure LLM Trace [54] (plus four
other datasets in §IX-I1) and fires requests following the Azure Serverless
Trace [61] mapped onto deployed models, with BurstGPT [66] as an alternative
in §IX-I2.  Those datasets are not redistributable here, so this package
provides seeded synthetic equivalents matching the published summary
statistics (see DESIGN.md §2).
"""

from repro.workloads.azure_serverless import AzureServerlessConfig, synthesize_azure_trace
from repro.workloads.burstgpt import BurstGPTConfig, synthesize_burstgpt_trace
from repro.workloads.datasets import (
    AZURE_CODE,
    AZURE_CONV,
    DATASETS,
    HUMANEVAL,
    LONGBENCH,
    SHAREGPT,
    LengthDistribution,
)
from repro.workloads.popularity import (
    huggingface_size_popularity,
    lmsys_request_rates,
)
from repro.workloads.spec import Deployment, RequestSpec, Workload
from repro.workloads.stream import (
    ArrayGroup,
    GroupedStream,
    IteratorStream,
    MaterializedStream,
    QueueStream,
    SpecGroup,
    StreamClosedError,
    StreamOrderError,
    WorkloadStream,
)

__all__ = [
    "ArrayGroup",
    "GroupedStream",
    "IteratorStream",
    "MaterializedStream",
    "QueueStream",
    "SpecGroup",
    "StreamClosedError",
    "StreamOrderError",
    "WorkloadStream",
    "AZURE_CODE",
    "AZURE_CONV",
    "AzureServerlessConfig",
    "BurstGPTConfig",
    "DATASETS",
    "Deployment",
    "HUMANEVAL",
    "LONGBENCH",
    "LengthDistribution",
    "RequestSpec",
    "SHAREGPT",
    "Workload",
    "huggingface_size_popularity",
    "lmsys_request_rates",
    "synthesize_azure_trace",
    "synthesize_burstgpt_trace",
]
