"""Configuration for serving systems.

Defaults mirror the paper's settings: 1 s keep-alive threshold, 25 % KV
watermark, 10 % shadow-validation overestimation (§IX-A, §VI-C, §VII-B).
"""

from __future__ import annotations

from dataclasses import dataclass

GIB = 1024**3


@dataclass(frozen=True)
class SystemConfig:
    """Settings shared by every serving system."""

    keepalive: float = 1.0  # §IX-A / Fig. 30
    seed: int = 0
    jitter_sigma: float = 0.02  # runtime fluctuation of iteration latencies
    sample_interval: float = 5.0  # memory-utilization sampling period
    drain_timeout: float = 240.0  # extra time after the trace to finish work
    max_queue_retries: int = 24  # placement retries per unblocking event
    # SLINFER's probe bounds per placement: the deployment's replicas
    # tried for dispatch (first N in dispatch order), and the nodes tried
    # for a new instance (first N of *each* hardware kind, best-fit order,
    # so a CPU-first order cannot hide the GPUs).
    max_placement_candidates: int = 8


@dataclass(frozen=True)
class SlinferConfig(SystemConfig):
    """SLINFER-specific settings (plus ablation switches, Fig. 23)."""

    watermark: float = 0.25  # §VII-B / Fig. 31
    overestimate: float = 1.10  # §VI-C
    enable_cpu: bool = True  # "w/o CPU" ablation
    enable_sharing: bool = True  # "w/o Sharing" ablation
    enable_consolidation: bool = True  # "w/o Consolidation" ablation
    # Models whose weights exceed this fraction of GPU memory fall back to
    # ServerlessLLM-style exclusive allocation (§IX-E, §X).
    exclusive_weight_fraction: float = 0.45
    output_length_prior: float = 256.0
