"""Composable serving-system policies and the typed event bus.

The public extension surface of the reproduction: build a system with
``ServingSystem(cluster, policies=PolicyBundle(...))``, pick policies
from the per-kind registries (or register your own), and observe runs
through :class:`~repro.policies.events.EventBus` subscribers.
"""

from repro.policies.admission import FifoAdmission, PdAdmission
from repro.policies.base import (
    POLICY_KINDS,
    AdmissionPolicy,
    PlacementPolicy,
    Policy,
    PolicyBundle,
    ReclaimPolicy,
    WorkSelectionPolicy,
)
from repro.policies.events import (
    DecodeChainHandler,
    Event,
    EventBus,
    InstanceLoaded,
    InstanceUnloaded,
    IterationFinished,
    MemoryOpIssued,
    OverheadMeasured,
    RequestArrived,
    RequestCompleted,
    RequestDropped,
    RequestQueued,
)
from repro.policies.observers import (
    MemoryUsageSampler,
    MetricsObserver,
    Observer,
    default_observers,
)
from repro.policies.reclaim import EagerReclaim, KeepAliveReclaim, NeverReclaim
from repro.policies.registry import (
    ADMISSION_POLICIES,
    BUNDLES,
    PLACEMENT_POLICIES,
    POLICY_REGISTRIES,
    RECLAIM_POLICIES,
    WORK_POLICIES,
    apply_overrides,
    build_bundle,
    resolve_policy,
)
from repro.policies.slinfer import SlinferPlacement
from repro.policies.sllm import SllmPlacement
from repro.policies.work import CpuAssistWork, DefaultWorkSelection

__all__ = [
    "ADMISSION_POLICIES",
    "AdmissionPolicy",
    "BUNDLES",
    "CpuAssistWork",
    "DecodeChainHandler",
    "DefaultWorkSelection",
    "EagerReclaim",
    "Event",
    "EventBus",
    "FifoAdmission",
    "InstanceLoaded",
    "InstanceUnloaded",
    "IterationFinished",
    "KeepAliveReclaim",
    "MemoryOpIssued",
    "MemoryUsageSampler",
    "MetricsObserver",
    "NeverReclaim",
    "Observer",
    "OverheadMeasured",
    "PLACEMENT_POLICIES",
    "POLICY_KINDS",
    "POLICY_REGISTRIES",
    "PdAdmission",
    "PlacementPolicy",
    "Policy",
    "PolicyBundle",
    "RECLAIM_POLICIES",
    "ReclaimPolicy",
    "RequestArrived",
    "RequestCompleted",
    "RequestDropped",
    "RequestQueued",
    "SlinferPlacement",
    "SllmPlacement",
    "WORK_POLICIES",
    "WorkSelectionPolicy",
    "apply_overrides",
    "build_bundle",
    "default_observers",
    "resolve_policy",
]
