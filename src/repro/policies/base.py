"""Policy protocols and the bundle that composes them into a system.

A serving system is the fixed event-driven core
(:class:`~repro.core.system.ServingSystem`) plus four swappable policy
objects:

* :class:`PlacementPolicy` — where a request runs, and the instance
  lifecycle mechanics (launch/unload) that placement implies.
* :class:`ReclaimPolicy` — when idle instances are torn down.
* :class:`AdmissionPolicy` — which instances a request may use and
  where it continues after prefill (PD disaggregation lives here).
* :class:`WorkSelectionPolicy` — which work item an executor runs next
  and any latency adjustment (NEO's CPU-assisted decode lives here).

Policies hold per-run state on themselves: a :class:`PolicyBundle` is
instantiated fresh for every system, and ``prepare(system)`` is called
once before the trace starts.  Policies that need to react mid-run
subscribe to the system's event bus during ``prepare`` — SLINFER's
watermark-driven memory ops ride on ``IterationFinished`` /
``RequestCompleted`` rather than on inheritance hooks.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Optional

from repro.compute.scheduler import WorkItem, WorkKind, select_next_work

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import SystemConfig
    from repro.core.system import ServingSystem
    from repro.engine.executor import Executor
    from repro.engine.instance import Instance
    from repro.engine.request import Request
    from repro.workloads.spec import Workload


class Policy:
    """Common behaviour for all policy kinds."""

    kind: str = "policy"
    #: the registry spec this policy was built from (set by the resolver)
    spec: str = ""

    def prepare(self, system: "ServingSystem", workload: "Workload") -> None:
        """Build per-run state and subscribe to the system's event bus."""

    def describe(self) -> str:
        return self.spec or type(self).__name__


class PlacementPolicy(Policy):
    """Decides where requests run and owns instance lifecycle mechanics."""

    kind = "placement"

    def try_place(self, system: "ServingSystem", request: "Request") -> bool:
        """Attempt to put ``request`` onto an instance; False → queue it."""
        raise NotImplementedError

    def unload(self, system: "ServingSystem", instance: "Instance") -> None:
        """Tear down ``instance`` and release the resources it holds."""
        raise NotImplementedError


class ReclaimPolicy(Policy):
    """Decides when idle instances are reclaimed."""

    kind = "reclaim"

    def keepalive_seconds(self, system: "ServingSystem", instance: "Instance") -> float:
        """How long an idle instance is kept before the reclaim check."""
        return system.config.keepalive

    def reclaim(self, system: "ServingSystem", instance: "Instance") -> None:
        """Called when an instance has stayed idle past its keep-alive.

        The default delegates the teardown mechanics to the placement
        policy, which owns the instance lifecycle — reclaim policies
        decide *whether/when*, placement decides *how*.
        """
        system.policies.placement.unload(system, instance)


class AdmissionPolicy(Policy):
    """Filters instance eligibility and routes post-prefill continuation."""

    kind = "admission"

    def allow_instance(
        self, system: "ServingSystem", instance: "Instance", request: "Request"
    ) -> bool:
        return True

    def on_instance_created(self, system: "ServingSystem", instance: "Instance") -> None:
        """Called right after an instance object is created."""

    def admit_after_prefill(
        self, system: "ServingSystem", instance: "Instance", request: "Request"
    ) -> None:
        """Where decode continues after prefill (PD hands off here)."""
        from repro.engine.request import RequestState

        request.state = RequestState.DECODING
        instance.admit_to_batch(request)


class WorkSelectionPolicy(Policy):
    """Chooses the next work item per executor and scales its latency."""

    kind = "work"

    def select(self, system: "ServingSystem", executor: "Executor") -> Optional[WorkItem]:
        return select_next_work(
            executor, system.sim.now, instances=system.runnable_instances(executor)
        )

    def latency_factor(
        self, system: "ServingSystem", executor: "Executor", kind: WorkKind
    ) -> float:
        """Multiplier on the iteration latency law for ``kind`` on ``executor``.

        Must be a pure function of ``(executor, kind)`` for the whole run:
        the vectorized engine evaluates it once per decode chain.
        """
        return 1.0


#: ``--policy`` kinds, in presentation order.
POLICY_KINDS: tuple[str, ...] = ("placement", "reclaim", "admission", "work")


@dataclass
class PolicyBundle:
    """A complete policy assignment for one serving system.

    ``name`` is the system label reports carry (e.g. ``slinfer`` or
    ``sllm+c+s``); overridden bundles get a ``base[kind=spec,...]``
    label so ablations are self-describing in every report.
    """

    name: str
    placement: PlacementPolicy
    reclaim: ReclaimPolicy = field(default_factory=ReclaimPolicy)
    admission: AdmissionPolicy = field(default_factory=AdmissionPolicy)
    work: WorkSelectionPolicy = field(default_factory=WorkSelectionPolicy)
    #: builds the config the system uses when the caller passes none
    default_config: Optional[Callable[[], "SystemConfig"]] = None

    def prepare(self, system: "ServingSystem", workload: "Workload") -> None:
        """Prepare every policy, placement first (it builds the substrate)."""
        self.placement.prepare(system, workload)
        self.reclaim.prepare(system, workload)
        self.admission.prepare(system, workload)
        self.work.prepare(system, workload)

    def policy_of(self, kind: str) -> Policy:
        try:
            return {
                "placement": self.placement,
                "reclaim": self.reclaim,
                "admission": self.admission,
                "work": self.work,
            }[kind]
        except KeyError:
            raise KeyError(
                f"unknown policy kind {kind!r} (known: {', '.join(POLICY_KINDS)})"
            ) from None

    def with_policies(self, label_suffix: str = "", **kinds: Policy) -> "PolicyBundle":
        """A copy with some policies replaced and the label annotated."""
        unknown = set(kinds) - set(POLICY_KINDS)
        if unknown:
            raise KeyError(f"unknown policy kind(s): {', '.join(sorted(unknown))}")
        bundle = replace(self, **kinds)
        if label_suffix:
            bundle.name = f"{self.name}[{label_suffix}]"
        return bundle

    def describe(self) -> dict[str, str]:
        return {kind: self.policy_of(kind).describe() for kind in POLICY_KINDS}
