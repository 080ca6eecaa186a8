"""Proactive consolidation with preemption (§VIII-A, Fig. 20b).

When a new request cannot join any existing replica because neighbouring
instances block the scale-up, SLINFER may preempt a neighbour to grow an
instance in place instead of scattering a fragmented replica:

* only neighbours with a **smaller batch size** than the growing instance
  may be preempted, smallest first (never disintegrate larger batches);
* preemption requires shadow validation that (a) every preempted request
  can be rescheduled elsewhere within its SLO and (b) the grown instance
  absorbs the new request within SLOs.

The planner returns a :class:`PreemptionPlan`; the serving system executes
it (tears the victim down, migrates its requests, dispatches the trigger).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.engine.instance import Instance, InstanceState
from repro.engine.request import Request

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.policies.slinfer import SlinferPlacement

MAX_VICTIMS_PER_PLAN = 2


@dataclass
class PreemptionPlan:
    """A validated preemption: who grows, who dies, where requests go."""

    target: Instance  # the instance that grows in place
    victims: list[Instance]
    # Each preempted request and the (already validated) destination.
    migrations: list[tuple[Request, Instance]] = field(default_factory=list)


def _victim_candidates(placement: "SlinferPlacement", target: Instance) -> list[Instance]:
    """Smaller-batch neighbours on the target's executor, smallest first."""
    assert placement.system is not None
    executor = placement.system.executor_for(target)
    neighbours = [
        inst
        for inst in executor.active_instances()
        if inst is not target
        and inst.state is InstanceState.ACTIVE
        and inst.batch_size < target.batch_size
        and not inst.exclusive
        and not placement.unloading(inst)
    ]
    return sorted(neighbours, key=lambda inst: (inst.batch_size, inst.inst_id))


def _destinations_for(
    placement: "SlinferPlacement", victim: Instance, excluded: set[int]
) -> list[tuple[Request, Instance]] | None:
    """Validated destinations for every request of ``victim``.

    Destinations must be other existing replicas of the victim's deployment
    (on different executors).  Any request without a valid destination
    aborts the plan.
    """
    system = placement.system
    assert system is not None
    destinations: list[tuple[Request, Instance]] = []
    replicas = [
        inst
        for inst in system.instances_of(victim.deployment)
        if inst is not victim and inst.inst_id not in excluded
        and system.executor_for(inst) is not system.executor_for(victim)
    ]
    if not replicas and victim.requests:
        return None
    for request in victim.requests:
        placed = False
        for replica in replicas:
            if placement.validate_migration(replica, request):
                destinations.append((request, replica))
                placed = True
                break
        if not placed:
            return None
    return destinations


def plan_preemption(
    placement: "SlinferPlacement", request: Request, deployment: str
) -> PreemptionPlan | None:
    """Find a preemption that lets some replica of ``deployment`` absorb
    ``request``; None when no valid plan exists."""
    system = placement.system
    assert system is not None
    replicas = [
        inst
        for inst in system.instances_of(deployment)
        if inst.state is InstanceState.ACTIVE and not inst.exclusive
    ]
    # Grow the biggest replica first — consistent with reactive bin-packing.
    replicas.sort(key=lambda inst: (-inst.batch_size, inst.inst_id))
    for target in replicas:
        victim_ids: set[int] = set()
        victims: list[Instance] = []
        migrations: list[tuple[Request, Instance]] = []
        for victim in _victim_candidates(placement, target):
            if len(victims) >= MAX_VICTIMS_PER_PLAN:
                break
            moves = _destinations_for(placement, victim, victim_ids)
            if moves is None:
                continue
            victims.append(victim)
            victim_ids.add(victim.inst_id)
            migrations.extend(moves)
            if placement.validate_after_preemption(target, request, victims):
                return PreemptionPlan(target=target, victims=victims, migrations=migrations)
    return None
