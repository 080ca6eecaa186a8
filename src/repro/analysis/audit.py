"""Runtime conservation audits behind the ``REPRO_AUDIT=1`` env seam.

When enabled, :meth:`repro.core.system.ServingSystem.run` calls
:func:`audit_system` once the event loop drains — so every
``execute_spec`` (and gateway replay) re-proves, at zero cost to
un-audited runs:

* **KV block conservation** — ``KvShareStore.check_invariants`` on
  every sharing-enabled instance (free + allocated + private ==
  capacity, refcount bookkeeping).
* **Request conservation** — the outcome ledger's arrivals ==
  completed + dropped + in-flight, with in-flight cross-checked against
  where requests actually live (instance batches, prefill queues, the
  admission queue, or mid-migration): a request the system lost track
  of fails the audit even though every counter looks plausible.  In
  exact mode the ledger's counters must also equal a recount of the
  requests it retains — an oracle independent of the live counting.
* **Batch profiles** — every active instance's cached
  :class:`~repro.engine.instance.BatchProfile` answers (KV blocks,
  steps to the earliest completion, the watermark's quiet bound) equal
  sums recomputed from the members: a batch mutated past the
  join/leave/grant seams fails here.

The seam follows the ``REPRO_ENGINE``/``REPRO_WORKERS`` convention:
read per run, so tests can monkeypatch the environment.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Iterable

from repro.engine.instance import Instance, InstanceState
from repro.engine.kvcache import BLOCK_TOKENS
from repro.engine.request import Request, RequestState
from repro.metrics.ledger import COUNTS, ExactLedger, Ledger

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.system import ServingSystem

AUDIT_ENV = "REPRO_AUDIT"

_FINISHED = (RequestState.COMPLETED, RequestState.DROPPED)


class AuditError(AssertionError):
    """A conservation invariant failed at end of run."""


def audit_enabled() -> bool:
    """True when ``REPRO_AUDIT`` is set to a non-empty, non-"0" value."""
    return os.environ.get(AUDIT_ENV, "") not in ("", "0")


def _audit_ledger(ledger: Ledger) -> None:
    """Exact mode: the ledger's live counters must equal a recount of the
    requests it retains.  (Streaming mode releases finished requests.)"""
    if not isinstance(ledger, ExactLedger):
        return
    requests = ledger.requests
    states = [request.state for request in requests]
    scanned = (
        len(states),
        states.count(RequestState.COMPLETED),
        states.count(RequestState.DROPPED),
        sum(request.slo_met for request in requests),
    )
    counted = tuple(getattr(ledger, name) for name in COUNTS)
    if counted != scanned:
        raise AuditError(
            f"outcome ledger drifted: counters {dict(zip(COUNTS, counted))} "
            f"but its requests recount to {dict(zip(COUNTS, scanned))}"
        )


def _resident_requests(system: "ServingSystem") -> dict[int, int]:
    """Map req_id → inst_id for every request resident on an instance.

    Raises :class:`AuditError` if a request is resident twice (two
    instances both believe they own it) or a finished request was left
    behind in a batch.
    """
    resident: dict[int, int] = {}
    for executor in system.executors:
        for instance in executor.instances:
            occupants: Iterable[Request] = (*instance.batch, *instance.prefill_pending)
            for request in occupants:
                if request.req_id in resident:
                    raise AuditError(
                        f"request {request.req_id} resident on two instances "
                        f"({resident[request.req_id]} and {instance.inst_id})"
                    )
                if request.state in _FINISHED:
                    raise AuditError(
                        f"finished request {request.req_id} "
                        f"({request.state.value}) still resident on instance "
                        f"{instance.inst_id}"
                    )
                resident[request.req_id] = instance.inst_id
    return resident


def _audit_profile(instance: Instance) -> None:
    """Check ``instance``'s batch profile against recomputed member sums."""
    from repro.policies.slinfer import quiet_decode_steps

    batch = instance.batch
    profile = instance.batch_profile()
    grants = instance.grants
    kv = instance.kv
    live = sum(kv.used_bytes(request.context_len) for request in batch)
    earliest = min((r.output_len - r.tokens_out for r in batch), default=float("inf"))
    offsets = [r.context_len - r.shared_tokens + BLOCK_TOKENS - 1 for r in batch]
    blocks = sum(offset // BLOCK_TOKENS for offset in offsets)
    horizon = 4 * BLOCK_TOKENS
    answers = {
        "KV bytes": (profile.blocks(grants) * kv.block_bytes, live),
        "steps to completion": (profile.steps_to_completion(grants), earliest),
    }
    for slack in (0, len(batch) + 1):
        budget = blocks + slack
        answers[f"quiet steps at slack {slack}"] = (
            profile.quiet_steps(budget + profile.shared_blocks, grants, horizon),
            quiet_decode_steps(offsets, budget, horizon),
        )
    for what, (cached, recomputed) in answers.items():
        if cached != recomputed:
            raise AuditError(
                f"instance {instance.inst_id} batch profile {what} {cached} != "
                f"recomputed {recomputed} (batch mutated past its seams?)"
            )


def audit_system(system: "ServingSystem") -> None:
    """Run every end-of-run conservation audit; raise AuditError on failure."""
    for executor in system.executors:
        for instance in executor.instances:
            if instance.kv_share is not None:
                instance.kv_share.check_invariants()

    resident = _resident_requests(system)
    queued = {request.req_id for request in system.queued_requests()}
    ledger = system.metrics.outcomes
    _audit_ledger(ledger)
    live = list(ledger.pending.values())
    arrivals, completed, dropped = ledger.arrivals, ledger.completed, ledger.dropped
    if arrivals != completed + dropped + len(live):
        raise AuditError(
            f"request conservation violated: {arrivals} arrivals != "
            f"{completed} completed + {dropped} dropped + {len(live)} in-flight"
        )
    for request in live:
        if request.req_id in resident or request.req_id in queued:
            continue
        if request.state is RequestState.MIGRATING:
            continue  # in transit between instances (preemption/PD hand-off)
        raise AuditError(
            f"request {request.req_id} leaked: state {request.state.value} "
            "but not resident on any instance, not queued, and not migrating"
        )
    for executor in system.executors:
        for instance in executor.instances:
            if instance.state is InstanceState.ACTIVE:
                _audit_profile(instance)


def maybe_audit(system: "ServingSystem") -> None:
    """Audit ``system`` iff the env seam is enabled."""
    if audit_enabled():
        audit_system(system)


def maybe_audit_store(store: object) -> None:
    """Prove a KV share store's invariants iff the env seam is enabled.

    Called at instance detach, just before the store is cleared — in a
    serverless run every instance is eventually reclaimed, so this is
    the hook that guarantees ``check_invariants`` ran against real
    allocation state (the end-of-run audit only sees instances that
    outlived the workload).
    """
    if store is not None and audit_enabled():
        store.check_invariants()  # type: ignore[attr-defined]
