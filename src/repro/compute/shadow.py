"""Shadow validation (§VI-C, Fig. 15).

Before adding a request to a target instance, SLINFER virtually simulates
the node's future compute procedure — the same min-headroom token-level
policy the real executor uses, with every iteration overestimated by 10 % —
and rejects the placement if any of the three cases occurs:

1. the new request's prefill finishes too late (its own TTFT violated);
2. an existing request is delayed past its headroom (TPOT violated);
3. after admission, the aggregate time of one decode iteration across all
   instances on the node exceeds the TPOT SLO (the node cannot sustain the
   steady-state decode load).

The virtual requests decode "forever" within the horizon (their true output
lengths are unknown), which makes the check conservative.

Each candidate instance is captured once, straight from the live instance,
by :meth:`ShadowInstance.snapshot` (the new request is queued with
:meth:`ShadowInstance.admit`); ``shadow_validate`` then advances those
snapshots in place, so a snapshot serves exactly one validation.

A virtual decode step costs O(1), not one update per batch member: each
instance tabulates its members' Eq. 1 deadline minima per decode step with
:func:`~repro.engine.request.deadline_minima`, the same helper the
vectorized engine's step tables use (see :class:`ShadowInstance`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

from repro.engine.instance import InstanceState
from repro.engine.request import _TABLE_SEED, deadline_minima
from repro.perf.profiler import QuantifiedPerf

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.instance import Instance
    from repro.engine.request import Request

DEFAULT_OVERESTIMATE = 1.10
DEFAULT_MAX_ITERATIONS = 400
# Decode rounds every instance must sustain after all prefills are absorbed.
_SETTLE_ROUNDS = 2


class ShadowVerdict(Enum):
    PASS = "pass"
    NEW_REQUEST_TTFT = "case1-new-request-ttft"
    EXISTING_DELAYED = "case2-existing-delayed"
    AGGREGATE_DECODE = "case3-aggregate-decode"


@dataclass(slots=True)
class ShadowRequest:
    """A pending prefill inside the shadow simulation."""

    deadline_base: float  # arrival + TTFT_SLO + grace
    tpot_slo: float
    tokens_out: int
    context_len: int
    prefill_len: int = 0  # tokens to (re-)prefill
    is_new: bool = False
    # Mid-stream requests being migrated (evictions, preempted requests,
    # PD hand-offs) are placed best-effort: their own lateness does not
    # veto a placement — only harm to other requests does.
    soft: bool = False


class _Members:
    """One member group of a shadow batch and its deadline-minima table.

    ``base``/``slo``/``tok0`` are each member's deadline base, TPOT SLO
    and token count as of decode step 0 of its instance (``tok0 = tokens
    − steps`` at join), so after ``k`` virtual decode steps member ``i``
    has ``tok0[i] + k`` tokens out.  ``minima[k]`` is the group's minimum
    next-token deadline after ``k`` steps, ``inf`` while it is empty.
    """

    __slots__ = ("base", "slo", "tok0", "minima")

    def __init__(self, base: list[float], slo: list[float], tok0: list[int]) -> None:
        self.base = base
        self.slo = slo
        self.tok0 = tok0
        self.minima = deadline_minima(base, slo, tok0, 0, _TABLE_SEED)

    def extend(self, size: int) -> None:
        """Grow the table to ``size`` entries from every member."""
        self.minima += deadline_minima(self.base, self.slo, self.tok0, len(self.minima), size)

    def add(self, base: float, slo: float, tok0: int, steps: int) -> None:
        """Add one member, merging its row into the entries from ``steps`` on."""
        self.base.append(base)
        self.slo.append(slo)
        self.tok0.append(tok0)
        minima = self.minima
        row = deadline_minima((base,), (slo,), (tok0,), steps, len(minima))
        minima[steps:] = [d if d < m else m for m, d in zip(minima[steps:], row)]


class ShadowInstance:
    """One instance's virtual state, advanced in place by ``shadow_validate``.

    Pending prefills are a list read through an index cursor (``head``).
    The decode batch is two member groups (:class:`_Members`): ``hard``
    holds the live batch and every prefill absorbed into it, ``soft`` the
    mid-stream request being admitted, whose own lateness vetoes nothing.
    ``steps`` counts the virtual decode steps taken, and each group keeps
    a table of its Eq. 1 deadline minima per step, 8 entries to start and
    doubling as the steps reach its end.  A decode step is then three
    table reads and no per-member loop: case 2 if ``hard[steps] − time <
    0``, ``steps += 1``, ``min_deadline = min(hard[steps], soft[steps])``.
    A join merges the new member's row into the table entries not yet
    stepped past.

    This reproduces the per-member scan bit for bit.  ``tok0 + k`` is an
    exact integer, and its exact float64 conversion followed by a separate
    NumPy multiply and add rounds exactly like Python's ``b + s*t``;
    ``min`` does not depend on evaluation order; and ``x ↦ x − time`` is
    monotone under rounding, so "some hard member is late" holds exactly
    when "the hard minimum is late".

    The batch's decode estimate is cached as well: per round, only the
    stepped or joined instance's estimate changes.
    """

    __slots__ = (
        "perf", "ready_at", "prefill_queue", "head",
        "steps", "hard", "soft",
        "B", "ctx_sum", "min_deadline", "estimate", "settle",
    )

    def __init__(self, perf: QuantifiedPerf, ready_at: float = 0.0) -> None:
        self.perf = perf
        self.ready_at = ready_at  # cold-start completion for LOADING instances
        self.prefill_queue: list[ShadowRequest] = []
        self.head = 0
        self.steps = 0
        self.hard = _Members([], [], [])
        self.soft = _Members([], [], [])
        self.B = 0
        self.ctx_sum = 0
        # min over members of their Eq. 1 next-token deadline.  Headroom
        # comparisons use (min_deadline - now), which equals the minimum
        # headroom because x -> x - now is monotone under rounding.
        self.min_deadline = float("inf")
        # None marks the cached decode estimate dirty; an empty batch's
        # estimate is 0.0 forever (shadow batches never shrink).
        self.estimate: float | None = 0.0
        self.settle = 0  # decode rounds since the last join

    @classmethod
    def snapshot(cls, instance: Instance, perf: QuantifiedPerf) -> ShadowInstance:
        """The virtual twin of a live instance: its pending prefills and batch."""
        ready_at = (
            instance.load_ready_at if instance.state is InstanceState.LOADING else 0.0
        )
        shadow = cls(perf, ready_at)
        shadow.prefill_queue = [
            ShadowRequest(r.deadline_base, r.tpot_slo, r.tokens_out, r.context_len, r.prefill_len)
            for r in instance.prefill_pending
        ]
        batch = instance.batch
        if batch:
            shadow.hard = hard = _Members(
                [r.deadline_base for r in batch],
                [r.tpot_slo for r in batch],
                [r.tokens_out for r in batch],
            )
            shadow.B = len(batch)
            shadow.ctx_sum = sum(r.context_len for r in batch)
            shadow.min_deadline = hard.minima[0]
            shadow.estimate = None
        return shadow

    def admit(self, request: Request, grace: float) -> None:
        """Queue the hypothetical new request, its grace widened by the caller."""
        self.prefill_queue.append(
            ShadowRequest(
                request.arrival + request.ttft_slo + grace,
                request.tpot_slo,
                request.tokens_out,
                request.context_len,
                request.prefill_len,
                is_new=True,
                soft=request.tokens_out > 0,
            )
        )

    def join(self, base: float, slo: float, tok: int, context: int, soft: bool = False) -> None:
        """Add one member (deadline base, TPOT SLO, tokens out, context) to the batch."""
        steps = self.steps
        (self.soft if soft else self.hard).add(base, slo, tok - steps, steps)
        self.B += 1
        self.ctx_sum += context
        self.min_deadline = min(self.hard.minima[steps], self.soft.minima[steps])
        self.estimate = None

    def decode_estimate(self, overestimate: float) -> float:
        if not self.B:
            return 0.0
        if self.estimate is None:
            self.estimate = (
                self.perf.tpot_seconds(self.B, self.ctx_sum / self.B) * overestimate
            )
        return self.estimate


def shadow_validate(
    instances: list[ShadowInstance],
    now: float,
    busy_until: float = 0.0,
    tpot_slo: float = 0.25,
    overestimate: float = DEFAULT_OVERESTIMATE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> ShadowVerdict:
    """Virtually execute the node's future and look for SLO violations.

    ``instances`` must already include the hypothetical new request in its
    candidate instance's prefill queue (flagged ``is_new``).  The snapshots
    are advanced in place and are spent afterwards: build fresh ones for
    every call.
    """
    time = max(now, busy_until)
    new_prefilled = False
    has_new = any(r.is_new for inst in instances for r in inst.prefill_queue)
    pending_prefills = sum(len(inst.prefill_queue) - inst.head for inst in instances)

    for _ in range(max_iterations):
        # Case 3: once every prefill is absorbed, the steady-state decode
        # round across all instances must fit within one TPOT budget.
        if not pending_prefills:
            aggregate = 0
            for inst in instances:
                est = inst.estimate
                if est is None:
                    est = inst.decode_estimate(overestimate)
                aggregate += est
            if aggregate > tpot_slo:
                return ShadowVerdict.AGGREGATE_DECODE
            if all(inst.settle >= _SETTLE_ROUNDS or not inst.B for inst in instances):
                return ShadowVerdict.PASS

        # Work selection, mirroring the real min-headroom scheduler:
        # prefill urgency is the queue head's headroom, decode urgency the
        # batch's minimum headroom; strict < keeps the first seen on ties.
        best_u = 0.0
        best = None
        best_prefill = False
        for inst in instances:
            if inst.ready_at > time:
                continue
            if inst.head < len(inst.prefill_queue):
                request = inst.prefill_queue[inst.head]
                urgency = request.deadline_base + request.tpot_slo * request.tokens_out - time
                if best is None or urgency < best_u:
                    best_u = urgency
                    best = inst
                    best_prefill = True
            if inst.B:
                urgency = inst.min_deadline - time
                if best is None or urgency < best_u:
                    best_u = urgency
                    best = inst
                    best_prefill = False

        if best is None:
            # Idle until the next instance becomes ready, if any.
            future = [
                inst.ready_at
                for inst in instances
                if inst.ready_at > time and (inst.head < len(inst.prefill_queue) or inst.B)
            ]
            if not future:
                return ShadowVerdict.PASS
            time = min(future)
            continue

        if best_prefill:
            request = best.prefill_queue[best.head]
            best.head += 1
            duration = best.perf.ttft_seconds(request.prefill_len) * overestimate
            time += duration
            pending_prefills -= 1
            headroom = request.deadline_base + request.tpot_slo * request.tokens_out - time
            if headroom < 0 and not request.soft:
                return (
                    ShadowVerdict.NEW_REQUEST_TTFT
                    if request.is_new
                    else ShadowVerdict.EXISTING_DELAYED
                )
            best.join(
                request.deadline_base,
                request.tpot_slo,
                request.tokens_out + 1,
                request.context_len + 1,
                request.soft,
            )
            best.settle = 0
            if request.is_new:
                new_prefilled = True
        else:
            duration = best.estimate
            if duration is None:
                duration = best.decode_estimate(overestimate)
            time += duration
            # Case 2 on the pre-step token counts, then the post-step
            # minimum deadline: table reads, see ShadowInstance.
            steps = best.steps
            hard = best.hard.minima
            if hard[steps] - time < 0:
                return ShadowVerdict.EXISTING_DELAYED
            steps += 1
            best.steps = steps
            if steps == len(hard):
                best.hard.extend(2 * steps)
                best.soft.extend(2 * steps)
            best.min_deadline = min(hard[steps], best.soft.minima[steps])
            best.ctx_sum += best.B
            best.estimate = None
            best.settle += 1

    # Horizon exhausted without a violation; if the new request never even
    # got prefilled within the horizon something is deeply oversubscribed.
    if has_new and not new_prefilled:
        soft_new = all(
            r.soft
            for inst in instances
            for r in inst.prefill_queue[inst.head:]
            if r.is_new
        )
        if not soft_new:
            return ShadowVerdict.NEW_REQUEST_TTFT
    return ShadowVerdict.PASS
