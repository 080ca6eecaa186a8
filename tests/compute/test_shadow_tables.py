"""Differential tests for the shadow's tabulated Eq. 1 deadline minima.

``shadow_validate`` takes a virtual decode step as table reads (see
``ShadowInstance``).  The oracle below is the per-member step loop it
replaced: every decode step rescans the batch, checks each hard member's
pre-step deadline and advances its token count.  Verdicts must agree on
random snapshots of live instances, and ``deadline_minima``'s NumPy and
Python branches must return the same floats.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.engine.request as request_module
from repro.compute import ShadowInstance, ShadowVerdict, shadow_validate
from repro.engine.instance import Instance, InstanceState
from repro.engine.request import _TABLE_SEED, _VECTOR_MIN, Request, deadline_minima
from repro.hardware import A100_80GB, XEON_GEN4_32C
from repro.hardware.node import Node
from repro.models import LLAMA2_7B
from repro.perf import quantify
from repro.perf.laws import LatencyLaw

_PERFS = (
    quantify(LatencyLaw(A100_80GB, LLAMA2_7B)),
    quantify(LatencyLaw(XEON_GEN4_32C, LLAMA2_7B)),
)
_NODE = Node("gpu-0", A100_80GB)
_NOW = 100.0


# ----------------------------------------------------------------------
# The oracle: the per-member step loop
# ----------------------------------------------------------------------
class _Oracle:
    """One instance as the step loop kept it: a [base, slo, tok, soft] row per member."""

    def __init__(self, perf, ready_at, queue, batch):
        self.perf = perf
        self.ready_at = ready_at
        self.queue = queue  # ShadowRequests; read through ``head``
        self.head = 0
        self.members = [[r.deadline_base, r.tpot_slo, r.tokens_out, False] for r in batch]
        self.ctx_sum = sum(r.context_len for r in batch)
        self.settle = 0

    def estimate(self, overestimate):
        B = len(self.members)
        return self.perf.tpot_seconds(B, self.ctx_sum / B) * overestimate if B else 0.0


def _oracle_validate(instances, now, busy_until, tpot_slo, overestimate, max_iterations):
    time = max(now, busy_until)
    has_new = any(r.is_new for inst in instances for r in inst.queue)
    new_prefilled = False
    for _ in range(max_iterations):
        if all(inst.head == len(inst.queue) for inst in instances):
            aggregate = 0.0
            for inst in instances:
                aggregate += inst.estimate(overestimate)
            if aggregate > tpot_slo:
                return ShadowVerdict.AGGREGATE_DECODE
            if all(inst.settle >= 2 or not inst.members for inst in instances):
                return ShadowVerdict.PASS
        best, best_u, best_prefill = None, 0.0, False
        for inst in instances:
            if inst.ready_at > time:
                continue
            if inst.head < len(inst.queue):
                r = inst.queue[inst.head]
                urgency = r.deadline_base + r.tpot_slo * r.tokens_out - time
                if best is None or urgency < best_u:
                    best, best_u, best_prefill = inst, urgency, True
            if inst.members:
                urgency = min(b + s * t for b, s, t, _ in inst.members) - time
                if best is None or urgency < best_u:
                    best, best_u, best_prefill = inst, urgency, False
        if best is None:
            future = [
                inst.ready_at
                for inst in instances
                if inst.ready_at > time and (inst.head < len(inst.queue) or inst.members)
            ]
            if not future:
                return ShadowVerdict.PASS
            time = min(future)
            continue
        if best_prefill:
            r = best.queue[best.head]
            best.head += 1
            time += best.perf.ttft_seconds(r.prefill_len) * overestimate
            if r.deadline_base + r.tpot_slo * r.tokens_out - time < 0 and not r.soft:
                return (
                    ShadowVerdict.NEW_REQUEST_TTFT if r.is_new else ShadowVerdict.EXISTING_DELAYED
                )
            best.members.append([r.deadline_base, r.tpot_slo, r.tokens_out + 1, r.soft])
            best.ctx_sum += r.context_len + 1
            best.settle = 0
            new_prefilled = new_prefilled or r.is_new
        else:
            time += best.estimate(overestimate)
            for member in best.members:
                base, slo, tok, soft = member
                if base + slo * tok - time < 0 and not soft:
                    return ShadowVerdict.EXISTING_DELAYED
                member[2] = tok + 1
            best.ctx_sum += len(best.members)
            best.settle += 1
    if has_new and not new_prefilled:
        if not all(r.soft for inst in instances for r in inst.queue[inst.head :] if r.is_new):
            return ShadowVerdict.NEW_REQUEST_TTFT
    return ShadowVerdict.PASS


# ----------------------------------------------------------------------
# Random live instances, snapshotted both ways
# ----------------------------------------------------------------------
def _request(req_id, headroom, tpot, tokens_out, input_len, ttft=1.0):
    """A live request whose Eq. 1 headroom at ``_NOW`` is about ``headroom``."""
    request = Request(
        req_id=req_id,
        deployment="d",
        arrival=_NOW + headroom - ttft - tpot * tokens_out,
        input_len=input_len,
        output_len=100_000,
        ttft_slo=ttft,
        tpot_slo=tpot,
    )
    request.tokens_out = tokens_out
    return request


_tpots = st.sampled_from([0.1, 0.25, 0.25, 0.25, 0.4])


@st.composite
def _live_request(draw, req_id, tokens_out, floor=0.0):
    return _request(
        req_id,
        headroom=floor + draw(st.floats(0.0, 20.0, allow_nan=False)),
        tpot=draw(_tpots),
        tokens_out=draw(tokens_out),
        input_len=draw(st.integers(1, 4096)),
    )


@st.composite
def _live_instance(draw, inst_id):
    instance = Instance(inst_id=inst_id, deployment="d", model=LLAMA2_7B, node=_NODE)
    if draw(st.integers(0, 3)) == 0:
        instance.state = InstanceState.LOADING
        instance.load_ready_at = _NOW + draw(st.floats(0.0, 5.0, allow_nan=False))
    else:
        instance.state = InstanceState.ACTIVE
    for idx in range(draw(st.integers(0, 3))):
        pending = draw(_live_request(idx, st.sampled_from([0, 0, 40])))
        if pending.tokens_out:
            pending.begin_migration()
        instance.prefill_pending.append(pending)
    # The batch's banked headroom: from barely any to seconds' worth.
    floor = draw(st.sampled_from([-0.01, 0.05, 0.5, 3.0]))
    size = draw(st.sampled_from([0, 1, 3, 8, 20, 40]))
    for idx in range(size):
        instance.admit_to_batch(draw(_live_request(100 + idx, st.integers(1, 500), floor)))
    return instance


@st.composite
def _placement(draw):
    """Live instances, the new request, its target (None: a new instance)."""
    live = [draw(_live_instance(idx)) for idx in range(draw(st.integers(1, 3)))]
    new = draw(_live_request(999, st.sampled_from([0, 0, 30])))  # > 0: soft admit
    target = draw(st.sampled_from([*range(len(live)), None]))
    perfs = [draw(st.sampled_from(_PERFS)) for _ in range(len(live) + 1)]
    grace = draw(st.sampled_from([0.0, 0.0, 2.0]))
    busy = _NOW + draw(st.sampled_from([0.0, 0.0, 0.3]))
    tpot_slo = draw(st.sampled_from([0.05, 0.25, 1.0, 5.0]))
    horizon = draw(st.sampled_from([50, 400, 1000]))
    return live, new, target, perfs, grace, busy, tpot_slo, horizon


def _shadows(live, new, target, perfs, grace):
    shadows = [ShadowInstance.snapshot(instance, perf) for instance, perf in zip(live, perfs)]
    if target is None:
        shadows.append(ShadowInstance(perfs[-1], _NOW + 1.0))
        target = -1
    shadows[target].admit(new, grace)
    return shadows


def _both(live, new, target, perfs, grace, busy, tpot_slo, horizon):
    """Both verdicts; the oracles share the snapshots' (read-only) prefill queues."""
    shadows = _shadows(live, new, target, perfs, grace)
    batches = [instance.batch for instance in live] + [[]]
    oracles = [
        _Oracle(shadow.perf, shadow.ready_at, shadow.prefill_queue, batch)
        for shadow, batch in zip(shadows, batches)
    ]
    args = (_NOW, busy, tpot_slo, 1.1, horizon)
    return shadow_validate(shadows, *args), _oracle_validate(oracles, *args), shadows


@settings(max_examples=100, deadline=None)
@given(_placement())
def test_tabulated_steps_match_the_per_member_loop(placement):
    got, want, _ = _both(*placement)
    assert got is want


def _steady_batch(size):
    """A GPU batch with banked headroom that keeps decoding for many steps."""
    return [_request(100 + idx, 0.05 + 0.01 * idx, 0.25, 10 + idx, 512) for idx in range(size)]


def test_joins_after_the_tables_have_grown_twice(monkeypatch):
    # The far-off pending prefill waits until the batch's banked headroom
    # exceeds its own: dozens of decode steps (the tables grow 8 → 16 →
    # 32 → 64) before it joins and merges into the grown tables.
    joins = []
    join = ShadowInstance.join

    def spy(self, *args, **kwargs):
        joins.append((self.steps, len(self.hard.minima)))
        join(self, *args, **kwargs)

    monkeypatch.setattr(ShadowInstance, "join", spy)
    for size in (2, 30):  # both sides of the NumPy cut-over
        instance = Instance(inst_id=0, deployment="d", model=LLAMA2_7B, node=_NODE)
        instance.state = InstanceState.ACTIVE
        for member in _steady_batch(size):
            instance.admit_to_batch(member)
        instance.prefill_pending.append(_request(1, 12.0, 0.25, 0, 256))
        for soft in (0, 30):
            new = _request(999, 14.0, 0.1, soft, 1024)
            joins.clear()
            got, want, shadows = _both(
                [instance], new, 0, [_PERFS[0], _PERFS[0]], 0.0, _NOW, 5.0, 1000
            )
            assert got is want
            assert shadows[0].steps > 4 * _TABLE_SEED
            assert joins and joins[0][1] >= 4 * _TABLE_SEED  # grew twice before a join
            assert len(shadows[0].hard.minima) > shadows[0].steps


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([1, 3, 8, 40]), st.floats(0.1, 3.0, allow_nan=False))
def test_late_hard_member_deep_in_the_tables(size, headroom):
    # A pace slower than the TPOT SLO eats the banked headroom a little
    # per step, so the first late member shows up after up to ~800 steps
    # and several table growths, or the 1,000-step horizon runs out
    # first; both loops must reach the same verdict.
    instance = Instance(inst_id=0, deployment="d", model=LLAMA2_7B, node=_NODE)
    instance.state = InstanceState.ACTIVE
    for idx in range(size):
        instance.admit_to_batch(_request(100 + idx, headroom + 0.001 * idx, 0.012, 10, 512))
    new = _request(999, 60.0, 0.25, 0, 512)
    got, want, _ = _both([instance], new, 0, [_PERFS[0], _PERFS[0]], 0.0, _NOW, 5.0, 1000)
    assert got is want


# ----------------------------------------------------------------------
# The helper's two branches
# ----------------------------------------------------------------------
_members = st.lists(
    st.tuples(
        st.floats(0.0, 1e5, allow_nan=False),
        st.floats(0.001, 2.0, allow_nan=False),
        st.integers(-1000, 100_000),
    ),
    min_size=0,
    max_size=50,
)


@settings(max_examples=100, deadline=None)
@given(_members, st.integers(0, 2000), st.integers(0, 70))
def test_numpy_and_python_branches_return_identical_floats(members, start, steps):
    base = [m[0] for m in members]
    tpot = [m[1] for m in members]
    tok0 = [m[2] for m in members]
    stop = start + steps
    with mock.patch.object(request_module, "_VECTOR_MIN", 0):
        vectorized = deadline_minima(base, tpot, tok0, start, stop)
    with mock.patch.object(request_module, "_VECTOR_MIN", 10**9):
        scalar = deadline_minima(base, tpot, tok0, start, stop)
    assert len(vectorized) == len(scalar) == steps
    assert [v.hex() for v in vectorized] == [s.hex() for s in scalar]
    assert scalar == [
        min((b + s * (t + k) for b, s, t in zip(base, tpot, tok0)), default=float("inf"))
        for k in range(start, stop)
    ]
    if steps * len(members) >= _VECTOR_MIN:
        assert deadline_minima(base, tpot, tok0, start, stop) == vectorized
