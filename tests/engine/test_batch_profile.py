"""The instance's batch profile against sums recomputed from its members.

``Instance.batch_profile()`` is rebuilt once per ``batch_version`` and
then answers for any later grant count.  Hypothesis drives random join,
leave and grant sequences (grants of m ≥ 1 tokens, as a vectorized
chain flush applies them) through the instance's seams and, after every
step, compares each answer with the member-by-member form: KV bytes with
``Σ kv.used_bytes``, the earliest completion with the member minimum,
and the watermark's quiet bound with ``quiet_decode_steps`` over the
members' (sharing-aware) offsets.  A second test pins the vectorized
flush's ``minD`` screen: it must set exactly the ``violation_at`` the
per-member deadline scan sets.
"""

from __future__ import annotations

import math
from array import array

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.instance import Instance, InstanceState
from repro.engine.kvcache import BLOCK_TOKENS
from repro.engine.request import EPS, Request, deadline_minima
from repro.hardware import A100_80GB
from repro.hardware.node import Node
from repro.models import LLAMA2_7B
from repro.policies.slinfer import quiet_decode_steps
from repro.sim.engine import _InstState, _mark_late

_NODE = Node("gpu-0", A100_80GB)


def _instance() -> Instance:
    instance = Instance(inst_id=0, deployment="d", model=LLAMA2_7B, node=_NODE)
    instance.state = InstanceState.ACTIVE
    return instance


def _member(req_id: int, input_len: int, tokens: int, remaining: int, shared: int) -> Request:
    request = Request(
        req_id=req_id,
        deployment="d",
        arrival=0.0,
        input_len=input_len,
        output_len=tokens + remaining,
        ttft_slo=1.0,
        tpot_slo=0.1,
    )
    request.tokens_out = tokens
    # Shared prefixes are block-aligned and lie within the prompt.
    request.shared_tokens = min(shared, input_len // BLOCK_TOKENS) * BLOCK_TOKENS
    return request


_join = st.tuples(
    st.just("join"),
    st.integers(1, 3000),  # input_len
    st.integers(0, 200),  # tokens already out
    st.integers(1, 400),  # tokens remaining
    st.integers(0, 40),  # shared blocks (clipped to the prompt)
)
_leave = st.tuples(st.just("leave"), st.integers(0, 63))
_grant = st.tuples(st.just("grant"), st.integers(1, 3 * BLOCK_TOKENS))
_read = st.tuples(st.just("read"), st.integers(-3, 40), st.integers(0, 200))


def _check(instance: Instance, slack: int, max_steps: int) -> None:
    batch = instance.batch
    profile = instance.batch_profile()
    grants = instance.grants
    kv = instance.kv
    assert profile.blocks(grants) * kv.block_bytes == sum(
        kv.used_bytes(r.context_len) for r in batch
    )
    assert profile.steps_to_completion(grants) == min(
        (r.output_len - r.tokens_out for r in batch), default=float("inf")
    )
    offsets = [r.context_len - r.shared_tokens + BLOCK_TOKENS - 1 for r in batch]
    budget = sum(o // BLOCK_TOKENS for o in offsets) + slack
    # The profile counts whole-context blocks; its budget carries the
    # members' shared blocks, as SlinferPlacement.decode_chain_quiet_steps
    # passes it.
    assert profile.quiet_steps(budget + profile.shared_blocks, grants, max_steps) == (
        quiet_decode_steps(offsets, budget, max_steps)
    )


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(_join, _leave, _grant, _read), max_size=40))
def test_profile_matches_recomputed_sums(ops):
    instance = _instance()
    next_id = 0
    for op in ops:
        kind = op[0]
        if kind == "join":
            instance.admit_to_batch(_member(next_id, *op[1:]))
            next_id += 1
        elif kind == "leave" and instance.batch:
            instance.leave_batch(instance.batch[op[1] % len(instance.batch)])
        elif kind == "grant":
            for request in instance.batch:
                request.tokens_out += op[1]
            instance.grants += op[1]
        elif kind == "read":
            # Reads at several budgets exercise the cached quiet bound.
            _check(instance, op[1], op[2])
            _check(instance, op[1] + 1, op[2])
            _check(instance, op[1], op[2])
        _check(instance, 2, 10**6)


def test_profile_is_rebuilt_only_on_join_or_leave():
    instance = _instance()
    instance.admit_to_batch(_member(0, 100, 0, 50, 0))
    profile = instance.batch_profile()
    instance.grants += 5
    assert instance.batch_profile() is profile
    instance.admit_to_batch(_member(1, 17, 0, 50, 0))
    assert instance.batch_profile() is not profile


@st.composite
def _flush(draw):
    """A chain state with ``m`` pending grants, some of them late."""
    size = draw(st.integers(1, 12))
    members = []
    for idx in range(size):
        request = _member(idx, 64, draw(st.integers(0, 20)), 500, 0)
        request.arrival = draw(st.floats(0.0, 2.0))
        request.tpot_slo = draw(st.sampled_from([0.01, 0.05, 0.1, 0.25]))
        if draw(st.booleans()) and draw(st.booleans()):
            request.violation_at = 0.5  # already late: stays as it is
        members.append(request)
    state = _InstState()
    state.reqs = members
    state.B = size
    state.base = [r.deadline_base for r in members]
    state.tpot = [r.tpot_slo for r in members]
    state.tok0 = [r.tokens_out for r in members]
    done = draw(st.integers(0, 6))
    m = draw(st.integers(1, 12))  # m·B crosses the NumPy cut-over
    state.minD = array("d", deadline_minima(state.base, state.tpot, state.tok0, 0, done + m + 1))
    # Each grant lands on some member's exact deadline, on the edge of
    # its EPS slack (the last on-time float and the first late one), or
    # comfortably early or late.
    ts = []
    for j in range(m):
        i = draw(st.integers(0, size - 1))
        deadline = state.base[i] + state.tpot[i] * (state.tok0[i] + done + j)
        edge = deadline + EPS
        late = math.nextafter(edge, math.inf)
        choices = [deadline - 0.05, deadline, edge, late, deadline + 1.5 * EPS, deadline + 0.05]
        ts.append(draw(st.sampled_from(choices)))
    # ``done`` grants already applied, the last ``m`` still pending.
    state.ts = ts
    state.k = done + m
    return state


def _scanned(state) -> list:
    """The per-member scan: the scalar record_tokens test, step by step."""
    ts, m = state.ts, len(state.ts)
    done = state.k - m
    marks = []
    for i, request in enumerate(state.reqs):
        mark = request.violation_at
        if mark is None:
            for j in range(m):
                if ts[j] > state.base[i] + state.tpot[i] * (state.tok0[i] + done + j) + EPS:
                    mark = ts[j]
                    break
        marks.append(mark)
    return marks


@settings(max_examples=300, deadline=None)
@given(_flush())
def test_flush_screen_sets_the_same_violations_as_the_scan(state):
    expected = _scanned(state)
    _mark_late(state)
    assert [r.violation_at for r in state.reqs] == expected
