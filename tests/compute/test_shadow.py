"""Tests for shadow validation (§VI-C): the three Fig. 15 cases, and the
snapshot taken of a live instance."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compute import ShadowInstance, ShadowRequest, ShadowVerdict, shadow_validate
from repro.engine.instance import Instance, InstanceState
from repro.engine.request import Request
from repro.hardware import A100_80GB, XEON_GEN4_32C
from repro.hardware.node import Node
from repro.models import LLAMA2_7B
from repro.perf import quantify
from repro.perf.laws import LatencyLaw


@pytest.fixture
def cpu_perf():
    return quantify(LatencyLaw(XEON_GEN4_32C, LLAMA2_7B))


@pytest.fixture
def gpu_perf():
    return quantify(LatencyLaw(A100_80GB, LLAMA2_7B))


def new_request(now, input_len=1024, ttft=2.0, grace=0.0, tpot=0.25):
    return ShadowRequest(
        deadline_base=now + ttft + grace,
        tpot_slo=tpot,
        tokens_out=0,
        context_len=input_len,
        prefill_len=input_len,
        is_new=True,
    )


def add_running(instance, now, headroom, tokens_out=10, context_len=1024, tpot=0.25):
    # deadline_base + tpot*tokens_out - now = headroom
    instance.join(
        base=now + headroom - tpot * tokens_out, slo=tpot, tok=tokens_out, context=context_len
    )


def test_empty_executor_accepts_new_request(gpu_perf):
    instance = ShadowInstance(perf=gpu_perf)
    instance.prefill_queue.append(new_request(now=0.0))
    assert shadow_validate([instance], now=0.0) is ShadowVerdict.PASS


def test_case1_new_request_ttft_violation(cpu_perf):
    # An 8K prefill on a CPU takes ~6.8 s; with a 1 s TTFT budget it fails.
    instance = ShadowInstance(perf=cpu_perf)
    instance.prefill_queue.append(new_request(now=0.0, input_len=8192, ttft=1.0))
    assert shadow_validate([instance], now=0.0) is ShadowVerdict.NEW_REQUEST_TTFT


def test_case2_existing_request_delayed_by_prefill(cpu_perf):
    # A heavily batched instance barely keeps pace (decode round ≈ 0.23 s
    # vs 0.25 s TPOT), so the 3 s prefill of the newcomer inevitably
    # starves the existing requests: case 2.
    instance = ShadowInstance(perf=cpu_perf)
    for _ in range(20):
        add_running(instance, now=0.0, headroom=0.3, context_len=2048)
    instance.prefill_queue.append(new_request(now=0.0, input_len=4096, ttft=8.0))
    verdict = shadow_validate([instance], now=0.0)
    # Depending on which side of the contention breaks first this is
    # classified as case 1 or case 2 — either way the placement is refused.
    assert verdict in (ShadowVerdict.EXISTING_DELAYED, ShadowVerdict.NEW_REQUEST_TTFT)


def test_case2_tight_batch_cannot_absorb_quick_prefill(cpu_perf):
    # A short prefill fits its own TTFT easily but delays a batch that has
    # no slack at all: the existing requests violate first (case 2).
    instance = ShadowInstance(perf=cpu_perf)
    for _ in range(22):
        add_running(instance, now=0.0, headroom=0.05, context_len=2048)
    instance.prefill_queue.append(new_request(now=0.0, input_len=512, ttft=8.0))
    assert shadow_validate([instance], now=0.0) is ShadowVerdict.EXISTING_DELAYED


def test_banked_headroom_absorbs_a_prefill(cpu_perf):
    # With a single fast-decoding request, the min-headroom scheduler banks
    # headroom before running the long prefill — the placement is valid.
    instance = ShadowInstance(perf=cpu_perf)
    add_running(instance, now=0.0, headroom=0.3)
    instance.prefill_queue.append(new_request(now=0.0, input_len=4096, ttft=8.0))
    assert shadow_validate([instance], now=0.0) is ShadowVerdict.PASS


def test_case3_aggregate_decode_over_budget(cpu_perf):
    # Three CPU instances each with a hefty batch: one decode round across
    # the node exceeds the 250 ms TPOT budget even though each instance
    # alone would be fine.
    instances = []
    for _ in range(3):
        instance = ShadowInstance(perf=cpu_perf)
        for idx in range(8):
            add_running(instance, now=0.0, headroom=5.0, context_len=2048)
        instances.append(instance)
    verdict = shadow_validate(instances, now=0.0)
    assert verdict is ShadowVerdict.AGGREGATE_DECODE


def test_gpu_absorbs_what_cpu_cannot(gpu_perf, cpu_perf):
    def build(perf):
        instances = []
        for _ in range(3):
            instance = ShadowInstance(perf=perf)
            for _ in range(4):
                add_running(instance, now=0.0, headroom=5.0, context_len=2048)
            instances.append(instance)
        instances[0].prefill_queue.append(new_request(now=0.0, input_len=512, ttft=1.0))
        return instances

    assert shadow_validate(build(gpu_perf), now=0.0) is ShadowVerdict.PASS
    assert shadow_validate(build(cpu_perf), now=0.0) is not ShadowVerdict.PASS


def test_busy_until_delays_the_virtual_start(cpu_perf):
    # The same placement passes when the executor is free but fails when
    # the current iteration holds the executor long enough.
    def build():
        instance = ShadowInstance(perf=cpu_perf)
        instance.prefill_queue.append(new_request(now=0.0, input_len=1024, ttft=2.0))
        return [instance]

    assert shadow_validate(build(), now=0.0, busy_until=0.0) is ShadowVerdict.PASS
    assert (
        shadow_validate(build(), now=0.0, busy_until=1.6)
        is ShadowVerdict.NEW_REQUEST_TTFT
    )


def test_overestimate_rejects_borderline(cpu_perf):
    # ~1.9 s estimated prefill with a 2.0 s budget: passes at 1.0×, fails
    # at the paper's 1.10× safety factor.
    instance = ShadowInstance(perf=cpu_perf)
    instance.prefill_queue.append(new_request(now=0.0, input_len=2900, ttft=2.0))
    assert shadow_validate([instance], now=0.0, overestimate=1.0) is ShadowVerdict.PASS
    instance2 = ShadowInstance(perf=cpu_perf)
    instance2.prefill_queue.append(new_request(now=0.0, input_len=2900, ttft=2.0))
    assert (
        shadow_validate([instance2], now=0.0, overestimate=1.10)
        is not ShadowVerdict.PASS
    )


def test_loading_instance_waits_for_ready(cpu_perf):
    # A cold-starting instance only begins work at ready_at; with grace
    # covering the cold start the request still passes.
    instance = ShadowInstance(perf=cpu_perf, ready_at=1.0)
    instance.prefill_queue.append(new_request(now=0.0, input_len=512, ttft=1.0, grace=1.0))
    assert shadow_validate([instance], now=0.0) is ShadowVerdict.PASS


def test_mixed_prefill_and_decode_interleaving(gpu_perf):
    instance = ShadowInstance(perf=gpu_perf)
    for _ in range(8):
        add_running(instance, now=0.0, headroom=1.0)
    instance.prefill_queue.append(new_request(now=0.0, input_len=2048, ttft=4.0))
    assert shadow_validate([instance], now=0.0) is ShadowVerdict.PASS


# ----------------------------------------------------------------------
# Snapshots of live instances and the Eq. 1 deadline owner
# ----------------------------------------------------------------------
_GPU_PERF = quantify(LatencyLaw(A100_80GB, LLAMA2_7B))
_NODE = Node("gpu-0", A100_80GB)

_times = st.floats(0.0, 600.0, allow_nan=False)
_ttfts = st.floats(0.1, 10.0, allow_nan=False)
_tpots = st.floats(0.02, 0.5, allow_nan=False)
_graces = st.floats(0.0, 30.0, allow_nan=False)


@st.composite
def _live_request(draw, req_id, tokens_out):
    request = Request(
        req_id=req_id,
        deployment="d",
        arrival=draw(_times),
        input_len=draw(st.integers(1, 8192)),
        output_len=10_000,
        ttft_slo=draw(_ttfts),
        tpot_slo=draw(_tpots),
    )
    request.grace = draw(st.one_of(st.just(0.0), _graces))
    request.tokens_out = draw(tokens_out)
    return request


@st.composite
def _live_instance(draw):
    instance = Instance(inst_id=0, deployment="d", model=LLAMA2_7B, node=_NODE)
    instance.state = draw(st.sampled_from([InstanceState.LOADING, InstanceState.ACTIVE]))
    instance.load_ready_at = draw(_times)
    for idx in range(draw(st.integers(0, 4))):
        # tokens_out > 0: a migrated request awaiting its re-prefill.
        pending = draw(_live_request(idx, st.one_of(st.just(0), st.integers(1, 300))))
        if pending.tokens_out:
            pending.begin_migration()
        instance.prefill_pending.append(pending)
    for idx in range(draw(st.integers(0, 12))):
        instance.admit_to_batch(draw(_live_request(100 + idx, st.integers(1, 300))))
    return instance


def _hand_built(instance: Instance) -> ShadowInstance:
    """The snapshot spelled out with explicit Eq. 1 arithmetic."""
    loading = instance.state is InstanceState.LOADING
    shadow = ShadowInstance(perf=_GPU_PERF, ready_at=instance.load_ready_at if loading else 0.0)
    for r in instance.prefill_pending:
        shadow.prefill_queue.append(
            ShadowRequest(
                deadline_base=r.arrival + r.ttft_slo + r.grace,
                tpot_slo=r.tpot_slo,
                tokens_out=r.tokens_out,
                context_len=r.input_len + r.tokens_out,
                prefill_len=r.prefill_len,
            )
        )
    for r in instance.batch:
        shadow.join(
            base=r.arrival + r.ttft_slo + r.grace,
            slo=r.tpot_slo,
            tok=r.tokens_out,
            context=r.input_len + r.tokens_out,
        )
    return shadow


@settings(max_examples=200, deadline=None)
@given(_live_instance(), _live_request(999, st.sampled_from([0, 0, 5])), _graces, _times)
def test_snapshot_matches_explicit_eq1_arithmetic(instance, new, grace, now):
    snapshot = ShadowInstance.snapshot(instance, _GPU_PERF)
    expected = _hand_built(instance)
    assert snapshot.ready_at == expected.ready_at
    assert snapshot.prefill_queue == expected.prefill_queue
    assert snapshot.steps == expected.steps == 0
    for got, want in ((snapshot.hard, expected.hard), (snapshot.soft, expected.soft)):
        assert got.base == want.base
        assert got.slo == want.slo
        assert got.tok0 == want.tok0
        assert got.minima == want.minima
    assert snapshot.hard.tok0 == [r.tokens_out for r in instance.batch]
    assert snapshot.soft.base == []
    assert snapshot.B == expected.B == len(instance.batch)
    assert snapshot.ctx_sum == expected.ctx_sum
    assert snapshot.min_deadline == expected.min_deadline
    if instance.batch:
        assert snapshot.min_deadline == min(r.next_token_deadline for r in instance.batch)
    assert snapshot.decode_estimate(1.1) == expected.decode_estimate(1.1)

    snapshot.admit(new, grace)
    expected.prefill_queue.append(
        ShadowRequest(
            deadline_base=new.arrival + new.ttft_slo + grace,
            tpot_slo=new.tpot_slo,
            tokens_out=new.tokens_out,
            context_len=new.input_len + new.tokens_out,
            prefill_len=new.prefill_len,
            is_new=True,
            soft=new.tokens_out > 0,
        )
    )
    assert snapshot.prefill_queue == expected.prefill_queue
    assert shadow_validate([snapshot], now=now) is shadow_validate([expected], now=now)


@settings(max_examples=300, deadline=None)
@given(_live_request(0, st.integers(0, 10_000)))
def test_next_token_deadline_is_base_plus_tpot_term(live):
    # Bit for bit: next_token_deadline keeps its inline spelling for speed.
    assert live.next_token_deadline == live.deadline_base + live.tpot_slo * live.tokens_out
    assert live.deadline_base == live.arrival + live.ttft_slo + live.grace
