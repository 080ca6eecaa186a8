"""KvShareStore: the admit/commit/release lifecycle and supply accounting.

The store is driven here exactly as the serving system drives it —
enqueue on admit, move to the batch on commit, remove on release — so the
derived private-block accounting sees the same resident sets it would in
a run.
"""

from repro.engine.instance import Instance
from repro.engine.kvcache import BLOCK_TOKENS
from repro.engine.request import Request
from repro.hardware.node import Node
from repro.hardware.specs import A100_80GB
from repro.kv import KvShareStore
from repro.metrics.collector import MetricsCollector
from repro.models.catalog import LLAMA2_7B


def make_store(capacity_blocks: int = 256) -> KvShareStore:
    instance = Instance(
        inst_id=0, deployment="m", model=LLAMA2_7B, node=Node("gpu-0", A100_80GB)
    )
    instance.kv.allocated_bytes = capacity_blocks * instance.kv.block_bytes
    store = KvShareStore(instance, MetricsCollector())
    instance.kv_share = store
    return store


def make_request(
    req_id: int, input_len: int, prefix_id: str | None = None, prefix_len: int = 0
) -> Request:
    return Request(
        req_id=req_id,
        deployment="m",
        arrival=0.0,
        input_len=input_len,
        output_len=8,
        ttft_slo=10.0,
        tpot_slo=0.1,
        prefix_id=prefix_id,
        prefix_len=prefix_len,
    )


def run_lifecycle(store: KvShareStore, request: Request) -> None:
    """Dispatch + prefill-completion, as the serving system sequences it."""
    store.admit(request)
    store.instance.prefill_pending.append(request)
    store.commit(request)
    store.instance.prefill_pending.remove(request)
    store.instance.admit_to_batch(request)


def finish(store: KvShareStore, request: Request) -> None:
    store.instance.leave_batch(request)
    store.release(request)


# ----------------------------------------------------------------------
# Lifecycle
# ----------------------------------------------------------------------
def test_first_request_misses_then_prefix_hits():
    store = make_store()
    sys_len = 8 * BLOCK_TOKENS
    first = make_request(1, sys_len + 40, "sys:128", sys_len)
    store.admit(first)
    assert first.shared_tokens == 0
    assert first.prefill_len == first.input_len  # full prefill on a miss
    store.instance.prefill_pending.append(first)
    store.commit(first)
    assert first.shared_tokens == sys_len  # promoted blocks now shared
    store.instance.prefill_pending.remove(first)
    store.instance.admit_to_batch(first)

    second = make_request(2, sys_len + 24, "sys:128", sys_len)
    store.admit(second)
    assert second.shared_tokens == sys_len
    assert second.prefill_len == second.input_len - sys_len
    assert store.metrics.prefix_hit_tokens == sys_len
    assert store.metrics.prefix_lookups == 2


def test_probe_has_no_side_effects():
    store = make_store()
    first = make_request(1, 256, "sys:128", 128)
    run_lifecycle(store, first)
    before = store.pool.referenced_blocks
    probe_req = make_request(2, 256, "sys:128", 128)
    assert store.probe(probe_req) == 128
    assert store.pool.referenced_blocks == before
    assert probe_req.shared_tokens == 0


def test_release_keeps_blocks_cached_for_future_hits():
    store = make_store()
    first = make_request(1, 256, "sys:128", 128)
    run_lifecycle(store, first)
    finish(store, first)
    assert first.shared_tokens == 0
    assert store.pool.referenced_blocks == 0
    assert store.pool.cached_blocks == 128 // BLOCK_TOKENS
    # The cache still answers.
    late = make_request(2, 200, "sys:128", 128)
    store.admit(late)
    assert late.shared_tokens == 128


def test_release_is_idempotent():
    store = make_store()
    request = make_request(1, 256, "sys:128", 128)
    run_lifecycle(store, request)
    finish(store, request)
    store.release(request)  # no table entry left: a no-op
    store.check_invariants()


def test_sub_block_prefix_never_shares():
    store = make_store()
    short = make_request(1, 64, "sys:8", 8)  # below one block
    run_lifecycle(store, short)
    assert short.shared_tokens == 0
    assert store.pool.allocated_blocks == 0


def test_fully_shared_prompt_keeps_one_prefill_token():
    store = make_store()
    first = make_request(1, 128, "sys:128", 128)
    run_lifecycle(store, first)
    second = make_request(2, 128, "sys:128", 128)
    store.admit(second)
    assert second.shared_tokens == 128
    assert second.prefill_len == 1  # the batch-attach iteration survives


def test_agentic_turns_extend_the_same_path():
    store = make_store()
    turn1 = make_request(1, 520, "sys:520", 520)
    run_lifecycle(store, turn1)
    turn2 = make_request(2, 648, "sys:520/s0t1:128", 648)
    store.admit(turn2)
    # Turn 1 committed its 32 full blocks; turn 2 shares them all.
    assert turn2.shared_tokens == (520 // BLOCK_TOKENS) * BLOCK_TOKENS
    store.instance.prefill_pending.append(turn2)
    store.commit(turn2)
    assert turn2.shared_tokens == (648 // BLOCK_TOKENS) * BLOCK_TOKENS


def test_cow_counted_on_mid_block_divergence():
    store = make_store()
    a = make_request(1, 651, "sys:520/s0:131", 651)
    run_lifecycle(store, a)
    # Session B shares the unaligned seed but continues differently: the
    # block containing token 520 exists with A's continuation → COW.
    b = make_request(2, 660, "sys:520/s1:140", 660)
    store.admit(b)
    assert b.shared_tokens == (520 // BLOCK_TOKENS) * BLOCK_TOKENS
    assert store.metrics.cow_blocks == 1


# ----------------------------------------------------------------------
# Supply coupling
# ----------------------------------------------------------------------
def test_commit_evicts_lru_cache_under_pressure():
    store = make_store(capacity_blocks=8)
    cold = make_request(1, 4 * BLOCK_TOKENS, "old:64", 64)
    run_lifecycle(store, cold)
    finish(store, cold)  # 4 cached-unreferenced blocks
    hot = make_request(2, 7 * BLOCK_TOKENS, "new:112", 112)
    run_lifecycle(store, hot)
    # 7 private-then-promoted blocks only fit by reclaiming the old cache.
    assert hot.shared_tokens == 7 * BLOCK_TOKENS
    assert store.free_blocks() >= 0
    store.check_invariants()


def test_can_admit_vetoes_beyond_supply():
    store = make_store(capacity_blocks=8)
    resident = make_request(1, 6 * BLOCK_TOKENS, "sys:96", 96)
    run_lifecycle(store, resident)
    # 4 fresh blocks on top of 6 referenced ones exceed the 8-block pool.
    too_big = make_request(2, 4 * BLOCK_TOKENS)
    assert not store.can_admit(too_big)
    # A prefix twin needs only its private tail beyond the shared 6.
    twin = make_request(3, 7 * BLOCK_TOKENS, "sys:96", 96)
    assert store.can_admit(twin)


def test_can_admit_defers_on_cold_or_resizing_pool():
    store = make_store(capacity_blocks=0)
    request = make_request(1, 512)
    assert store.can_admit(request)  # still loading: sizing machinery decides
    store.instance.kv.allocated_bytes = store.instance.kv.block_bytes
    store.instance.kv.scaling_target_bytes = 4 * store.instance.kv.block_bytes
    assert store.can_admit(request)  # mid-resize: defer


def test_live_bytes_counts_shared_blocks_once():
    store = make_store()
    kv = store.instance.kv
    first = make_request(1, 256, "sys:256", 256)
    run_lifecycle(store, first)
    solo = store.instance.live_kv_bytes()
    assert solo == kv.used_bytes(256)
    second = make_request(2, 256, "sys:256", 256)
    store.admit(second)
    store.instance.prefill_pending.append(second)
    # The twin adds no private tail beyond the shared prefix: one block
    # chain, two references.
    assert store.instance.live_kv_bytes() == solo
    store.check_invariants()


def test_clear_forgets_tables_and_cache():
    store = make_store()
    request = make_request(1, 256, "sys:128", 128)
    run_lifecycle(store, request)
    store.instance.leave_batch(request)
    store.clear()
    assert store.pool.allocated_blocks == 0
    assert store.referenced_blocks == 0
    store.check_invariants()


def test_conservation_identity_through_a_mixed_history():
    # Sized above the ~80-block peak: the driver here never consults
    # can_admit, and the identity only holds for a non-oversubscribed pool.
    store = make_store(capacity_blocks=128)
    live: list[Request] = []
    for index in range(12):
        prefix = f"sys{index % 3}:128"
        request = make_request(index, 128 + 16 * index, prefix, 128)
        run_lifecycle(store, request)
        live.append(request)
        store.check_invariants()
        if index % 2:
            finish(store, live.pop(0))
            store.check_invariants()
    pool = store.pool
    assert (
        store.free_blocks() + pool.allocated_blocks + store.private_blocks()
        == pool.capacity_blocks
    )
