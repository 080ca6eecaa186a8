"""The SLINFER watermark check's quiet-steps bound and its inlined KV predicate.

``SlinferPlacement.decode_chain_quiet_steps`` bounds how many decode
iterations the vectorized engine may fast-path before the watermark
handler stops being a no-op.  Its hot predicate is an integer
block-count inlining of the byte comparison the handler itself makes;
this module pins the two forms to each other exactly, and the closed
form (``quiet_decode_steps``) to a binary search over that predicate.
"""

from __future__ import annotations

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine.kvcache import BLOCK_TOKENS, KVCache
from repro.models import LLAMA2_7B
from repro.policies.slinfer import quiet_decode_steps


def _byte_form(kv: KVCache, contexts, steps: int, budget_bytes: int) -> bool:
    """The handler's own comparison: block-rounded bytes vs the budget."""
    return sum(kv.used_bytes(c + steps) for c in contexts) <= budget_bytes


def _block_form(contexts, steps: int, budget_bytes: int, block_bytes: int) -> bool:
    """The inlined predicate from decode_chain_quiet_steps."""
    budget = budget_bytes // block_bytes
    return sum((c + BLOCK_TOKENS - 1 + steps) // BLOCK_TOKENS for c in contexts) <= budget


def test_block_count_predicate_matches_byte_comparison():
    kv = KVCache(model=LLAMA2_7B)
    rng = random.Random(11)
    for _ in range(300):
        batch = rng.randint(1, 12)
        contexts = [rng.randint(1, 4096) for _ in range(batch)]
        steps = rng.randint(0, 512)
        # Budgets straddling the decision boundary, including negative
        # (growth exceeding the plan) and sub-block remainders.
        exact = sum(kv.used_bytes(c + steps) for c in contexts)
        for budget in (
            exact - kv.block_bytes,
            exact - 1,
            exact,
            exact + 1,
            exact + kv.block_bytes - 1,
            exact + kv.block_bytes,
            -1,
            0,
        ):
            assert _byte_form(kv, contexts, steps, budget) == _block_form(
                contexts, steps, budget, kv.block_bytes
            ), (contexts, steps, budget)


def test_quietness_is_monotone_in_steps():
    # quiet_decode_steps' closed form rests on this monotonicity.
    kv = KVCache(model=LLAMA2_7B)
    contexts = [100, 250, 777]
    budget = sum(kv.used_bytes(c + 40) for c in contexts)
    results = [_block_form(contexts, s, budget, kv.block_bytes) for s in range(0, 200)]
    assert results[0] is True
    assert results == sorted(results, reverse=True)


def _searched_quiet_steps(offsets, budget: int, max_steps: int) -> int:
    """The bound by binary search over the monotone block-count predicate."""
    if max_steps <= 0:
        return 0

    def quiet(steps: int) -> bool:
        return sum((c + steps) // BLOCK_TOKENS for c in offsets) <= budget

    if quiet(max_steps):
        return max_steps
    lo, hi = 0, max_steps - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if quiet(mid):
            lo = mid
        else:
            hi = mid - 1
    return lo


@st.composite
def _offsets(draw):
    """Batch offsets as the guard builds them, with or without sharing.

    A shared member's growing term is its private tail: the context minus
    a block-aligned shared prefix (possibly all of it).
    """
    offsets = []
    for context in draw(st.lists(st.integers(0, 4096), max_size=12)):
        shared = draw(st.integers(0, context // BLOCK_TOKENS)) * BLOCK_TOKENS
        offsets.append(context - shared + BLOCK_TOKENS - 1)
    return offsets


@settings(max_examples=300, deadline=None)
@given(_offsets(), st.integers(-40, 600), st.integers(-2, 4000))
@example([], 0, 10)  # empty batch, zero slack: every step is quiet
@example([], -1, 10)  # empty batch over budget: none is
@example([15], 0, 0)  # max_steps at zero
def test_closed_form_matches_binary_search(offsets, slack, max_steps):
    # ``slack`` spare blocks at step 0; negative means already over budget.
    budget = sum(c // BLOCK_TOKENS for c in offsets) + slack
    assert quiet_decode_steps(offsets, budget, max_steps) == _searched_quiet_steps(
        offsets, budget, max_steps
    )


def test_closed_form_at_max_steps_boundaries():
    rng = random.Random(5)
    for _ in range(200):
        offsets = [rng.randint(BLOCK_TOKENS - 1, 2048) for _ in range(rng.randint(1, 9))]
        budget = sum(c // BLOCK_TOKENS for c in offsets) + rng.randint(0, 40)
        free = quiet_decode_steps(offsets, budget, 10**9)
        for max_steps in (free - 1, free, free + 1):
            expected = _searched_quiet_steps(offsets, budget, max_steps)
            assert quiet_decode_steps(offsets, budget, max_steps) == expected
            assert expected == max(0, min(free, max_steps))
