"""Paged KV-cache with the Fig. 16/17 scaling-cost model.

The cache is a set of fixed-size blocks (16 tokens each, as in
paged-attention).  Resizing allocates new blocks and copies live pages —
``repro.perf.laws.kv_scaling_seconds`` gives the duration.  Allocation
targets are always rounded up to whole blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.models.catalog import ModelSpec
from repro.perf.laws import kv_scaling_seconds

BLOCK_TOKENS = 16


@dataclass(slots=True)
class KVCache:
    """KV-cache state of one instance."""

    model: ModelSpec
    allocated_bytes: int = 0
    # Target of an in-flight resize (None when stable).
    scaling_target_bytes: int | None = field(default=None, repr=False)
    # Per-token and per-block byte sizes, fixed by the model; precomputed
    # because KV accounting runs once per iteration of the serving loop.
    token_bytes: int = field(init=False, repr=False)
    block_bytes: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.token_bytes = self.model.kv_bytes_per_token
        self.block_bytes = BLOCK_TOKENS * self.token_bytes

    def round_to_blocks(self, size_bytes: float) -> int:
        """Round a byte size up to whole cache blocks."""
        if size_bytes <= 0:
            return 0
        # Ceil any fractional byte tail *before* the integer ceil-division:
        # truncating first would under-round sizes like ``block_bytes + 0.5``
        # by a whole block.
        blocks = -(-math.ceil(size_bytes) // self.block_bytes)  # ceil division
        return blocks * self.block_bytes

    def used_bytes(self, context_tokens: int) -> int:
        """Bytes held by ``context_tokens`` tokens of live cache."""
        if context_tokens < 0:
            raise ValueError("context_tokens must be non-negative")
        return self.round_to_blocks(context_tokens * self.token_bytes)

    @property
    def scaling(self) -> bool:
        return self.scaling_target_bytes is not None

    @property
    def committed_bytes(self) -> int:
        """Pessimistic footprint: max of current and in-flight target."""
        if self.scaling_target_bytes is None:
            return self.allocated_bytes
        return max(self.allocated_bytes, self.scaling_target_bytes)

    # ------------------------------------------------------------------
    # Resizing
    # ------------------------------------------------------------------
    def begin_scale(self, target_bytes: int, live_bytes: int) -> float:
        """Start a resize; returns its duration in seconds (Fig. 17)."""
        if self.scaling:
            raise RuntimeError("a resize is already in flight")
        target = self.round_to_blocks(target_bytes)
        if target == self.allocated_bytes:
            # Zero-delta resize: nothing to allocate or copy, so no
            # in-flight state and no scaling event — a true no-op.
            return 0.0
        duration = kv_scaling_seconds(
            old_bytes=self.allocated_bytes,
            new_bytes=target,
            used_bytes=min(live_bytes, self.allocated_bytes),
        )
        self.scaling_target_bytes = target
        return duration

    def finish_scale(self) -> None:
        if not self.scaling:
            raise RuntimeError("no resize in flight")
        self.allocated_bytes = self.scaling_target_bytes
        self.scaling_target_bytes = None
