"""Model instances: one loaded copy of a model's weights serving a batch.

Lifecycle: ``LOADING`` (cold start, weights streaming in) → ``ACTIVE``
(serving) → idle (empty batch, awaiting keep-alive reclaim) → unloaded.
A request dispatched to an instance first waits in ``prefill_pending``;
its prefill iteration admits it to the continuously-batched decode loop.

Two counters describe the decode batch, each written only at its seams:
``batch_version`` is bumped by every join (:meth:`Instance.admit_to_batch`)
and leave (:meth:`Instance.leave_batch`, :meth:`Instance.remove`), and
``grants`` counts decode iterations granted to the batch (the serving
system's scalar decode finish, the vectorized engine's chain flush).
Between two version bumps every member gains exactly one token per
grant, so a :class:`BatchProfile` built once per version answers the
per-iteration questions — KV blocks held, steps to the earliest
completion, steps the §VII-D watermark stays quiet — for any later grant
count without rescanning the members.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Any, Optional, Sequence

from repro.engine.kvcache import BLOCK_TOKENS, KVCache

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kv.store import KvShareStore
from repro.engine.request import Request
from repro.hardware.node import Node
from repro.models.catalog import ModelSpec


def overflow_step(crossings: Sequence[int], slack: int) -> float:
    """Steps until a group's block count first exceeds its budget.

    ``crossings`` are the members' sorted first block step-ups (each in
    ``1..BLOCK_TOKENS``; member i steps up again every BLOCK_TOKENS steps
    after), ``slack`` the spare blocks now.  Over the sorted crossings the
    n-th step-up overall (0-based) lands at ``crossings[n mod B] +
    BT·⌊n/B⌋``; the budget first breaks at step-up number ``slack``.
    0 when already over budget, ``inf`` for an empty group.
    """
    if slack < 0:
        return 0
    if not crossings:
        return float("inf")
    rounds, index = divmod(slack, len(crossings))
    return crossings[index] + BLOCK_TOKENS * rounds


class BatchProfile:
    """One batch's per-iteration answers, exact at any later grant count.

    Built from the members at grant count ``g0`` (O(B log B)); valid for
    as long as the instance's ``batch_version`` equals ``version``.  With
    ``d = grants − g0`` every member holds ``d`` more tokens than at the
    build, so:

    * :meth:`blocks` — the batch's KV blocks ``Σ⌈c_i/BT⌉`` — is
      ``blocks0 + B·⌊d/BT⌋ + #{crossings ≤ d mod BT}`` (O(log B));
    * :meth:`steps_to_completion` — ``min(output_i − tokens_i)`` — is
      ``finish_at − grants`` (O(1));
    * :meth:`quiet_steps` reads the grant count at which the blocks first
      exceed a budget, cached per budget (the watermark's budget moves
      only with the planned KV size and the referenced shared blocks).

    ``shared_blocks`` is ``Σ shared_i / BT``: shared prefixes are
    block-aligned, so a member's private tail holds exactly its
    ``⌈c_i/BT⌉`` blocks minus its shared ones, and step-ups are unchanged.

    ``chain_state`` is the vectorized engine's decode-chain state for this
    version, built at its first chain arm (``None`` until then).
    """

    __slots__ = (
        "version", "g0", "blocks0", "crossings", "finish_at", "shared_blocks", "_quiet",
        "chain_state",
    )

    def __init__(self, batch: Sequence[Request], version: int, grants: int) -> None:
        self.version = version
        self.g0 = grants
        blocks0 = shared = 0
        crossings = []
        finish = float("inf")
        for request in batch:
            offset = request.input_len + request.tokens_out + BLOCK_TOKENS - 1
            blocks0 += offset // BLOCK_TOKENS
            crossings.append(BLOCK_TOKENS - offset % BLOCK_TOKENS)
            shared += request.shared_tokens
            remaining = request.output_len - request.tokens_out
            if remaining < finish:
                finish = remaining
        crossings.sort()
        self.blocks0 = blocks0
        self.crossings = crossings
        self.shared_blocks = shared // BLOCK_TOKENS
        self.finish_at = grants + finish
        self._quiet: tuple = (None, 0)
        self.chain_state: Any = None

    def blocks(self, grants: int) -> int:
        """KV blocks the members hold after ``grants`` grants."""
        rounds, step = divmod(grants - self.g0, BLOCK_TOKENS)
        crossings = self.crossings
        return self.blocks0 + len(crossings) * rounds + bisect_right(crossings, step)

    def steps_to_completion(self, grants: int) -> float:
        """Grants from ``grants`` until the earliest member completes."""
        return self.finish_at - grants

    def quiet_steps(self, budget: int, grants: int, max_steps: int) -> int:
        """Largest q ≤ ``max_steps`` with at most ``budget`` blocks held
        through grant ``grants + q``; 0 if none (already over budget)."""
        if max_steps <= 0:
            return 0
        key, until = self._quiet
        if key != budget:
            until = self.g0 + overflow_step(self.crossings, budget - self.blocks0)
            self._quiet = (budget, until)
        quiet = until - grants - 1
        if quiet >= max_steps:
            return max_steps
        return quiet if quiet > 0 else 0


class InstanceState(Enum):
    LOADING = "loading"
    ACTIVE = "active"
    UNLOADED = "unloaded"


@dataclass(slots=True)
class Instance:
    """One running copy of a deployed model on (a fraction of) a node."""

    inst_id: int
    deployment: str
    model: ModelSpec
    node: Node
    fraction: float = 1.0
    tp_degree: int = 1
    created_at: float = 0.0

    state: InstanceState = InstanceState.LOADING
    load_ready_at: float = 0.0  # when the cold start will complete
    exclusive: bool = False  # large-model fallback: owns its node(s) (§IX-E)
    prefill_pending: deque[Request] = field(default_factory=deque, repr=False)
    batch: list[Request] = field(default_factory=list, repr=False)
    kv: KVCache = field(init=False, repr=False)
    keepalive_handle: object = None  # EventHandle, owned by the system
    #: prefix-sharing block map (``repro.kv``); None unless the run set
    #: ``kv_sharing="on"`` — the default path never touches it.
    kv_share: "Optional[KvShareStore]" = field(default=None, repr=False)
    #: executor-attachment order, assigned by ``ServingSystem.attach``;
    #: orders the serving system's incremental runnable set identically
    #: to the executor's attach-ordered instance list.
    attach_order: int = field(default=-1, repr=False)
    #: bumped by every batch join and leave (see the module docstring)
    batch_version: int = field(default=0, init=False, repr=False, compare=False)
    #: decode iterations granted to the batch so far
    grants: int = field(default=0, init=False, repr=False, compare=False)
    _profile: Optional[BatchProfile] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.kv = KVCache(model=self.model)

    # ------------------------------------------------------------------
    # Composition
    # ------------------------------------------------------------------
    @property
    def weight_bytes_per_node(self) -> int:
        """Weight footprint on each participating node (TP splits weights)."""
        return self.model.weight_bytes // self.tp_degree

    @property
    def batch_size(self) -> int:
        return len(self.batch)

    @property
    def request_count(self) -> int:
        return len(self.batch) + len(self.prefill_pending)

    @property
    def requests(self) -> list[Request]:
        return list(self.batch) + list(self.prefill_pending)

    @property
    def has_work(self) -> bool:
        return self.state is InstanceState.ACTIVE and self.request_count > 0

    @property
    def idle(self) -> bool:
        return self.state is InstanceState.ACTIVE and self.request_count == 0

    def avg_context_len(self) -> float:
        if not self.batch:
            return 0.0
        return sum(request.context_len for request in self.batch) / len(self.batch)

    def batch_profile(self) -> BatchProfile:
        """The batch's :class:`BatchProfile`, rebuilt once per version."""
        profile = self._profile
        if profile is None or profile.version != self.batch_version:
            profile = self._profile = BatchProfile(self.batch, self.batch_version, self.grants)
        return profile

    def drop_profile(self) -> None:
        """Forget the cached profile, and the engine chain state cached on it.

        The serving system calls this when the instance unloads and when
        its finished run is released: the instance graph is reference-
        cyclic, so whatever an instance caches otherwise lives until the
        cyclic collector runs.
        """
        self._profile = None

    def live_kv_bytes(self) -> int:
        """Bytes of KV-cache currently holding live context."""
        if self.kv_share is not None:
            # Sharing on: referenced shared blocks counted once, plus each
            # request's private tail net of its shared prefix.
            return self.kv_share.live_bytes()
        # The batch's blocks come from its profile (this runs once per
        # iteration in the watermark check); pending prefills are few.
        kv = self.kv
        total = self.batch_profile().blocks(self.grants) * kv.block_bytes
        for request in self.prefill_pending:
            total += kv.used_bytes(request.input_len + request.tokens_out)
        return total

    def min_headroom(self, now: float) -> float:
        """Urgency of this instance: smallest request headroom (Eq. 1)."""
        requests = self.requests
        if not requests:
            return float("inf")
        return min(request.headroom(now) for request in requests)

    # ------------------------------------------------------------------
    # Request flow
    # ------------------------------------------------------------------
    def enqueue(self, request: Request) -> None:
        self.prefill_pending.append(request)

    def admit_to_batch(self, request: Request) -> None:
        self.batch.append(request)
        self.batch_version += 1

    def leave_batch(self, request: Request) -> None:
        """Take a member out of the decode batch (completion, eviction)."""
        self.batch.remove(request)
        self.batch_version += 1

    def remove(self, request: Request) -> None:
        if request in self.batch:
            self.leave_batch(request)
        elif request in self.prefill_pending:
            self.prefill_pending.remove(request)
        else:
            raise ValueError(f"request {request.req_id} not on instance {self.inst_id}")

    def next_prefill(self) -> Optional[Request]:
        return self.prefill_pending[0] if self.prefill_pending else None
