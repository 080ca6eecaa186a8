"""Inference requests and their SLO accounting.

``headroom`` implements Eq. 1 of the paper:

    headroom = ST + TTFT_SLO + TPOT_SLO · O − CT

i.e. the maximal delay for generating the *next* token within the SLO.  A
cold-started request additionally receives a grace window equal to the
cold-start duration (§IX-A).  The scheduler never sees ``output_len`` — it
is the hidden ground truth that determines when generation stops.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

#: slack of the per-token SLO-violation comparison (deadline + EPS)
EPS = 1e-9

#: step-table entries materialized up front (the engine's chain tables,
#: the shadow's deadline minima); tables extend by doubling as a run
#: actually needs more steps, so short runs pay for a handful of entries
#: and long ones amortize.
_TABLE_SEED = 8

#: below this size (steps × members) step tables and the engine's flush
#: run as plain Python loops: NumPy's per-call overhead beats the
#: arithmetic for the tiny batches that dominate smoke-scale runs.  Both
#: paths evaluate the same IEEE-754 expressions element for element.
_VECTOR_MIN = 32


class RequestState(Enum):
    QUEUED = "queued"  # admitted to the system, not yet on an instance
    PENDING_PREFILL = "pending_prefill"  # on an instance, awaiting prefill
    DECODING = "decoding"  # in an instance's running batch
    MIGRATING = "migrating"  # evicted/preempted, awaiting re-placement
    COMPLETED = "completed"
    DROPPED = "dropped"


@dataclass(slots=True)
class Request:
    """One user request to a specific deployed model.

    ``slots=True``: tens of thousands of these live on the hot path of
    every run; slotted attribute access avoids a per-object ``__dict__``.
    """

    req_id: int
    deployment: str  # deployed model ("function") identifier
    arrival: float
    input_len: int
    output_len: int  # ground truth, hidden from schedulers
    ttft_slo: float
    tpot_slo: float

    # Prompt-identity hints for prefix-sharing KV (see ``repro.kv``): the
    # first ``prefix_len`` prompt tokens are the content named by
    # ``prefix_id`` (a ``name:len[/name:len...]`` segment path); everything
    # beyond is unique to this request.  ``shared_tokens`` counts the
    # (block-aligned) leading tokens currently backed by refcounted shared
    # blocks instead of private ones; it is owned by the instance's
    # KvShareStore and stays 0 with sharing off.
    prefix_id: str | None = None
    prefix_len: int = 0

    state: RequestState = RequestState.QUEUED
    grace: float = 0.0  # cold-start grace window (§IX-A)
    tokens_out: int = 0
    prefill_len: int = field(init=False)  # tokens to (re-)prefill next
    first_token_at: float | None = None
    finished_at: float | None = None
    dropped_at: float | None = None
    violation_at: float | None = None  # first time a token missed its deadline
    cold_started: bool = False
    migrations: int = 0
    shared_tokens: int = field(init=False)

    def __post_init__(self) -> None:
        if self.input_len <= 0:
            raise ValueError(f"request {self.req_id}: input_len must be positive")
        if self.output_len <= 0:
            raise ValueError(f"request {self.req_id}: output_len must be positive")
        if self.prefix_len < 0 or self.prefix_len > self.input_len:
            raise ValueError(
                f"request {self.req_id}: prefix_len must lie in [0, input_len]"
            )
        if self.prefix_len > 0 and not self.prefix_id:
            raise ValueError(f"request {self.req_id}: prefix_len > 0 needs a prefix_id")
        self.prefill_len = self.input_len
        self.shared_tokens = 0

    # ------------------------------------------------------------------
    # SLO accounting (Eq. 1)
    # ------------------------------------------------------------------
    @property
    def deadline_base(self) -> float:
        """The token-independent part of Eq. 1's deadline: ST + TTFT_SLO + grace."""
        return self.arrival + self.ttft_slo + self.grace

    @property
    def next_token_deadline(self) -> float:
        """Latest time the next token may appear without violating the SLO.

        Equal, bit for bit, to ``deadline_base + tpot_slo * tokens_out``;
        spelled out inline because this is read on every token.
        """
        return self.arrival + self.ttft_slo + self.grace + self.tpot_slo * self.tokens_out

    def headroom(self, now: float) -> float:
        """Eq. 1: maximal tolerable delay for the next token."""
        return self.next_token_deadline - now

    # ------------------------------------------------------------------
    # Progress
    # ------------------------------------------------------------------
    @property
    def context_len(self) -> int:
        """Tokens currently in context (input + generated)."""
        return self.input_len + self.tokens_out

    @property
    def remaining_tokens(self) -> int:
        return self.output_len - self.tokens_out

    @property
    def done(self) -> bool:
        return self.tokens_out >= self.output_len

    def record_tokens(self, now: float, count: int = 1) -> None:
        """Record ``count`` generated tokens finishing at ``now``.

        The first token of the burst is checked against the Eq. 1 deadline;
        for multi-token fast-forwarded bursts the caller guarantees the pace
        was uniform, so checking the last token (which has the latest
        deadline but also the latest emission) is done conservatively by
        checking the *first* token against the *pre-burst* deadline.
        """
        if count <= 0:
            raise ValueError("token count must be positive")
        if now > self.next_token_deadline + EPS and self.violation_at is None:
            self.violation_at = now
        if self.first_token_at is None:
            self.first_token_at = now
        self.tokens_out += count

    def complete(self, now: float) -> None:
        self.finished_at = now
        self.state = RequestState.COMPLETED

    def drop(self, now: float) -> None:
        self.dropped_at = now
        self.state = RequestState.DROPPED

    def begin_migration(self) -> None:
        """Evict/preempt: the KV context must be re-prefetched elsewhere."""
        self.migrations += 1
        self.prefill_len = self.context_len
        self.state = RequestState.MIGRATING

    # ------------------------------------------------------------------
    # Outcome flags
    # ------------------------------------------------------------------
    @property
    def ttft(self) -> float | None:
        if self.first_token_at is None:
            return None
        return self.first_token_at - self.arrival

    @property
    def slo_met(self) -> bool:
        return (
            self.state is RequestState.COMPLETED
            and self.violation_at is None
        )


def deadline_minima(
    base: Sequence[float], tpot: Sequence[float], tok0: Sequence[int], start: int, stop: int
) -> list[float]:
    """Eq. 1 deadline minima of a group of requests, one per decode step.

    Entry ``k - start`` is ``min_i(base_i + tpot_i·(tok0_i + k))`` for
    ``k`` in ``[start, stop)``: the earliest next-token deadline after
    ``k`` more tokens, where member ``i`` has ``tok0_i + k`` tokens out.
    Each term is :attr:`Request.next_token_deadline`'s two float ops, so
    either branch returns the same floats: ``tok0_i + k`` is an exact
    integer (also as a float64 sum, far below 2**53), converting it to
    float64 is exact, and a separate NumPy multiply and add round exactly
    like Python's ``b + s*t``; the minimum does not depend on evaluation
    order.  An empty group's minima are ``inf``.
    """
    members = len(base)
    if not members:
        return [float("inf")] * (stop - start)
    if (stop - start) * members >= _VECTOR_MIN:
        b, s, t = np.array((base, tpot, tok0), dtype=np.float64).reshape(3, members, 1)
        mat = np.arange(start, stop, dtype=np.float64) + t
        mat *= s
        mat += b
        return mat.min(axis=0).tolist()
    minima = []
    for k in range(start, stop):
        m = base[0] + tpot[0] * (tok0[0] + k)
        for i in range(1, members):
            d = base[i] + tpot[i] * (tok0[i] + k)
            if d < m:
                m = d
        minima.append(m)
    return minima
