"""Engine backends: pluggable dispatch loops behind one seam.

A :class:`~repro.core.system.ServingSystem` delegates its inner event
loop to an *engine backend*.  The seam contract:

* ``bind(system)`` — called once from the system constructor, before
  any event fires; backends hook the event bus / allocate state here.
* ``run_loop(system, until)`` — drive ``system.sim`` until the horizon,
  with semantics identical to ``Simulator.run(until=...)``.
* ``note_decode(handle)`` — the system calls this (only when
  ``marks_decode`` is set) for every scheduled decode-iteration finish,
  so backends can recognise the hot event class without inspecting
  callbacks at dispatch time.

Two backends are registered:

* ``vectorized`` (the default) — batches runs of consecutive decode
  iterations into array-level work.  Each instance's chain state (its
  batch's members, deadline coefficients, kernel coefficients and
  precomputed step tables) is built once per ``batch_version`` and
  cached on that version's :class:`~repro.engine.instance.BatchProfile`;
  every chain arm re-arms the cached states at the instances' current
  grant counts, so only a version's first arm costs O(batch) per
  instance, and budgets come from the same profile.  Per-iteration timestamps,
  deadline/violation predicates, token counts and the decode latency law
  resolve as batched operations per chain flush; jitter comes from the
  chunked PerfDatabase stream in scalar order.  Results are
  **byte-identical** to the reference backend: the fast path only ever
  covers iterations proven (ahead of time) to be observationally silent
  — no request completes, no non-decode event interleaves on that
  executor, every ``IterationFinished`` handler is a
  :class:`~repro.policies.events.DecodeChainHandler` whose
  ``quiet_steps`` admits the run (its ``fold`` replays it at the flush)
  — and every batched computation replicates the scalar float
  expressions operation-for-operation.  A flush skips the per-member
  deadline scan when every pending step met the batch's minimum deadline
  (``minD``).  Anything unproven falls back to the reference machinery,
  from single events up to whole runs (another ``IterationFinished``
  subscriber, an overridden ``select``).
* ``reference`` — delegates straight to ``Simulator.run``; zero
  behavioural footprint.  It is the parity oracle the vectorized
  backend is tested against.

Select a backend per run with ``ServingSystem(engine=...)``, the
``--engine`` CLI flag, or the ``REPRO_ENGINE`` environment variable;
without any of them a run uses ``vectorized``.
"""

from __future__ import annotations

import heapq
import os
from array import array
from typing import TYPE_CHECKING, Optional, Union

import numpy as np

from repro.compute.scheduler import WorkItem, WorkKind
from repro.engine.request import _TABLE_SEED, _VECTOR_MIN, EPS, deadline_minima
from repro.policies.base import WorkSelectionPolicy
from repro.policies.events import DecodeChainHandler, IterationFinished
from repro.registries import Registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.system import ServingSystem
    from repro.sim.simulator import EventHandle

#: environment variable selecting the default backend for a process
ENGINE_ENV = "REPRO_ENGINE"

#: registered engine backends, by name
ENGINES: Registry[type] = Registry("engine")

#: backend used when neither the caller nor ``REPRO_ENGINE`` picks one
DEFAULT_ENGINE = "vectorized"

#: minimum estimated step count before a single-state chain burst is
#: resolved as one batched cumsum instead of scalar iteration (a NumPy
#: round-trip costs ~a handful of scalar steps).
_FF_MIN = 8


class EngineBackend:
    """Base class for engine backends (see the module docstring)."""

    name: str = "?"
    #: whether the system should call :meth:`note_decode` for every
    #: scheduled decode-iteration finish (False avoids any per-event
    #: cost for backends that do not use the marks)
    marks_decode: bool = False

    def bind(self, system: "ServingSystem") -> None:
        self.system = system

    def note_decode(self, handle: "EventHandle") -> None:
        """Mark a scheduled decode-finish event (hot-path hook)."""

    def run_loop(self, system: "ServingSystem", until: Optional[float]) -> int:
        """Dispatch events until the horizon; returns events fired."""
        raise NotImplementedError


@ENGINES.register("reference")
class ReferenceEngine(EngineBackend):
    """The pure-Python scalar loop — the parity baseline."""

    name = "reference"

    def run_loop(self, system: "ServingSystem", until: Optional[float]) -> int:
        return system.sim.run(until=until)


def resolve_engine(
    engine: Union[str, EngineBackend, None] = None,
) -> EngineBackend:
    """Resolve an engine selection to a fresh backend instance.

    Precedence: explicit argument (instance or registered name), then
    the ``REPRO_ENGINE`` environment variable, then ``vectorized``.
    ``REPRO_ENGINE=reference`` selects the scalar parity oracle.
    """
    if isinstance(engine, EngineBackend):
        return engine
    name = engine or os.environ.get(ENGINE_ENV) or DEFAULT_ENGINE
    return ENGINES.get(name)()


# ----------------------------------------------------------------------
# Vectorized backend
# ----------------------------------------------------------------------
#: ``EventHandle.chain`` of a decode finish that no live chain owns: a
#: fresh one from the reference kick, or one a flush handed back
_CANDIDATE = object()


class _InstState:
    """One batch version's decode-chain state, cached on its BatchProfile.

    Built at the version's first chain arm, at grant count ``g0``:
    ``reqs`` are the members and ``base``/``tpot``/``tok0`` their Eq. 1
    deadline coefficients.  While the version holds, every grant gives
    every member one token (``ServingSystem._finish_decode`` bumps a
    version that changed mid-grant once more), so the members hold
    ``tok0 + (grants − g0)`` tokens.  Step indices count grants since
    ``g0``.  ``minD``/``A`` are the precomputed step tables: ``minD[k]``
    is the batch's minimum next-token deadline after ``k`` grants (the
    work-selection urgency is ``minD[k] - now``) and ``A[k]`` the
    jitter-free iteration duration at that point, so the per-event fast
    path is two table lookups instead of per-request arithmetic.  Both
    are flat ``array('d')`` buffers (8 bytes an entry, no boxed floats),
    filled lazily (``_fill_tables``) from the kernel coefficients
    ``Pb``/``Qb``/``mul``/``den`` and the initial context sum ``S0``.

    The rest is the current arm's cursor: ``k`` is the step index of the
    latest grant, ``ts`` the timestamps of the grants not yet flushed
    (the last ``len(ts)`` of the ``k``; empty at every arm), and
    ``budget`` the last step index the fast path may schedule (bounded by
    the earliest completion and the handlers' quiet steps); every arm
    sets ``k`` and ``budget`` afresh.

    A state holds no reference to its instance (the chain pairs them):
    a back-pointer would close the cycle instance → profile → state →
    instance, which outlives the run without the cyclic collector.
    """

    __slots__ = (
        "reqs",
        "g0",
        "B",
        "base",
        "tpot",
        "tok0",
        "k",
        "ts",
        "budget",
        "minD",
        "A",
        "Pb",
        "Qb",
        "mul",
        "den",
        "S0",
    )


class _ExecChain:
    """A live run of chainable decode iterations on one executor.

    ``states[i]`` is the armed state of instance ``insts[i]``.
    """

    __slots__ = ("executor", "states", "insts", "pending", "handle", "lat", "handlers")


def _decode_args(chain: _ExecChain, st: _InstState) -> tuple:
    """Reference-shaped args of the decode-finish event of ``st``'s instance.

    ``WorkItem.urgency`` is only ever read during work selection, never
    after scheduling, so its placeholder is unobservable.
    """
    instance = chain.insts[chain.states.index(st)]
    item = WorkItem(instance=instance, kind=WorkKind.DECODE, request=None, urgency=0.0)
    return (chain.executor, item, st.B)


@ENGINES.register("vectorized")
class VectorizedEngine(EngineBackend):
    """Batched decode-iteration backend (byte-identical to reference)."""

    name = "vectorized"
    marks_decode = True

    def __init__(self) -> None:
        self._live: list[_ExecChain] = []
        self._classified_for: Optional[tuple] = None
        self._classified: Optional[tuple] = None

    # ------------------------------------------------------------------
    # Seam hooks
    # ------------------------------------------------------------------
    def note_decode(self, handle: "EventHandle") -> None:
        handle.chain = _CANDIDATE

    # ------------------------------------------------------------------
    # Dispatch loop (mirrors Simulator.run semantics)
    # ------------------------------------------------------------------
    def run_loop(self, system: "ServingSystem", until: Optional[float]) -> int:
        sim = system.sim
        if not self._static_ok(system):
            return sim.run(until=until)
        heap = sim._heap
        pop = heapq.heappop
        push = heapq.heappush
        seq = sim._sequence
        jitter = system.perf._jitter
        fired = 0
        processed = 0
        try:
            while True:
                while heap and heap[0][2].cancelled:
                    pop(heap)
                if not heap:
                    break
                t = heap[0][0]
                if until is not None and t > until:
                    sim.now = until
                    break
                _, _, handle = pop(heap)
                sim.now = t
                chain = handle.chain
                if chain is not None:
                    if chain is _CANDIDATE:
                        chain = self._try_chain(handle)
                    if chain is not None:
                        n = self._burst(
                            chain, handle, t, sim, heap, pop, push, seq, jitter, until
                        )
                        processed += n
                        fired += n
                        continue
                if self._live:
                    self._flush_all()
                handle.fired = True
                processed += 1
                fired += 1
                handle.callback(*handle.args)
        finally:
            if self._live:
                self._flush_all()
            sim._events_processed += processed
        if until is not None and sim.now < until and sim.peek_time() is None:
            sim.now = until
        return fired

    # ------------------------------------------------------------------
    # Fast step
    # ------------------------------------------------------------------
    def _burst(self, chain, handle, t, sim, heap, pop, push, seq, jitter, until) -> int:
        """Process one popped chain step, then keep stepping without the heap.

        While the chain's next completion precedes every pending heap
        event, the heap round-trip (push + pop + dispatch) is pure
        overhead: no callback can run in between, so the engine steps the
        chain in place.  When another *live chain's* step is next, the
        burst hops to it directly (one push/pop, but no main-loop
        dispatch).  Scalar events and candidate handles fall back to the
        main loop.  Skipping the intermediate pushes
        skips their sequence-counter draws, which is unobservable: every
        event already in the heap was pushed earlier in both engines, so
        tie-breaking against the chain handle resolves identically.

        Single-state chains additionally *fast-forward*: when the gap to
        the next heap event spans many steps and only one instance is in
        the chain (selection is trivial), the whole run of step
        timestamps is resolved at once as ``cumsum`` over the
        precomputed law table × a peeked slice of the jitter stream —
        NumPy's cumsum accumulates sequentially, so the partial sums are
        bit-identical to the scalar recurrence, and only the draws for
        steps actually taken are committed.

        Returns the number of events processed (each step is one logical
        event, matching the reference engine's per-iteration pop).
        """
        inf = float("inf")
        n = 1
        while True:
            # The pending event is the iteration finish of
            # ``chain.pending``: its whole batch gains one token at
            # ``t`` (flushed later).
            st = chain.pending
            k = st.k + 1
            st.k = k
            st.ts.append(t)
            if k >= len(st.minD):
                self._fill_tables(st, min(st.budget, 2 * k) + 1)
            # Work selection, replicating select_next_work over the
            # frozen runnable set: decode-only candidates in attach
            # order, strict ``<`` so ties keep the first-seen, urgency =
            # min batch deadline minus now (the same subtraction as the
            # scalar code — comparing raw deadlines is NOT
            # bit-equivalent).  The deadline minima come from the
            # precomputed per-step tables.
            states = chain.states
            best = states[0]
            if len(states) > 1:
                best_u = best.minD[best.k] - t
                for i in range(1, len(states)):
                    cand = states[i]
                    u = cand.minD[cand.k] - t
                    if u < best_u:
                        best = cand
                        best_u = u
            # Iteration duration: precomputed law value × stream-ordered
            # jitter × the chain-invariant latency factor — the exact
            # float grouping of the scalar kick.
            d = best.A[best.k] * jitter() * chain.lat
            t2 = t + d
            if best.k >= best.budget:
                # Budget-exhausting iteration: its finish needs the full
                # reference machinery (completion, watermark, ...).
                # Hand the reused handle back with reference-shaped args.
                chain.executor.busy_until = t2
                handle.time = t2
                self._detach(chain, handle, best)
                push(heap, (t2, next(seq), handle))
                return n
            chain.pending = best
            single = len(states) == 1
            while True:
                while heap and heap[0][2].cancelled:
                    pop(heap)
                top_t = heap[0][0] if heap else inf
                if t2 < top_t:
                    if until is not None and t2 > until:
                        chain.executor.busy_until = t2
                        handle.time = t2
                        push(heap, (t2, next(seq), handle))
                        return n
                    if single:
                        # Batched fast-forward: selection is trivial, so
                        # the step-time recurrence is a pure cumsum over
                        # table × jitter values.
                        rem = best.budget - best.k - 1
                        if rem >= _FF_MIN:
                            approx = best.A[best.k] * chain.lat
                            span = top_t - t2
                            if approx > 0.0 and span > approx * _FF_MIN:
                                want = (
                                    rem
                                    if span >= approx * rem
                                    else int(span / approx) + 2
                                )
                                c, t2 = self._fast_forward(
                                    best, chain, t2, top_t, until, min(want, rem)
                                )
                                n += c
                                continue
                    sim.now = t = t2
                    n += 1
                    break
                # Another event fires first (ties included: it was
                # pushed earlier, so its sequence number is smaller in
                # both engines).  Push the chain handle back and either hop
                # to the next live chain step or yield to the main loop.
                chain.executor.busy_until = t2
                handle.time = t2
                push(heap, (t2, next(seq), handle))
                if until is not None and top_t > until:
                    return n
                nxt = heap[0][2]
                c2 = nxt.chain
                if c2 is None or c2 is _CANDIDATE:
                    return n
                pop(heap)
                sim.now = t = top_t
                handle = nxt
                chain = c2
                n += 1
                break

    def _fast_forward(self, st, chain, t2, top_t, until, want):
        """Resolve up to ``want`` single-state steps as batched array ops.

        The pending completion is at ``t2`` (not yet processed); step
        ``j`` fires at ``T_j`` with ``T_1 = t2`` and ``T_{j+1} = T_j +
        A[k+j]·v_j·lat``.  ``cumsum`` accumulates left-to-right exactly
        like the scalar loop, so every ``T_j`` is bit-identical.  Only
        steps strictly before the next heap event (and within ``until``)
        are taken; exactly that many jitter draws are committed, keeping
        the global stream aligned with the reference engine.

        Returns ``(steps_taken, new_pending_time)``; the caller re-enters
        the continuation decision with the advanced state.
        """
        k0 = st.k
        need = k0 + want + 1
        if need > len(st.A):
            self._fill_tables(st, need)
        perf = self.system.perf
        vals = perf.jitter_peek(want)
        d = np.frombuffer(st.A[k0 + 1 : k0 + 1 + want]) * np.asarray(vals) * chain.lat
        path = np.cumsum(np.concatenate(((t2,), d)))
        c = int(np.searchsorted(path, top_t, side="left"))
        if until is not None:
            c_until = int(np.searchsorted(path, until, side="right"))
            if c_until < c:
                c = c_until
        if c > want:
            c = want
        # The caller guarantees t2 < top_t and t2 <= until, so c >= 1.
        perf.jitter_commit(c)
        st.k = k0 + c
        st.ts.extend(path[:c].tolist())
        return c, float(path[c])

    def _detach(self, chain, handle, best) -> None:
        handle.args = _decode_args(chain, best)
        handle.chain = None
        self._flush_chain(chain)
        self._live.remove(chain)

    # ------------------------------------------------------------------
    # Chain construction
    # ------------------------------------------------------------------
    def _static_ok(self, system: "ServingSystem") -> bool:
        """Run-level preconditions for chaining (else: full fallback)."""
        return type(system.policies.work).select is WorkSelectionPolicy.select

    def _classify(self) -> Optional[tuple[DecodeChainHandler, ...]]:
        """The IterationFinished handlers, or ``None`` if any cannot chain.

        Chaining needs every handler to be a :class:`DecodeChainHandler`.
        Cached on the bus's handler tuple, which subscribe/detach replace.
        """
        handlers = self.system.bus.handlers(IterationFinished)
        if handlers is not self._classified_for:
            self._classified_for = handlers
            chainable = all(isinstance(h, DecodeChainHandler) for h in handlers)
            self._classified = handlers if chainable else None
        return self._classified

    def _try_chain(self, handle) -> Optional[_ExecChain]:
        """Arm a chain at a decode-finish pop, or return None.

        ``handle`` was popped at ``sim.now`` and is the iteration
        finish of ``handle.args``'s work item (args are authoritative:
        either the reference kick built them or a flush restored them).
        Every runnable instance on the executor contributes its batch
        version's state, built at the version's first arm and re-armed
        here at the instance's current grant count with a fresh budget:
        the event that ended the last chain may have changed the
        completions ahead or the handlers' quiet steps.
        """
        handlers = self._classify()
        if handlers is None:
            return None
        executor, item, batch_size = handle.args
        instance = item.instance
        if len(instance.batch) != batch_size:
            return None  # membership changed since the kick
        runnable = self.system.runnable_instances(executor)
        # Cheap screen before any state work: a pending prefill could win
        # selection mid-chain, and an instance with an empty batch has
        # nothing to chain.
        for inst in runnable:
            if inst.prefill_pending or not inst.batch:
                return None
        states: list[_InstState] = []
        pending = None
        for inst in runnable:
            profile = inst.batch_profile()
            st = profile.chain_state
            if st is None:
                st = profile.chain_state = self._build_state(inst)
            grants = inst.grants
            st.k = k = grants - st.g0
            # Steps the chain may take: one short of the earliest
            # completion (the completing iteration runs scalar), clipped
            # by every handler's quiet steps (e.g. the watermark check
            # staying a no-op).
            cap = profile.finish_at - grants - 1
            for handler in handlers:
                if cap <= 0:
                    break
                cap = handler.quiet_steps(inst, cap)
            st.budget = k + cap
            if k >= len(st.A):
                # Selection reads minD[k] / A[k] of every state.
                self._fill_tables(st, k + min(max(cap, 0), _TABLE_SEED) + 1)
            if inst is instance:
                pending = st
            states.append(st)
        if pending is None or pending.budget <= pending.k:
            return None
        return self._arm(states, runnable, pending, executor, handle, handlers)

    def _arm(self, states, insts, pending, executor, handle, handlers) -> _ExecChain:
        chain = _ExecChain()
        chain.executor = executor
        chain.handlers = handlers
        chain.states = states
        chain.insts = insts
        chain.pending = pending
        chain.handle = handle
        chain.lat = self.system.policies.work.latency_factor(
            self.system, executor, WorkKind.DECODE
        )
        handle.chain = chain
        self._live.append(chain)
        return chain

    def _build_state(self, inst) -> _InstState:
        """The chain state of ``inst``'s current batch version (unarmed)."""
        st = _InstState()
        st.g0 = inst.grants
        st.reqs = reqs = list(inst.batch)
        # Deadline coefficients straight from the requests, as the exact
        # partial sums of Request.next_token_deadline.
        st.base = [r.deadline_base for r in reqs]
        st.tpot = [r.tpot_slo for r in reqs]
        st.tok0 = [r.tokens_out for r in reqs]
        B = st.B = len(reqs)
        st.ts = []
        kernel = self.system.perf.decode_kernel(
            inst.node.spec, inst.model, inst.fraction, inst.tp_degree
        )
        st.Pb = kernel.const_ms + kernel.per_seq_ms * B
        st.Qb = kernel.per_token_ms * B
        st.mul = kernel.slowdown
        st.den = kernel.denom
        st.S0 = sum(r.context_len for r in reqs)
        st.minD = array("d")
        st.A = array("d")
        return st

    def _fill_tables(self, st: _InstState, n: int) -> None:
        """Extend the step tables (see _InstState) to ``n`` entries.

        Appends k = len(A)..n-1 of the batched decode-law / selection-
        deadline evaluation.  Both branches compute the identical
        IEEE-754 expression
          A[k] = ((Pb + Qb·avg_k)·mul)/den,  avg_k = (S0 + k·B)/B
        matching decode_seconds' hoisted coefficients term for term;
        minD[k] is the scheduler's next_token_deadline minimum, from
        :func:`~repro.engine.request.deadline_minima`.
        """
        start = len(st.A)
        if n <= start:
            return
        B = st.B
        Pb = st.Pb
        Qb = st.Qb
        mul = st.mul
        den = st.den
        S0 = st.S0
        if (n - start) * B >= _VECTOR_MIN:
            avg = (S0 + np.arange(start, n) * B) / B
            st.A.frombytes(((Pb + Qb * avg) * mul / den).tobytes())
        else:
            A = st.A
            for k in range(start, n):
                avg = (S0 + k * B) / B
                A.append((Pb + Qb * avg) * mul / den)
        st.minD.fromlist(deadline_minima(st.base, st.tpot, st.tok0, start, n))

    # ------------------------------------------------------------------
    # Flush: deferred effects, applied before any scalar observer
    # ------------------------------------------------------------------
    def _flush_all(self) -> None:
        for chain in self._live:
            # The chain dies (an external event fires next).  Its handle
            # stays in the heap as a fresh candidate with reference-shaped
            # args, indistinguishable from one the reference kick
            # scheduled: its pop re-arms a chain or runs scalar.
            handle = chain.handle
            handle.args = _decode_args(chain, chain.pending)
            handle.chain = _CANDIDATE
            self._flush_chain(chain)
        self._live.clear()

    def _flush_chain(self, chain) -> None:
        for st, inst in zip(chain.states, chain.insts):
            if st.ts:
                self._flush_state(st, inst, chain.handlers)

    def _flush_state(self, st: _InstState, instance, handlers) -> None:
        ts = st.ts
        m = len(ts)
        _mark_late(st)
        first_ts = ts[0]
        for request in st.reqs:
            if request.first_token_at is None:
                request.first_token_at = first_ts
            request.tokens_out += m
        instance.grants += m
        for handler in handlers:
            handler.fold(instance, st.B, m)
        st.ts = []


def _mark_late(st: _InstState) -> None:
    """Set ``violation_at`` for the members ``st``'s pending grants made late.

    Batched replication of the m = len(ts) pending ``record_tokens``
    sweeps, at the timestamps ``ts``: with ``done = k − m`` grants since
    the state's build already applied, member i's deadline at step j < m
    is ``base_i + tpot_i·(tok0_i + done + j)``, the same two float ops
    as the scalar property, and the violation test is
    ``ts_j > deadline + EPS`` with pre-increment token counts.

    Screen first: ``minD[done + j]`` is the minimum of those very
    deadlines, and ``x ↦ fl(x + EPS)`` is monotone, so a step that meets
    ``minD`` makes no member late; when every step does, the per-member
    scan is skipped.  Small scans (the common case) run the identical
    expressions as Python loops — NumPy's call overhead dwarfs the work
    below _VECTOR_MIN.
    """
    ts = st.ts
    m = len(ts)
    done = st.k - m
    for t, earliest in zip(ts, st.minD[done : done + m]):
        if t > earliest + EPS:
            break
    else:
        return
    reqs = st.reqs
    if m * st.B >= _VECTOR_MIN:
        base = np.array(st.base)
        tpot = np.array(st.tpot)
        tok0 = np.array(st.tok0, dtype=np.int64) + done
        deadlines = base[:, None] + tpot[:, None] * (tok0[:, None] + np.arange(m))
        violated = np.asarray(ts)[None, :] > deadlines + EPS
        has_violation = violated.any(axis=1)
        first_violation = violated.argmax(axis=1)
        for i, request in enumerate(reqs):
            if request.violation_at is None and has_violation[i]:
                request.violation_at = ts[first_violation[i]]
        return
    for i, request in enumerate(reqs):
        if request.violation_at is None:
            base = st.base[i]
            tpot = st.tpot[i]
            tok = st.tok0[i] + done
            for j in range(m):
                if ts[j] > base + tpot * (tok + j) + EPS:
                    request.violation_at = ts[j]
                    break
