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
  iterations into array-level work.  Each chained instance keeps its
  batch's deadline coefficients and precomputed step tables in plain
  per-instance state; per-iteration timestamps, deadline/violation
  predicates, token counts and the decode latency law resolve as batched
  operations per chain flush; jitter comes from the chunked PerfDatabase
  stream in scalar order.  Results are **byte-identical** to the
  reference backend: the fast path only ever covers iterations proven
  (ahead of time) to be observationally silent — no request completes,
  no non-decode event interleaves on that executor, every
  ``IterationFinished`` handler is a
  :class:`~repro.policies.events.DecodeChainHandler` whose
  ``quiet_steps`` admits the run (its ``fold`` replays it at the flush)
  — and every batched computation replicates the scalar float
  expressions operation-for-operation.  Anything unproven falls back to
  the reference machinery, from single events up to whole runs (another
  ``IterationFinished`` subscriber, an overridden ``select``).
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
from repro.engine.request import EPS
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

#: step-table entries materialized up front per chain state; tables
#: extend by doubling (up to the budget) as a chain actually runs, so
#: short chains pay for a handful of entries and long ones amortize.
_TABLE_SEED = 8

#: below this table size (steps × batch) the per-state precompute and
#: the flush run as plain Python loops: NumPy's per-call overhead beats
#: the arithmetic for the tiny batches that dominate smoke-scale runs.
#: Both paths evaluate the same IEEE-754 expressions element-for-element.
_VECTOR_MIN = 32

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
class _Candidate:
    """Sentinel chain for freshly scheduled decode finishes."""

    __slots__ = ()
    alive = False


_CANDIDATE = _Candidate()


class _InstState:
    """Per-instance decode-chain state (one runnable instance).

    ``base``/``tpot``/``tok0`` are the deadline coefficients of the
    batch members at state build (immutable thereafter); ``k`` counts
    tokens granted to this batch since the state was built (absolute —
    never reset), ``done`` how many of those a flush has already
    applied, ``ts`` the pending grant timestamps.  ``minD``/``A`` are
    the precomputed step tables: ``minD[k]`` is the batch's minimum
    next-token deadline after ``k`` grants (the work-selection urgency
    is ``minD[k] - now``) and ``A[k]`` the jitter-free iteration
    duration at that point, so the per-event fast path is two table
    lookups instead of per-request arithmetic.  Both are flat
    ``array('d')`` buffers (8 bytes an entry, no boxed floats), filled
    lazily (``_fill_tables``) from the stored kernel coefficients
    ``Pb``/``Qb``/``mul``/``den`` and the initial context sum ``S0``.
    ``budget`` is the last step index the fast path may schedule
    (bounded by earliest completion and the handlers' quiet steps).
    """

    __slots__ = (
        "instance",
        "reqs",
        "B",
        "base",
        "tpot",
        "tok0",
        "k",
        "done",
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
    """A live run of chainable decode iterations on one executor."""

    __slots__ = ("executor", "states", "pending", "handle", "lat", "alive", "handlers")


def _quiet_budget(instance, reqs, handlers) -> int:
    """Steps a chain may take: one short of the earliest completion (the
    completing iteration runs scalar), clipped by every handler's quiet
    steps (e.g. the watermark check staying a no-op)."""
    cap = min(r.output_len - r.tokens_out for r in reqs) - 1
    for handler in handlers:
        if cap <= 0:
            break
        cap = handler.quiet_steps(instance, cap)
    return cap


def _decode_args(executor, st: _InstState) -> tuple:
    """Reference-shaped args of ``st``'s decode-finish event.

    ``WorkItem.urgency`` is only ever read during work selection, never
    after scheduling, so its placeholder is unobservable.
    """
    item = WorkItem(instance=st.instance, kind=WorkKind.DECODE, request=None, urgency=0.0)
    return (executor, item, st.B)


@ENGINES.register("vectorized")
class VectorizedEngine(EngineBackend):
    """Batched decode-iteration backend (byte-identical to reference)."""

    name = "vectorized"
    marks_decode = True

    def __init__(self) -> None:
        self._live: list[_ExecChain] = []
        self._classified_for: Optional[tuple] = None
        self._classified: Optional[tuple] = None
        # Last detached chain per executor: a budget-exhausted chain
        # whose world survives the scalar iteration (the common case
        # when the budget was a quiet-steps window, not a completion)
        # is resumed from here instead of rebuilt.
        self._parked: dict = {}

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
                    if not chain.alive:
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
        dispatch).  Scalar events, candidate handles, and dead chains
        fall back to the main loop.  Skipping the intermediate pushes
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
                # both engines).  Park the chain handle and either hop
                # to the next live chain step or yield to the main loop.
                chain.executor.busy_until = t2
                handle.time = t2
                push(heap, (t2, next(seq), handle))
                if until is not None and top_t > until:
                    return n
                nxt = heap[0][2]
                c2 = nxt.chain
                if c2 is None or c2 is _CANDIDATE or not c2.alive:
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
        handle.args = _decode_args(chain.executor, best)
        handle.chain = None
        self._flush_chain(chain)
        chain.alive = False
        chain.handle = None
        self._live.remove(chain)
        self._parked[chain.executor] = chain

    # ------------------------------------------------------------------
    # Chain construction
    # ------------------------------------------------------------------
    def _static_ok(self, system: "ServingSystem") -> bool:
        """Run-level preconditions for chaining (else: full fallback)."""
        # config.measure_overheads is deliberately NOT a disqualifier:
        # chained kicks skip the wall-clock-timed _select_work, which
        # only shortens the (volatile, nondeterministic) token_schedule
        # overhead series — simulation state and canonical reports are
        # untouched.
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
        """Validate and build a chain at a decode-finish pop, or None.

        ``handle`` was popped at ``sim.now`` and is the iteration
        finish of ``handle.args``'s work item (args are authoritative:
        either the reference kick built them or a flush restored them).
        A resume is tried first, of the flushed-out chain the handle
        still points at or, for a fresh candidate, of the executor's
        parked chain: if nothing observable changed, its precomputed
        tables are revived with fresh budgets instead of being rebuilt.
        """
        handlers = self._classify()
        if handlers is None:
            return None
        system = self.system
        executor, item, batch_size = handle.args
        instance = item.instance
        runnable = system.runnable_instances(executor)
        if not runnable:
            return None
        # Cheap screen before any resume or state build: a pending
        # prefill could win selection mid-chain, and an instance with an
        # empty batch has nothing to chain.
        for inst in runnable:
            if inst.prefill_pending or not inst.batch:
                return None
        prior = handle.chain if handle.chain is not _CANDIDATE else self._parked.get(executor)
        if prior is not None:
            chain = self._resume(prior, handle, runnable, instance, batch_size, handlers)
            if chain is not None:
                return chain
        perf = system.perf
        states: list[_InstState] = []
        pending = None
        for inst in runnable:
            batch = inst.batch
            if inst is instance:
                if len(batch) != batch_size:
                    return None  # membership changed since the kick
                pending = st = self._build_state(inst, batch, perf, handlers)
            else:
                st = self._build_state(inst, batch, perf, handlers)
            states.append(st)
        if pending is None or pending.budget < 1:
            return None
        return self._arm(states, pending, executor, handle, handlers)

    def _resume(
        self, dead, handle, runnable, instance, batch_size, handlers
    ) -> Optional[_ExecChain]:
        """Revive a flushed chain whose world did not change.

        The caller has screened out pending prefills and empty batches.
        Valid when the runnable set and every batch's membership are
        identical (same objects, same order) to the dead chain's: the
        requests' deadline coefficients are immutable, and token counts
        either evolved through this chain's own flushes or — for a
        *parked* chain whose scalar interlude ran whole iterations (the
        detach + watermark-rescale cycle) — advanced uniformly across
        the batch, in which case the absolute step index is rebased by
        that uniform delta and the ``minD`` / ``A`` tables (functions of
        steps-since-build) remain exact.  Budgets are re-derived — the
        interrupting event may have changed completions-ahead or the
        handlers' quiet steps.
        """
        states = dead.states
        if len(states) != len(runnable):
            return None
        pending = None
        for st, inst in zip(states, runnable):
            if st.instance is not inst:
                return None
            batch = inst.batch
            reqs = st.reqs
            if len(batch) != len(reqs):
                return None
            for held, member in zip(reqs, batch):
                if held is not member:
                    return None
            if inst is instance:
                if len(batch) != batch_size:
                    return None
                pending = st
        if pending is None:
            return None
        deltas = []
        for st in states:
            tok0 = st.tok0
            done = st.done
            delta = st.reqs[0].tokens_out - tok0[0] - done
            if delta < 0:
                return None
            if delta:
                for i, r in enumerate(st.reqs):
                    if tok0[i] + done + delta != r.tokens_out:
                        return None
            deltas.append(delta)
        for st, delta in zip(states, deltas):
            if delta:
                st.done = st.k = st.done + delta
                if st.k >= len(st.minD):
                    # The rebase can jump past the lazily-filled tables;
                    # selection reads minD[k]/A[k] for *every* state, so
                    # restore the len > k invariant here (the burst loop
                    # only back-fills the pending state).
                    self._fill_tables(st, st.k + 1)
            st.budget = st.k + _quiet_budget(st.instance, st.reqs, handlers)
        if pending.budget <= pending.k:
            return None
        return self._arm(states, pending, dead.executor, handle, handlers)

    def _arm(self, states, pending, executor, handle, handlers) -> _ExecChain:
        chain = _ExecChain()
        chain.executor = executor
        chain.handlers = handlers
        chain.states = states
        chain.pending = pending
        chain.handle = handle
        chain.lat = self.system.policies.work.latency_factor(
            self.system, executor, WorkKind.DECODE
        )
        chain.alive = True
        handle.chain = chain
        self._live.append(chain)
        self._parked.pop(executor, None)
        return chain

    def _build_state(self, inst, batch, perf, handlers) -> _InstState:
        st = _InstState()
        st.instance = inst
        st.reqs = reqs = list(batch)
        # Deadline coefficients straight from the requests, as the exact
        # partial sums of Request.next_token_deadline.
        base = st.base = [r.deadline_base for r in reqs]
        tpot = st.tpot = [r.tpot_slo for r in reqs]
        tok0 = st.tok0 = [r.tokens_out for r in reqs]
        B = st.B = len(reqs)
        st.k = 0
        st.done = 0
        st.ts = []
        kernel = perf.decode_kernel(inst.node.spec, inst.model, inst.fraction, inst.tp_degree)
        st.Pb = kernel.const_ms + kernel.per_seq_ms * B
        st.Qb = kernel.per_token_ms * B
        st.mul = kernel.slowdown
        st.den = kernel.denom
        st.S0 = sum(r.context_len for r in reqs)
        st.budget = cap = _quiet_budget(inst, reqs, handlers)
        st.minD = array("d")
        st.A = array("d")
        self._fill_tables(st, min(max(cap, 0), _TABLE_SEED) + 1)
        return st

    def _fill_tables(self, st: _InstState, n: int) -> None:
        """Extend the step tables (see _InstState) to ``n`` entries.

        Appends k = len(A)..n-1 of the batched decode-law / selection-
        deadline evaluation.  Both branches compute the identical
        IEEE-754 expressions —
          A[k]    = ((Pb + Qb·avg_k)·mul)/den,  avg_k = (S0 + k·B)/B
          minD[k] = min_i(base_i + tpot_i·(tok0_i + k))
        matching decode_seconds' hoisted coefficients and the
        scheduler's next_token_deadline minimum term-for-term.
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
        base = st.base
        tpot = st.tpot
        tok0 = st.tok0
        if (n - start) * B >= _VECTOR_MIN:
            ks = np.arange(start, n)
            avg = (S0 + ks * B) / B
            st.A.frombytes(((Pb + Qb * avg) * mul / den).tobytes())
            mat = np.asarray(base)[:, None] + np.asarray(tpot)[:, None] * (
                np.asarray(tok0, dtype=np.int64)[:, None] + ks
            )
            st.minD.frombytes(mat.min(axis=0).tobytes())
        else:
            A = st.A
            minD = st.minD
            for k in range(start, n):
                avg = (S0 + k * B) / B
                A.append((Pb + Qb * avg) * mul / den)
                m = base[0] + tpot[0] * (tok0[0] + k)
                for i in range(1, B):
                    d = base[i] + tpot[i] * (tok0[i] + k)
                    if d < m:
                        m = d
                minD.append(m)

    # ------------------------------------------------------------------
    # Flush: deferred effects, applied before any scalar observer
    # ------------------------------------------------------------------
    def _flush_all(self) -> None:
        for chain in self._live:
            # The chain is dying (an external event fires next); its
            # armed successor must be indistinguishable from one the
            # reference kick scheduled.  ``handle.chain`` keeps pointing
            # at the dead chain so the pop revalidates (and possibly
            # re-chains) from the args; dropping the reverse edge leaves
            # no cycle, so refcounting frees the chain once nothing
            # resumes it.
            chain.handle.args = _decode_args(chain.executor, chain.pending)
            self._flush_chain(chain)
            chain.alive = False
            chain.handle = None
        self._live.clear()

    def _flush_chain(self, chain) -> None:
        for st in chain.states:
            if st.k > st.done:
                self._flush_state(st, chain.executor, chain.handlers)

    def _flush_state(self, st: _InstState, executor, handlers) -> None:
        m = st.k - st.done
        done = st.done
        ts = st.ts
        first_ts = ts[0]
        # Batched replication of m record_tokens sweeps: deadline
        # D[i, j] = base_i + tpot_i * (tok0_i + done + j) for steps
        # j < m (token counts are absolute from state build), the same
        # two float ops as the scalar property; violation test
        # ts_j > D + eps with pre-increment token counts.  Small flushes
        # (the common case) run the identical expressions as Python
        # loops — NumPy's call overhead dwarfs the work below _VECTOR_MIN.
        if m * st.B >= _VECTOR_MIN:
            base = np.array(st.base)
            tpot = np.array(st.tpot)
            tok0 = np.array(st.tok0, dtype=np.int64) + done
            deadlines = base[:, None] + tpot[:, None] * (tok0[:, None] + np.arange(m))
            violated = np.asarray(ts)[None, :] > deadlines + EPS
            has_violation = violated.any(axis=1)
            first_violation = violated.argmax(axis=1)
            for i, request in enumerate(st.reqs):
                if request.violation_at is None and has_violation[i]:
                    request.violation_at = ts[first_violation[i]]
                if request.first_token_at is None:
                    request.first_token_at = first_ts
                request.tokens_out += m
        else:
            for i, request in enumerate(st.reqs):
                if request.violation_at is None:
                    base = st.base[i]
                    tpot = st.tpot[i]
                    tok = st.tok0[i] + done
                    for j in range(m):
                        if ts[j] > base + tpot * (tok + j) + EPS:
                            request.violation_at = ts[j]
                            break
                if request.first_token_at is None:
                    request.first_token_at = first_ts
                request.tokens_out += m
        st.instance.iterations += m
        st.instance.decode_tokens += st.B * m
        executor.iterations += m
        for handler in handlers:
            handler.fold(st.instance, st.B, m)
        st.done = st.k
        st.ts = []
