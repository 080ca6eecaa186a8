"""Minimal deterministic discrete-event simulator.

Events are ``(time, sequence, handle)`` triples in a binary heap.  The
``sequence`` counter makes ordering total and deterministic: two events
scheduled for the same instant fire in scheduling order.  Cancellation is
lazy — a cancelled handle stays in the heap but is skipped when popped —
which keeps ``cancel`` O(1).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Optional


class SimulationError(RuntimeError):
    """Raised on invalid use of the simulator (e.g. scheduling in the past)."""


class EventHandle:
    """A scheduled callback that can be cancelled before it fires."""

    __slots__ = ("time", "callback", "args", "cancelled", "fired", "chain")

    def __init__(self, time: float, callback: Callable[..., Any], args: tuple):
        self.time = time
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False
        # Engine-backend annotation (see repro.sim.engine): backends that
        # fast-path runs of homogeneous events stash their per-event state
        # here.  Always None under the reference backend.
        self.chain = None

    def cancel(self) -> None:
        """Prevent the event from firing.  Cancelling a fired event is a no-op."""
        self.cancelled = True

    @property
    def pending(self) -> bool:
        return not self.cancelled and not self.fired

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else ("fired" if self.fired else "pending")
        name = getattr(self.callback, "__name__", repr(self.callback))
        return f"EventHandle(t={self.time:.6f}, {name}, {state})"


class Simulator:
    """Event loop with a monotonically advancing clock.

    Usage::

        sim = Simulator()
        sim.schedule(1.0, lambda: print(sim.now))
        sim.run()
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[tuple[float, int, EventHandle]] = []
        self._sequence = itertools.count()
        self._events_processed = 0
        self._compact_at = 64

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute simulation ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at t={time:.6f} before now={self.now:.6f}"
            )
        handle = EventHandle(time, callback, args)
        heap = self._heap
        heapq.heappush(heap, (time, next(self._sequence), handle))
        # Lazy cancellation leaves tombstones below the heap head; under
        # churny workloads (keepalive resets, queue drops) they can come
        # to dominate.  When the heap outgrows the amortised threshold,
        # rebuild it from the live entries — in place, because run loops
        # hold a local alias to the list.
        if len(heap) >= self._compact_at:
            live = [entry for entry in heap if not entry[2].cancelled]
            if 2 * len(live) <= len(heap):
                heap[:] = live
                heapq.heapify(heap)
            self._compact_at = max(64, 2 * len(heap))
        return handle

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` after ``delay`` seconds."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self.schedule_at(self.now + delay, callback, *args)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def peek_time(self) -> Optional[float]:
        """Time of the next pending event, or None if the queue is drained."""
        self._drop_cancelled()
        if not self._heap:
            return None
        return self._heap[0][0]

    def step(self) -> bool:
        """Fire the single next pending event.  Returns False when drained."""
        self._drop_cancelled()
        if not self._heap:
            return False
        self._fire_next()
        return True

    def _fire_next(self) -> None:
        """Pop and fire the head event.

        The caller must have just purged cancelled heads (``peek_time``
        or an explicit ``_drop_cancelled``), so the head is pending —
        this avoids re-scanning the heap a second time per event.
        """
        time, _seq, handle = heapq.heappop(self._heap)
        self.now = time
        handle.fired = True
        self._events_processed += 1
        handle.callback(*handle.args)

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run until the queue drains, the clock passes ``until``, or
        ``max_events`` events have fired.  Returns the number of events fired.

        The dispatch loop is inlined (no per-event ``peek_time`` /
        ``_fire_next`` calls): this is the innermost loop of every
        simulation, and call overhead here is paid tens of thousands of
        times per run.
        """
        heap = self._heap
        pop = heapq.heappop
        fired = 0
        while True:
            if max_events is not None and fired >= max_events:
                break
            while heap and heap[0][2].cancelled:
                pop(heap)
            if not heap:
                break
            next_time = heap[0][0]
            if until is not None and next_time > until:
                self.now = until
                break
            _, _, handle = pop(heap)
            self.now = next_time
            handle.fired = True
            self._events_processed += 1
            handle.callback(*handle.args)
            fired += 1
        if until is not None and self.now < until and self.peek_time() is None:
            self.now = until
        return fired

    def clear(self) -> None:
        """Discard every pending event (the leftovers of a finished run)."""
        self._heap.clear()

    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def pending_events(self) -> int:
        return sum(1 for _, _, h in self._heap if h.pending)

    def _drop_cancelled(self) -> None:
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
