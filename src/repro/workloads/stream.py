"""Streaming workload API: deployments plus an ordered arrival iterator.

A :class:`WorkloadStream` is the lazy counterpart of
:class:`~repro.workloads.spec.Workload`: the same deployments and
(optionally known) horizon, but the trace itself is an iterator of
:class:`~repro.workloads.spec.RequestSpec` in nondecreasing arrival
order instead of a pre-materialized list.  The serving system pulls one
arrival ahead of the simulation clock, so ingest memory is O(in-flight)
instead of O(trace) — the last O(trace) term left after the streaming
metrics mode bounded the collector.

Three stream families cover every producer:

* :class:`MaterializedStream` — a :class:`Workload` viewed as a stream
  (``Workload.stream()``); re-iterable, zero-copy.
* :class:`GroupedStream` — what every registered scenario returns:
  per-deployment emission groups (:class:`ArrayGroup` over the
  generators' batched RNG arrays, :class:`SpecGroup` for loop-built
  traces) merged on demand by a stable k-way merge, so the merged
  ``list[RequestSpec]`` is never built.  ``materialize()`` concatenates
  the same groups in emission order instead, and ``list(stream)``
  equals the materialized trace's ``requests`` element for element.
* :class:`QueueStream` — the live-ingest bridge: a thread-safe queue a
  gateway pushes into while the simulation thread consumes, with a
  consumed-count handshake so the producer knows when an arrival has
  been fully processed.
"""

from __future__ import annotations

import heapq
import queue
import threading
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Sequence, Union

import numpy as np

from repro.workloads.spec import Deployment, RequestSpec, Workload

__all__ = [
    "ArrayGroup",
    "GroupedStream",
    "IteratorStream",
    "MaterializedStream",
    "QueueStream",
    "SpecGroup",
    "StreamClosedError",
    "StreamOrderError",
    "WorkloadStream",
]

#: specs converted from a group's arrays per chunk during lazy iteration;
#: bounds the number of live RequestSpec objects the merge holds per group
STREAM_CHUNK = 2048

_arrival = attrgetter("arrival")


class StreamOrderError(ValueError):
    """An arrival that would move the stream (or simulation) backwards."""


class StreamClosedError(RuntimeError):
    """A push into a :class:`QueueStream` that has already been closed."""


class WorkloadStream:
    """Deployments plus an ordered iterator of request specs.

    Subclasses set ``name``, ``deployments``, and ``duration`` (``None``
    when the horizon is unknown, e.g. live ingest) and yield
    :class:`RequestSpec` in nondecreasing ``arrival`` order from
    ``__iter__``.
    """

    name: str
    deployments: dict[str, Deployment]
    duration: float | None

    def __iter__(self) -> Iterator[RequestSpec]:
        raise NotImplementedError

    def materialize(self) -> Workload:
        """Drain the stream into a :class:`Workload` (single-use streams
        can only do this once)."""
        return Workload.from_stream(self)


class MaterializedStream(WorkloadStream):
    """A :class:`Workload` viewed through the stream protocol.

    Zero-copy and re-iterable: the workload's (already time-sorted)
    request list is yielded as-is.
    """

    def __init__(self, workload: Workload) -> None:
        self.name = workload.name
        self.deployments = workload.deployments
        self.duration = workload.duration
        self._workload = workload

    def __iter__(self) -> Iterator[RequestSpec]:
        return iter(self._workload.requests)

    def materialize(self) -> Workload:
        return self._workload


class IteratorStream(WorkloadStream):
    """A stream over an arbitrary iterable (or re-iterable factory).

    The caller guarantees nondecreasing arrival order; the serving
    system enforces it against the simulation clock.  Pass a callable
    returning a fresh iterator to make the stream re-iterable —
    procedural generators written this way give true O(in-flight)
    ingest, with no per-trace state at all.
    """

    def __init__(
        self,
        name: str,
        deployments: dict[str, Deployment],
        source: Union[Iterable[RequestSpec], Callable[[], Iterable[RequestSpec]]],
        duration: float | None = None,
    ) -> None:
        self.name = name
        self.deployments = dict(deployments)
        self.duration = duration
        self._source = source

    def __iter__(self) -> Iterator[RequestSpec]:
        source = self._source
        return iter(source() if callable(source) else source)


# ----------------------------------------------------------------------
# Emission groups: what scenario generators produce per deployment
# ----------------------------------------------------------------------
class ArrayGroup:
    """One deployment's emissions as parallel arrival/length arrays.

    Holds exactly the arrays the generator drew (times in emission
    order, clamped lengths, an optional constant prefix), so keeping a
    group costs ~24 bytes per request instead of a ~150-byte
    :class:`RequestSpec`.  ``emit`` yields the specs in emission order,
    the order :meth:`GroupedStream.materialize` concatenates;
    ``ordered`` yields the same specs sorted stably by arrival,
    converting ``STREAM_CHUNK`` rows at a time.
    """

    __slots__ = ("deployment", "times", "input_lens", "output_lens", "prefix_id", "prefix_len")

    def __init__(
        self,
        deployment: str,
        times: Union[Sequence[float], np.ndarray],
        input_lens: np.ndarray,
        output_lens: np.ndarray,
        prefix_id: str | None = None,
        prefix_len: int = 0,
    ) -> None:
        if not (len(times) == len(input_lens) == len(output_lens)):
            raise ValueError("times and length arrays must have equal lengths")
        self.deployment = deployment
        self.times = times
        self.input_lens = input_lens
        self.output_lens = output_lens
        self.prefix_id = prefix_id
        self.prefix_len = prefix_len

    def __len__(self) -> int:
        return len(self.times)

    def emit(self) -> Iterator[RequestSpec]:
        """Specs in emission order (the materialized-trace order)."""
        times = self.times
        if isinstance(times, np.ndarray):
            times = times.tolist()
        prefix_id, prefix_len = self.prefix_id, self.prefix_len
        deployment = self.deployment
        for time, input_len, output_len in zip(
            times, np.asarray(self.input_lens).tolist(), np.asarray(self.output_lens).tolist()
        ):
            yield RequestSpec(
                deployment, time, input_len, output_len,
                prefix_id=prefix_id, prefix_len=prefix_len,
            )

    def ordered(self) -> Iterator[RequestSpec]:
        """Specs stably sorted by arrival, constructed chunk by chunk.

        The stable per-group sort plus the stable k-way merge in
        :class:`GroupedStream` reproduces exactly the global stable sort
        ``Workload.__post_init__`` applies to the concatenated emission
        lists.
        """
        times = np.asarray(self.times, dtype=float)
        order = np.argsort(times, kind="stable")
        input_lens = np.asarray(self.input_lens)
        output_lens = np.asarray(self.output_lens)
        prefix_id, prefix_len = self.prefix_id, self.prefix_len
        deployment = self.deployment
        for start in range(0, order.size, STREAM_CHUNK):
            index = order[start : start + STREAM_CHUNK]
            for time, input_len, output_len in zip(
                times[index].tolist(),
                input_lens[index].tolist(),
                output_lens[index].tolist(),
            ):
                yield RequestSpec(
                    deployment, time, input_len, output_len,
                    prefix_id=prefix_id, prefix_len=prefix_len,
                )


class SpecGroup:
    """Emissions that were built as explicit spec objects.

    The fallback for loop-built traces (per-request prefix paths,
    data-dependent draws): no memory win over materializing, but the
    same group interface, so mixed scenarios stream uniformly.
    """

    __slots__ = ("specs",)

    def __init__(self, specs: list[RequestSpec]) -> None:
        self.specs = specs

    def __len__(self) -> int:
        return len(self.specs)

    def emit(self) -> Iterator[RequestSpec]:
        return iter(self.specs)

    def ordered(self) -> Iterator[RequestSpec]:
        return iter(sorted(self.specs, key=_arrival))


class GroupedStream(WorkloadStream):
    """A scenario trace: emission groups merged on demand.

    Iteration k-way-merges the groups' ``ordered()`` iterators keyed on
    arrival.  ``heapq.merge`` breaks key ties by iterator position and
    each ``ordered()`` is a stable sort, so ties resolve exactly as
    :meth:`materialize`'s global stable sort over the concatenated
    emission lists: within a group by emission order, across groups by
    group order.  Re-iterable — each pass merges afresh.
    """

    def __init__(
        self,
        name: str,
        deployments: dict[str, Deployment],
        groups: Sequence[Union[ArrayGroup, SpecGroup]],
        duration: float | None,
    ) -> None:
        self.name = name
        self.deployments = dict(deployments)
        self.duration = duration
        self.groups = list(groups)
        for group in self.groups:
            if isinstance(group, ArrayGroup) and group.deployment not in self.deployments:
                raise ValueError(
                    f"emission group references unknown deployment {group.deployment!r}"
                )

    @property
    def total_requests(self) -> int:
        return sum(len(group) for group in self.groups)

    def __iter__(self) -> Iterator[RequestSpec]:
        return heapq.merge(*(group.ordered() for group in self.groups), key=_arrival)

    def materialize(self) -> Workload:
        """The groups concatenated in emission order, stably sorted by
        :class:`Workload` — cheaper than draining the k-way merge."""
        requests = [spec for group in self.groups for spec in group.emit()]
        return Workload(
            name=self.name,
            deployments=dict(self.deployments),
            requests=requests,
            duration=self.duration,
        )


# ----------------------------------------------------------------------
# Live ingest
# ----------------------------------------------------------------------
class QueueStream(WorkloadStream):
    """A thread-safe, single-use stream fed by a producer thread.

    The gateway (or any live producer) calls :meth:`push` with specs in
    nondecreasing arrival order and eventually :meth:`close`; the
    simulation thread blocks in ``next()`` between arrivals.  The
    consumed-count handshake gives producers a completion signal: the
    serving system processes arrival *i* entirely before asking for
    arrival *i + 1*, so once :meth:`wait_processed` returns for an
    index, that request's admission outcome is readable from the
    (quiescent, blocked-in-``next``) simulation.
    """

    def __init__(
        self,
        name: str,
        deployments: dict[str, Deployment],
        duration: float | None = None,
    ) -> None:
        self.name = name
        self.deployments = dict(deployments)
        self.duration = duration
        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        self._cv = threading.Condition()
        self._submitted = 0
        self._yielded = 0
        self._processed = 0
        self._closed = False
        self._last_arrival: float | None = None
        self._close_sentinel = object()

    # -- producer side -------------------------------------------------
    def push(self, spec: RequestSpec) -> int:
        """Enqueue one arrival; returns its submission index."""
        with self._cv:
            if self._closed:
                raise StreamClosedError(f"stream {self.name!r} is closed")
            if spec.deployment not in self.deployments:
                known = ", ".join(sorted(self.deployments))
                raise ValueError(
                    f"unknown deployment {spec.deployment!r} (known: {known})"
                )
            if self._last_arrival is not None and spec.arrival < self._last_arrival:
                raise StreamOrderError(
                    f"arrival {spec.arrival:.6f} precedes the stream's last "
                    f"arrival {self._last_arrival:.6f}; pushes must be "
                    f"nondecreasing in arrival time"
                )
            self._last_arrival = spec.arrival
            index = self._submitted
            self._submitted += 1
            self._queue.put(spec)
        return index

    def close(self) -> None:
        """No more arrivals: the consumer's next ``next()`` ends the trace."""
        with self._cv:
            if self._closed:
                return
            self._closed = True
            self._queue.put(self._close_sentinel)

    def wait_processed(self, index: int, timeout: float | None = None) -> bool:
        """Block until the consumer has fully processed arrival ``index``."""
        with self._cv:
            return self._cv.wait_for(lambda: self._processed > index, timeout)

    @property
    def submitted(self) -> int:
        return self._submitted

    @property
    def last_arrival(self) -> float | None:
        return self._last_arrival

    @property
    def closed(self) -> bool:
        return self._closed

    # -- consumer side (the simulation thread) -------------------------
    def __iter__(self) -> Iterator[RequestSpec]:
        return self

    def __next__(self) -> RequestSpec:
        # Asking for the next arrival means the previous one has been
        # fully processed (the system pumps after handling each event):
        # publish that before potentially blocking on the queue.
        with self._cv:
            self._processed = self._yielded
            self._cv.notify_all()
        item = self._queue.get()
        if item is self._close_sentinel:
            raise StopIteration
        with self._cv:
            self._yielded += 1
        return item
