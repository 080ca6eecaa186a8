"""Typed simulation events and the synchronous event bus.

The serving-system core publishes a small vocabulary of lifecycle events
at fixed points in its loop; everything that merely *observes* a run —
metrics accumulation, wall-clock overhead accounting, periodic memory
sampling — attaches as a subscriber instead of being inlined in the
core.  Policies may subscribe too: SLINFER's watermark-driven memory
ops, for example, ride on :class:`IterationFinished` and
:class:`RequestCompleted`.

Delivery is synchronous and deterministic: ``publish`` invokes the
handlers subscribed to the event's type (and its :class:`Event` base
classes, most-derived first), in subscription order within each class,
before returning.  Simulation behaviour must therefore not depend on
*whether* an observer is attached — subscribers that mutate simulation
state (policy hooks) are attached at fixed, documented points so runs
stay reproducible.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Type, TypeVar

if TYPE_CHECKING:  # pragma: no cover - import cycle guards, typing only
    from repro.compute.scheduler import WorkKind
    from repro.engine.instance import Instance
    from repro.engine.request import Request
    from repro.memory.operations import MemoryOp


class Event:
    """Base class for simulation events.

    Subscribing to a base class (including this root) observes every
    subclass event; see :class:`EventBus` for the delivery rules.
    """

    __slots__ = ()


class RequestArrived(Event):
    """A request entered the system (before any placement attempt)."""

    __slots__ = ("request", "time")

    def __init__(self, request: "Request", time: float) -> None:
        self.request = request
        self.time = time


class RequestQueued(Event):
    """Placement failed; the request waits in the admission queue."""

    __slots__ = ("request", "time")

    def __init__(self, request: "Request", time: float) -> None:
        self.request = request
        self.time = time


class RequestDropped(Event):
    """The request's queuing delay exceeded its TTFT SLO (§IX-B)."""

    __slots__ = ("request", "time")

    def __init__(self, request: "Request", time: float) -> None:
        self.request = request
        self.time = time


class RequestCompleted(Event):
    """The request produced its final token on ``instance``."""

    __slots__ = ("request", "instance", "time")

    def __init__(self, request: "Request", instance: "Instance", time: float) -> None:
        self.request = request
        self.instance = instance
        self.time = time


class NodeLoaded(Event):
    """A node gained its first resident footprint for some allocation.

    Published for reservations that have no :class:`Instance` of their
    own (tensor-parallel partner nodes); instance-backed loads publish
    :class:`InstanceLoaded` instead.
    """

    __slots__ = ("node_id", "kind", "time")

    def __init__(self, node_id: str, kind, time: float) -> None:
        self.node_id = node_id
        self.kind = kind
        self.time = time


class NodeUnloaded(Event):
    """The matching release for :class:`NodeLoaded`."""

    __slots__ = ("node_id", "time")

    def __init__(self, node_id: str, time: float) -> None:
        self.node_id = node_id
        self.time = time


class InstanceLoaded(Event):
    """An instance was attached to a node/executor (cold start began)."""

    __slots__ = ("instance", "time")

    def __init__(self, instance: "Instance", time: float) -> None:
        self.instance = instance
        self.time = time


class InstanceUnloaded(Event):
    """An instance was detached from its node/executor."""

    __slots__ = ("instance", "time")

    def __init__(self, instance: "Instance", time: float) -> None:
        self.instance = instance
        self.time = time


class IterationFinished(Event):
    """One prefill or decode iteration completed on ``instance``.

    ``decode_tokens`` is the number of tokens produced this iteration
    (0 for prefill); ``batch_size`` is the decode batch at launch time.
    """

    __slots__ = ("instance", "kind", "decode_tokens", "batch_size", "time")

    def __init__(
        self,
        instance: "Instance",
        kind: "WorkKind",
        decode_tokens: int,
        batch_size: int,
        time: float,
    ) -> None:
        self.instance = instance
        self.kind = kind
        self.decode_tokens = decode_tokens
        self.batch_size = batch_size
        self.time = time


class DecodeChainHandler:
    """An :class:`IterationFinished` handler that decode chains may batch.

    The vectorized engine skips publishing runs of decode iterations only
    while *every* ``IterationFinished`` handler is one of these; any other
    subscriber makes it publish each iteration.  Subclasses implement
    ``__call__`` and override what their decode-iteration effect needs:
    :meth:`quiet_steps` bounds how many of ``instance``'s next decode
    iterations may go unpublished, and :meth:`fold` applies ``steps`` of
    them (each with ``decode_tokens = batch_size``) in one go, before any
    other event fires.
    """

    __slots__ = ()

    def __call__(self, event: IterationFinished) -> None:
        raise NotImplementedError

    def quiet_steps(self, instance: "Instance", max_steps: int) -> int:
        return max_steps

    def fold(self, instance: "Instance", batch_size: int, steps: int) -> None:
        pass


class MemoryOpIssued(Event):
    """The memory subsystem executed an operation (load/unload/scale)."""

    __slots__ = ("op", "duration", "time")

    def __init__(self, op: "MemoryOp", duration: float, time: float) -> None:
        self.op = op
        self.duration = duration
        self.time = time


class OverheadMeasured(Event):
    """A wall-clock timing block closed (Fig. 33 scheduling overheads)."""

    __slots__ = ("name", "seconds")

    def __init__(self, name: str, seconds: float) -> None:
        self.name = name
        self.seconds = seconds


E = TypeVar("E", bound=Event)
Handler = Callable[[E], None]


class EventBus:
    """Synchronous, deterministic publish/subscribe over typed events.

    A handler subscribed to a type receives that type and every subclass
    of it (so subscribing to :class:`Event` observes the whole stream).
    Delivery order is most-derived class first, subscription order
    within each class.

    The per-concrete-type handler chain is precomputed: the MRO walk
    happens once per (bus, event type) and is cached as a flat tuple, so
    ``publish`` costs one dict probe on the hot path — no isinstance
    walks, and a no-subscriber publish touches nothing else.  The cache
    is invalidated on subscribe/detach, which also makes (un)subscribing
    from inside a handler safe: the change takes effect at the next
    publish, the in-flight chain is an immutable snapshot.
    """

    __slots__ = ("_subscribers", "_chains")

    def __init__(self) -> None:
        self._subscribers: dict[type, list[Callable[[Event], None]]] = {}
        #: concrete event type -> flattened handler chain (lazily built)
        self._chains: dict[type, tuple[Callable[[Event], None], ...]] = {}

    def subscribe(self, event_type: Type[E], handler: Handler) -> Callable[[], None]:
        """Attach ``handler`` to ``event_type``; returns a detach callable."""
        if not (isinstance(event_type, type) and issubclass(event_type, Event)):
            raise TypeError(f"not an Event type: {event_type!r}")
        self._subscribers.setdefault(event_type, []).append(handler)
        self._chains.clear()

        def detach() -> None:
            handlers = self._subscribers.get(event_type)
            if handlers is not None and handler in handlers:
                handlers.remove(handler)
                self._chains.clear()

        return detach

    def publish(self, event: Event) -> None:
        cls = type(event)
        try:
            chain = self._chains[cls]
        except KeyError:
            chain = self._build_chain(cls)
        for handler in chain:
            handler(event)

    def handlers(self, event_type: Type[E]) -> tuple[Callable[[Event], None], ...]:
        """What ``publish`` runs for an ``event_type`` event, in delivery order.

        Subscribe/detach replace the tuple, so identity marks a change.
        """
        try:
            return self._chains[event_type]
        except KeyError:
            return self._build_chain(event_type)

    def _build_chain(self, cls: type) -> tuple[Callable[[Event], None], ...]:
        subscribers = self._subscribers
        handlers: list[Callable[[Event], None]] = []
        for base in cls.__mro__:
            if base is object:
                continue
            direct = subscribers.get(base)
            if direct:
                handlers.extend(direct)
        chain = tuple(handlers)
        self._chains[cls] = chain
        return chain

    def subscriber_count(self, event_type: Type[E]) -> int:
        """Handlers subscribed directly to ``event_type`` (exact, no bases)."""
        return len(self._subscribers.get(event_type, ()))
