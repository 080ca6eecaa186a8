"""Federation specs: fleets of cluster shards under a global router.

A :class:`Federation` names the *shape* of a multi-cluster fleet: how
many cluster shards it has, which :class:`~repro.federation.router`
strategy routes requests between them, and the cross-shard latencies
that bound the conservative synchronization window Δ (the epoch).  The
per-shard cluster itself stays on the :class:`~repro.runner.spec.RunSpec`
``cluster`` axis — a federation multiplies whatever cluster the spec
names, so ``fleet4`` of a ``cpu2-gpu2`` spec is four ``cpu2-gpu2``
clusters behind one router.

Conservative time-window synchronization requires Δ ≤ the minimum
latency of any cross-shard interaction (request routing, KV migration):
a message emitted inside epoch *k* then provably cannot affect any
shard before the *k+1* barrier, so shards simulate each window with
zero coordination.  :meth:`Federation.__post_init__` enforces the bound.

Like clusters and scenarios, federations live in a registry
(:data:`FEDERATIONS`) with brace-template patterns, so sweeps spell
them on the command line: ``fleet{N}`` (round-robin), ``sticky{N}``
(session-affine), ``balanced{N}`` (least-loaded).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.registries import Registry, RegistryError

__all__ = [
    "FEDERATIONS",
    "Federation",
    "FederationError",
    "ROUTER_NAMES",
    "ShardWorkerError",
    "resolve_federation",
]


class FederationError(RegistryError):
    """Unknown federation name or invalid federation shape."""


class ShardWorkerError(RuntimeError):
    """A shard worker process died or reported a failure mid-run."""


#: registered global-router strategies (implemented in
#: :mod:`repro.federation.router`; named here so the frozen spec can
#: validate without importing the implementations)
ROUTER_NAMES: tuple[str, ...] = ("round-robin", "sticky-session", "least-loaded")

#: registered federations, by name (entries are Federation instances)
FEDERATIONS: Registry["Federation"] = Registry("federation", FederationError)


@dataclass(frozen=True)
class Federation:
    """One fleet shape: shard count, router strategy, sync latencies."""

    name: str
    shards: int
    router: str = "round-robin"
    #: cross-shard request-forwarding latency (simulated seconds): a
    #: request routed to a remote shard arrives there this much later
    router_latency: float = 0.05
    #: extra latency when a routed request's KV prefix lives on another
    #: shard and must migrate with it
    kv_migration_latency: float = 0.25
    #: conservative sync window Δ; None = min of the latencies above
    epoch: float | None = None

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise FederationError(f"federation {self.name!r}: shards must be >= 1, got {self.shards}")
        if self.router not in ROUTER_NAMES:
            raise FederationError(
                f"federation {self.name!r}: unknown router {self.router!r} "
                f"(known: {', '.join(ROUTER_NAMES)})"
            )
        if self.router_latency <= 0.0 or self.kv_migration_latency <= 0.0:
            raise FederationError(
                f"federation {self.name!r}: cross-shard latencies must be positive"
            )
        if self.epoch is not None:
            if self.epoch <= 0.0:
                raise FederationError(f"federation {self.name!r}: epoch must be positive")
            if self.epoch > self.min_latency:
                raise FederationError(
                    f"federation {self.name!r}: epoch {self.epoch:g}s exceeds the "
                    f"minimum cross-shard latency {self.min_latency:g}s; conservative "
                    f"synchronization requires epoch <= min(router_latency, "
                    f"kv_migration_latency)"
                )

    @property
    def min_latency(self) -> float:
        """The lookahead bound: no cross-shard effect lands sooner."""
        return min(self.router_latency, self.kv_migration_latency)

    def resolved_epoch(self) -> float:
        """The sync window Δ actually used by the epoch ladder."""
        return self.epoch if self.epoch is not None else self.min_latency


def resolve_federation(name: str) -> Federation:
    """Federation by exact name or pattern (``fleet4``, ``sticky2``, ...)."""
    return FEDERATIONS.resolve(name)


# ----------------------------------------------------------------------
# Registered fleets
# ----------------------------------------------------------------------
FEDERATIONS.register(
    "wan4",
    Federation(
        name="wan4",
        shards=4,
        router="least-loaded",
        router_latency=0.08,
        kv_migration_latency=0.32,
    ),
)


@FEDERATIONS.register_pattern("fleet{N}", "N-shard fleet, round-robin deployment partition")
def _fleet(name: str, N: int) -> Federation:
    return Federation(name=name, shards=N, router="round-robin")


@FEDERATIONS.register_pattern("sticky{N}", "N-shard fleet, session-affine (hashed) partition")
def _sticky(name: str, N: int) -> Federation:
    return Federation(name=name, shards=N, router="sticky-session")


@FEDERATIONS.register_pattern("balanced{N}", "N-shard fleet, least-loaded request routing")
def _balanced(name: str, N: int) -> Federation:
    return Federation(name=name, shards=N, router="least-loaded")
