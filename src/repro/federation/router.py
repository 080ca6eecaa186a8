"""Global routers: the policy seam deciding which shard serves a request.

Two families:

* **Static** routers (``round-robin``, ``sticky-session``) are pure
  functions of the deployment name, so the whole partition is known
  before the first event.  Shards then exchange no boundary messages at
  all — each shard's lookahead is the entire horizon and the epoch
  ladder collapses to one window (the null-message optimization of
  conservative PDES).  :attr:`GlobalRouter.dynamic` is the flag.

* **Dynamic** routers (``least-loaded``) decide per request from shard
  load telemetry, which is only coherent at epoch barriers: the
  controller routes each epoch's arrivals using the in-flight counts
  measured at the barrier opening it, which the conservative Δ bound
  makes causally safe.

Routing must be deterministic: ties break on the lowest shard id, and
hashes are :func:`zlib.crc32` (stable across processes and platforms,
unlike ``hash()`` under PYTHONHASHSEED).
"""

from __future__ import annotations

import zlib
from typing import Iterable

from repro.federation.spec import Federation

__all__ = [
    "GlobalRouter",
    "LeastLoadedRouter",
    "RoundRobinRouter",
    "StickySessionRouter",
    "deployment_hash",
    "make_router",
]


def deployment_hash(name: str) -> int:
    """Stable cross-process hash used for session-affine partitioning."""
    return zlib.crc32(name.encode("utf-8"))


class GlobalRouter:
    """Base router: assigns deployments and (dynamically) requests."""

    name: str = "?"
    #: dynamic routers decide per request at epoch barriers; static ones
    #: fix the partition up front and never exchange boundary messages
    dynamic: bool = False

    def __init__(self, federation: Federation) -> None:
        self.federation = federation
        self.shards = federation.shards

    def assign(self, deployments: Iterable[str]) -> dict[str, int]:
        """Deployment name -> home shard, for the static partition."""
        raise NotImplementedError

    def route(self, deployment: str, in_flight: list[int]) -> int:
        """Shard for one arrival given per-shard in-flight counts."""
        raise NotImplementedError


class RoundRobinRouter(GlobalRouter):
    """Deployments dealt across shards in sorted-name order."""

    name = "round-robin"

    def assign(self, deployments: Iterable[str]) -> dict[str, int]:
        return {name: i % self.shards for i, name in enumerate(sorted(deployments))}


class StickySessionRouter(GlobalRouter):
    """Session-affine partition: shard = crc32(deployment) mod shards.

    Because ``x mod m == (x mod n) mod m`` whenever ``m`` divides ``n``,
    any deployment grouping defined by ``crc32 mod n`` (e.g. a
    scenario's regions) stays whole on one shard for every shard count
    dividing ``n`` — regions never straddle shards at 1/2/4 shards of a
    4-region trace.
    """

    name = "sticky-session"

    def assign(self, deployments: Iterable[str]) -> dict[str, int]:
        return {name: deployment_hash(name) % self.shards for name in deployments}


class LeastLoadedRouter(GlobalRouter):
    """Per-request routing to the shard with the fewest in-flight requests.

    Every shard hosts every deployment (any shard can cold-start any
    model), and the controller consults this router once per arrival at
    the epoch barrier.  Ties break on the lowest shard id, so routing —
    and therefore the whole federated run — is deterministic.
    """

    name = "least-loaded"
    dynamic = True

    def assign(self, deployments: Iterable[str]) -> dict[str, int]:
        raise RuntimeError(
            "least-loaded is a dynamic router; shards host all deployments "
            "and arrivals are routed per epoch, not partitioned up front"
        )

    def route(self, deployment: str, in_flight: list[int]) -> int:
        return min(range(self.shards), key=lambda shard: (in_flight[shard], shard))


_ROUTERS: dict[str, type[GlobalRouter]] = {
    cls.name: cls for cls in (RoundRobinRouter, StickySessionRouter, LeastLoadedRouter)
}


def make_router(federation: Federation) -> GlobalRouter:
    """Instantiate the federation's router strategy."""
    return _ROUTERS[federation.router](federation)
