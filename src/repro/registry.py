"""Decorator-based registries for systems, clusters, and workload scenarios.

Every entry point (the CLI, the experiment runners, the benchmark
harness, the sweep executor) resolves serving systems, cluster shapes,
and workload scenarios by name through the registries defined here —
there is exactly one table of each, instead of per-driver hand-rolled
dicts.  (Policies and policy bundles have their own tables in
:mod:`repro.policies.registry`.)

Usage::

    from repro.registry import SCENARIOS, SYSTEMS, build_cluster, system_factory

    @SCENARIOS.register("my-trace")
    def my_trace(model, n_models, duration, requests_per_model, seed, **params):
        ...
        return workload  # a Workload, or a WorkloadStream

    system = system_factory("slinfer")(build_cluster("paper"))

Contracts:

* **system** — ``factory(cluster, *, slo=..., config=...,
  config_overrides=..., policy_overrides=..., metrics=...,
  **bundle_kwargs) -> ServingSystem``.
  ``config_overrides`` replaces fields of ``config`` (default: the
  bundle's own config class) and carries a run spec's ``config`` axis;
  ``policy_overrides`` maps policy kinds to registered policy specs
  (e.g. ``{"reclaim": "never"}``) and is how sweeps ablate one
  mechanism of a system without writing a new class; ``metrics``
  selects the collector mode (``"exact"`` / ``"streaming"``).
  :func:`system_factory` also accepts ``neo+{C}`` (NEO+ with ``C``
  harvested cores per GPU, the Fig. 29 twin of ``harvest{C}``).
* **cluster** — ``factory() -> Cluster``.  :func:`build_cluster`
  additionally accepts ad-hoc ``cpu{N}-gpu{M}`` names (e.g.
  ``cpu2-gpu6``) so sweeps can vary node counts without registering
  every shape.
* **scenario** — ``factory(model, n_models, duration, requests_per_model,
  seed, **params) -> WorkloadStream | Workload``.  The registered
  scenarios return a lazy :class:`~repro.workloads.stream.GroupedStream`
  (see :mod:`repro.workloads.scenarios`); a factory may instead return
  a plain :class:`~repro.workloads.spec.Workload`, which runs are fed
  through ``Workload.stream()``.
"""

from __future__ import annotations

from dataclasses import fields, replace
from functools import partial
from typing import Any, Callable, Iterable, Mapping, Optional

from repro.core.config import SystemConfig
from repro.core.system import ServingSystem
from repro.hardware.cluster import Cluster, paper_testbed
from repro.hardware.node import Node
from repro.hardware.specs import A100_80GB, V100_32GB, XEON_GEN4_32C, harvested_cpu
from repro.hardware.topology import Topology
from repro.federation.spec import FEDERATIONS, Federation, resolve_federation
from repro.policies.observers import Observer
from repro.policies.registry import BUNDLES, build_bundle
from repro.registries import Registry, RegistryError
from repro.sim.engine import ENGINES
from repro.slo import DEFAULT_SLO, SloPolicy

__all__ = [
    "CLUSTERS",
    "ENGINES",
    "FEDERATIONS",
    "Federation",
    "Registry",
    "RegistryError",
    "SCENARIOS",
    "STANDARD_SYSTEMS",
    "SYSTEMS",
    "TOPOLOGIES",
    "UnknownScenarioError",
    "apply_topology",
    "build_cluster",
    "resolve_federation",
    "resolve_scenario",
    "system_factory",
]


class UnknownScenarioError(RegistryError):
    """A scenario name that is neither registered nor a known pattern."""


# ----------------------------------------------------------------------
# The three registries
# ----------------------------------------------------------------------
SYSTEMS: Registry[Callable[..., ServingSystem]] = Registry("system")
CLUSTERS: Registry[Callable[[], Cluster]] = Registry("cluster")
SCENARIOS: Registry[Callable[..., object]] = Registry(
    "scenario", unknown_error=UnknownScenarioError
)
TOPOLOGIES: Registry[Callable[[Cluster], Topology]] = Registry("topology")


def system_factory(name: str) -> Callable[..., ServingSystem]:
    """Resolve a serving-system factory by registered name or pattern."""
    return SYSTEMS.resolve(name)


# ----------------------------------------------------------------------
# Name patterns: ad-hoc spellings resolved through the registries
# ----------------------------------------------------------------------
@CLUSTERS.register_pattern("cpu{N}-gpu{M}", summary="ad-hoc node counts")
def _cpu_gpu_cluster(name: str, N: int, M: int) -> Callable[[], Cluster]:
    return lambda: Cluster.build(cpu_count=N, gpu_count=M)


def _check_harvested_cores(name: str, cores: int) -> None:
    if not 0 < cores <= XEON_GEN4_32C.cores:
        raise RegistryError(f"{name}: harvested cores must be in 1..{XEON_GEN4_32C.cores}")


@CLUSTERS.register_pattern(
    "harvest{C}", summary="Fig. 29 harvested-core CPUs: 4 cpu (C cores) + 4 gpu"
)
def _harvest_cluster(name: str, C: int) -> Callable[[], Cluster]:
    _check_harvested_cores(name, C)
    return lambda: Cluster.build(cpu_count=4, gpu_count=4, cpu_spec=harvested_cpu(C))


@SYSTEMS.register_pattern("neo+{C}", summary="Fig. 29 NEO+ with C harvested cores per GPU")
def _neo_harvest_system(name: str, C: int) -> Callable[..., ServingSystem]:
    _check_harvested_cores(name, C)
    return partial(SYSTEMS.get("neo+"), harvested_cores_per_gpu=C)


@SCENARIOS.register_pattern(
    "prefix-mix{P}", summary="prefix-mix with the shared fraction pinned to P percent"
)
def _prefix_mix_pinned(name: str, P: int) -> Callable[..., object]:
    if P > 100:
        raise RegistryError(f"{name}: shared fraction must be in 0..100 percent")
    base = SCENARIOS.get("prefix-mix")

    def factory(model, n_models, duration, requests_per_model, seed, **params):
        params.setdefault("share", P / 100.0)
        return base(model, n_models, duration, requests_per_model, seed, **params)

    factory.__name__ = f"prefix_mix_{P}"
    return factory


def resolve_scenario(name: str) -> Callable[..., object]:
    """Scenario factory by registered name or an ad-hoc pattern.

    Beyond the registry, ``prefix-mix{P}`` (e.g. ``prefix-mix75``) pins
    the prefix-mix scenario's shared-request fraction to ``P`` percent —
    the hit-rate sensitivity axis for ``--kv-sharing`` sweeps, mirroring
    the ``cpu{N}-gpu{M}`` cluster pattern.  Unknown names raise
    :class:`UnknownScenarioError` listing both grammars.
    """
    return SCENARIOS.resolve(name)


def apply_topology(cluster: Cluster, topology: Optional[str]) -> Cluster:
    """Replace the cluster's topology with a registered one, in place.

    ``None`` keeps whatever topology the cluster factory chose (the
    uniform default for most shapes), so fingerprints of pre-topology
    specs are untouched.
    """
    if topology is not None:
        cluster.set_topology(TOPOLOGIES.get(topology)(cluster))
    return cluster


def build_cluster(name: str, topology: Optional[str] = None) -> Cluster:
    """Build a cluster from a registered name or an ad-hoc pattern.

    Recognised patterns beyond the registry: ``cpu{N}-gpu{M}`` (node
    counts) and ``harvest{C}`` (the Fig. 29 CPU-spec sweep — 4 CPU
    nodes restricted to ``C`` harvested cores + 4 GPU nodes).  An
    explicit ``topology`` name replaces the cluster's interconnect.
    """
    return apply_topology(CLUSTERS.resolve(name)(), topology)


# ----------------------------------------------------------------------
# Built-in systems (§IX-A): every registered policy bundle is a system.
# ----------------------------------------------------------------------
def _bundle_system_factory(bundle_name: str) -> Callable[..., ServingSystem]:
    def factory(
        cluster: Cluster,
        slo: SloPolicy = DEFAULT_SLO,
        config: Optional[SystemConfig] = None,
        config_overrides: Optional[Mapping[str, Any]] = None,
        policy_overrides: Mapping[str, str] | Iterable[tuple[str, str]] | None = None,
        observers: Optional[list[Observer]] = None,
        metrics: str = "exact",
        engine: Optional[str] = None,
        kv_sharing: str = "off",
        **bundle_kwargs,
    ) -> ServingSystem:
        bundle = build_bundle(bundle_name, overrides=policy_overrides, **bundle_kwargs)
        if config_overrides:
            base = config or (bundle.default_config or SystemConfig)()
            known = {entry.name for entry in fields(base)}
            for key in sorted(config_overrides):
                if key not in known:
                    raise ValueError(
                        f"system {bundle_name!r} has no config field {key!r} "
                        f"({type(base).__name__} fields: {', '.join(sorted(known))})"
                    )
            config = replace(base, **config_overrides)
        return ServingSystem(
            cluster, policies=bundle, slo=slo, config=config, observers=observers,
            metrics=metrics, engine=engine, kv_sharing=kv_sharing,
        )

    factory.__name__ = f"make_{bundle_name}"
    factory.__doc__ = f"Build the {bundle_name!r} system from its policy bundle."
    return factory


for _name in BUNDLES.names():
    SYSTEMS.register(_name, _bundle_system_factory(_name))

# The §IX-B end-to-end comparison set, in the paper's presentation order.
STANDARD_SYSTEMS: tuple[str, ...] = ("sllm", "sllm+c", "sllm+c+s", "slinfer")


# ----------------------------------------------------------------------
# Built-in clusters
# ----------------------------------------------------------------------
def _het_gpu_cluster() -> Cluster:
    """Mixed-generation GPU fleet: 2 CPU + 2 A100 + 2 V100-32GB nodes.

    The heterogeneous-fleet shape behind the Figs. 24/26-style studies:
    the V100s have less memory, slower decode, and a slower weight
    staging path, so placement quality — not just capacity — decides
    outcomes.
    """
    nodes = [Node(f"cpu-{i}", XEON_GEN4_32C) for i in range(2)]
    nodes += [Node(f"gpu-{i}", A100_80GB) for i in range(2)]
    nodes += [Node(f"gpu-old-{i}", V100_32GB) for i in range(2)]
    return Cluster.from_nodes(nodes)


def _rack_oversub_cluster() -> Cluster:
    """4 GPU nodes pulling weights through one shared, oversubscribed NIC."""
    cluster = Cluster.build(cpu_count=0, gpu_count=4)
    return cluster.set_topology(Topology.oversubscribed_nic(cluster.nodes))


CLUSTERS.register("paper", paper_testbed)
CLUSTERS.register("small", lambda: Cluster.build(cpu_count=2, gpu_count=2))
CLUSTERS.register("gpu-only", lambda: Cluster.build(cpu_count=0, gpu_count=4))
CLUSTERS.register("mixed-fleet", lambda: Cluster.build(cpu_count=4, gpu_count=6))
CLUSTERS.register("het-gpu", _het_gpu_cluster)
CLUSTERS.register("rack-oversub", _rack_oversub_cluster)


# ----------------------------------------------------------------------
# Built-in topologies (applied to any cluster via --topology)
# ----------------------------------------------------------------------
TOPOLOGIES.register("uniform", lambda cluster: Topology.uniform(cluster.nodes))
TOPOLOGIES.register("dedicated", lambda cluster: Topology.dedicated(cluster.nodes))
TOPOLOGIES.register(
    "oversub-nic", lambda cluster: Topology.oversubscribed_nic(cluster.nodes)
)
TOPOLOGIES.register(
    "nvlink-islands", lambda cluster: Topology.nvlink_islands(cluster.nodes)
)


# Importing the scenario module populates SCENARIOS (kept last: the
# scenario definitions import SCENARIOS from this module).
from repro.workloads import scenarios as _scenarios  # noqa: E402,F401
