"""Policy registries, spec parsing, and bundle overrides."""

import pytest

from repro.core import ServingSystem
from repro.hardware import Cluster
from repro.policies import (
    BUNDLES,
    KeepAliveReclaim,
    NeverReclaim,
    POLICY_KINDS,
    PolicyBundle,
    RECLAIM_POLICIES,
    SllmPlacement,
    build_bundle,
    resolve_policy,
)
from repro.registries import RegistryError

from tests.systems.helpers import steady_stream, tiny_workload


def test_resolve_policy_by_name():
    policy = resolve_policy("reclaim", "never")
    assert isinstance(policy, NeverReclaim)
    assert policy.spec == "never"


def test_resolve_policy_with_argument():
    policy = resolve_policy("reclaim", "keepalive:5")
    assert isinstance(policy, KeepAliveReclaim)
    assert policy.seconds == 5.0


def test_resolve_policy_unknown_kind_and_name():
    with pytest.raises(RegistryError):
        resolve_policy("flavor", "vanilla")
    with pytest.raises(RegistryError):
        resolve_policy("placement", "no-such-placement")
    with pytest.raises(RegistryError):
        resolve_policy("reclaim", "keepalive:not-a-number")
    with pytest.raises(RegistryError, match="bad placement policy spec"):
        resolve_policy("placement", "slinfer:x")  # slinfer takes no argument


def test_every_bundle_covers_every_kind():
    for name in BUNDLES.names():
        description = BUNDLES.get(name)().describe()
        assert set(description) == set(POLICY_KINDS)


def test_apply_overrides_replaces_and_labels():
    bundle = build_bundle("slinfer", overrides={"reclaim": "never"})
    assert isinstance(bundle.reclaim, NeverReclaim)
    assert bundle.name == "slinfer[reclaim=never]"
    # Untouched kinds keep the stock policies.
    assert bundle.describe()["placement"] == "slinfer"


def test_override_cross_bundle_placement():
    bundle = build_bundle("slinfer", overrides={"placement": "sllm+c"})
    assert isinstance(bundle.placement, SllmPlacement)
    assert bundle.placement.use_cpu is True


def test_with_policies_rejects_unknown_kind():
    bundle = build_bundle("sllm")
    with pytest.raises(KeyError):
        bundle.with_policies(admision=NeverReclaim())  # typo'd kind


def test_duplicate_policy_registration_is_an_error():
    with pytest.raises(RegistryError):
        RECLAIM_POLICIES.register("never", NeverReclaim)


def test_never_reclaim_keeps_instances_loaded():
    # Same trickle workload: stock keep-alive tears the instance down,
    # `never` keeps it resident, so busy node-seconds grow.
    workload = tiny_workload([("m0", 1.0, 256, 5)], duration=60.0)
    stock = ServingSystem(Cluster.build(0, 1), policies="sllm").run(workload)
    kept = ServingSystem(
        Cluster.build(0, 1), policies=build_bundle("sllm", overrides={"reclaim": "never"})
    ).run(tiny_workload([("m0", 1.0, 256, 5)], duration=60.0))
    assert stock.node_seconds_gpu < 20.0
    assert kept.node_seconds_gpu > stock.node_seconds_gpu
    assert kept.slo_met_count == stock.slo_met_count == 1


def test_keepalive_argument_controls_reclaim_horizon():
    def run(spec: str):
        workload = tiny_workload([("m0", 1.0, 256, 5)], duration=120.0)
        bundle = build_bundle("sllm", overrides={"reclaim": spec})
        return ServingSystem(Cluster.build(0, 1), policies=bundle).run(workload)

    short = run("keepalive:0.1")
    long = run("keepalive:30")
    assert short.node_seconds_gpu < long.node_seconds_gpu


def test_custom_placement_policy_composes_without_registration():
    """The worked README example: a custom policy in a hand-built bundle."""
    from repro.policies import PlacementPolicy

    class FirstGpuOnly(PlacementPolicy):
        """Degenerate placement: everything on one exclusive GPU slot."""

        def prepare(self, system, workload):
            self.inner = SllmPlacement()
            self.inner.prepare(system, workload)
            first_gpu = system.cluster.gpu_nodes[0].node_id
            for node_id in self.inner._free_fraction:
                if node_id != first_gpu:
                    self.inner._free_fraction[node_id] = 0.0

        def try_place(self, system, request):
            return self.inner.try_place(system, request)

        def unload(self, system, instance):
            self.inner.unload(system, instance)

    bundle = PolicyBundle(name="first-gpu", placement=FirstGpuOnly())
    system = ServingSystem(Cluster.build(2, 2), policies=bundle)
    report = system.run(tiny_workload(steady_stream(count=4)))
    assert report.system == "first-gpu"
    assert len({i.node.node_id for e in system.executors for i in e.instances}) <= 1


def test_unknown_bundle_is_an_error():
    with pytest.raises(RegistryError):
        build_bundle("no-such-bundle")
