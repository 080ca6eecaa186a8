"""Property-based test: the orchestrator can never OOM a node.

Random interleavings of admissions, scale-ups, scale-downs, and unloads —
with operations completing asynchronously — must keep the *pessimistic
actual* allocation within node capacity at every event boundary (the
Fig. 18 guarantee)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.instance import Instance
from repro.hardware import A100_80GB
from repro.hardware.node import Node
from repro.hardware.topology import Topology
from repro.memory import MemoryOrchestrator
from repro.models import LLAMA2_7B
from repro.sim import Simulator

GIB = 1024**3


def _topology(sim, node):
    """The default all-dedicated topology of ``node``, bound to ``sim``."""
    topology = Topology.uniform([node])
    topology.bind(sim)
    return topology


class _Quiet:
    def on_load_complete(self, instance):
        pass

    def on_unload_complete(self, instance):
        pass

    def on_scale_complete(self, instance, op):
        pass


action = st.tuples(
    st.sampled_from(["admit", "scale", "unload", "advance"]),
    st.integers(min_value=0, max_value=5),  # instance slot
    st.integers(min_value=0, max_value=70),  # target size in GiB
    st.floats(min_value=0.01, max_value=3.0),  # time advance
)


@settings(max_examples=120, deadline=None)
@given(actions=st.lists(action, min_size=5, max_size=60))
def test_no_oom_under_random_interleavings(actions):
    sim = Simulator()
    node = Node("gpu-0", A100_80GB)
    orch = MemoryOrchestrator(sim=sim, node=node, listener=_Quiet(), topology=_topology(sim, node))
    instances: dict[int, Instance] = {}
    next_id = 0

    for kind, slot, size_gib, advance in actions:
        if kind == "admit" and slot not in instances:
            instance = Instance(
                inst_id=next_id,
                deployment=f"d{slot}",
                model=LLAMA2_7B,
                node=node,
            )
            next_id += 1
            kv = size_gib * GIB // 8
            if orch.can_admit(instance.model.weight_bytes, kv):
                orch.admit_instance(instance, kv)
                instances[slot] = instance
        elif kind == "scale" and slot in instances:
            orch.request_scale(instances[slot], size_gib * GIB)
        elif kind == "unload" and slot in instances:
            instance = instances.pop(slot)
            if orch.has_instance(instance):
                orch.unload_instance(instance)
        else:
            sim.run(until=sim.now + advance)
        orch.assert_no_oom()

    sim.run()
    orch.assert_no_oom()
    # After draining, every surviving account is stable (no pending ops) and
    # the optimistic and pessimistic views coincide.
    assert orch.optimistic_used() == orch.pessimistic_used()


@settings(max_examples=60, deadline=None)
@given(
    kv_targets=st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=10)
)
def test_sequential_scales_converge_to_last_target(kv_targets):
    sim = Simulator()
    node = Node("gpu-0", A100_80GB)
    orch = MemoryOrchestrator(sim=sim, node=node, listener=_Quiet(), topology=_topology(sim, node))
    instance = Instance(inst_id=0, deployment="d", model=LLAMA2_7B, node=node)
    orch.admit_instance(instance, 1 * GIB)
    sim.run()
    accepted_last = None
    for target_gib in kv_targets:
        if orch.request_scale(instance, target_gib * GIB):
            accepted_last = target_gib * GIB
    sim.run()
    orch.assert_no_oom()
    if accepted_last is not None:
        assert instance.kv.allocated_bytes == instance.kv.round_to_blocks(accepted_last)
