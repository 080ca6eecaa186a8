"""Tests for reactive consolidation orderings (§VIII-B)."""

from repro.consolidation import order_dispatch_candidates, order_nodes_best_fit
from repro.consolidation.binpack import first_per_kind
from repro.engine.instance import Instance
from repro.engine.request import Request
from repro.hardware import A100_80GB, XEON_GEN4_32C
from repro.hardware.node import Node
from repro.models import LLAMA2_7B

GIB = 1024**3


def make_instance(inst_id, node, batch=0):
    instance = Instance(inst_id=inst_id, deployment="d", model=LLAMA2_7B, node=node)
    for i in range(batch):
        instance.admit_to_batch(
            Request(
                req_id=inst_id * 100 + i,
                deployment="d",
                arrival=0.0,
                input_len=10,
                output_len=10,
                ttft_slo=1.0,
                tpot_slo=0.25,
            )
        )
    return instance


def test_largest_batch_first_within_kind():
    gpu = Node("gpu-0", A100_80GB)
    instances = [make_instance(i, gpu, batch=b) for i, b in enumerate((2, 5, 1))]
    ordered = order_dispatch_candidates(instances)
    assert [i.batch_size for i in ordered] == [5, 2, 1]


def test_cpu_instances_come_first():
    cpu = Node("cpu-0", XEON_GEN4_32C)
    gpu = Node("gpu-0", A100_80GB)
    big_gpu = make_instance(0, gpu, batch=9)
    small_cpu = make_instance(1, cpu, batch=1)
    ordered = order_dispatch_candidates([big_gpu, small_cpu])
    assert ordered[0] is small_cpu


def test_cpu_preference_can_be_disabled():
    cpu = Node("cpu-0", XEON_GEN4_32C)
    gpu = Node("gpu-0", A100_80GB)
    big_gpu = make_instance(0, gpu, batch=9)
    small_cpu = make_instance(1, cpu, batch=1)
    ordered = order_dispatch_candidates([big_gpu, small_cpu], prefer_cpu=False)
    assert ordered[0] is big_gpu


def test_bin_packing_disabled_uses_creation_order():
    gpu = Node("gpu-0", A100_80GB)
    a = make_instance(0, gpu, batch=1)
    b = make_instance(1, gpu, batch=7)
    a.created_at, b.created_at = 1.0, 2.0
    ordered = order_dispatch_candidates([b, a], bin_packing=False)
    assert ordered == [a, b]


def test_best_fit_prefers_tightest_node():
    nodes = [Node(f"gpu-{i}", A100_80GB) for i in range(3)]
    free = {"gpu-0": 50 * GIB, "gpu-1": 20 * GIB, "gpu-2": 35 * GIB}
    ordered = order_nodes_best_fit(
        nodes, free_bytes=lambda n: free[n.node_id], required_bytes=16 * GIB,
        prefer_cpu=False,
    )
    assert [n.node_id for n in ordered] == ["gpu-1", "gpu-2", "gpu-0"]


def test_best_fit_filters_nodes_that_cannot_fit():
    nodes = [Node(f"gpu-{i}", A100_80GB) for i in range(2)]
    free = {"gpu-0": 10 * GIB, "gpu-1": 30 * GIB}
    ordered = order_nodes_best_fit(
        nodes, free_bytes=lambda n: free[n.node_id], required_bytes=16 * GIB
    )
    assert [n.node_id for n in ordered] == ["gpu-1"]


def test_first_per_kind_keeps_every_kind_in_order():
    cpus = [Node(f"cpu-{i}", XEON_GEN4_32C) for i in range(3)]
    gpus = [Node(f"gpu-{i}", A100_80GB) for i in range(2)]
    window = first_per_kind(cpus + gpus, limit=2)
    assert [n.node_id for n in window] == ["cpu-0", "cpu-1", "gpu-0", "gpu-1"]
