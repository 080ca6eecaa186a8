"""The one compute-admission seam of SLINFER placement (§VI-C).

Every placement (joining a replica, migrating a preempted request,
absorbing a request after preemption, cold-starting an instance) runs
the same precheck and then exactly one :func:`shadow_validate` over one
snapshot per active, non-excluded instance of the node, in executor
order.  A recorder wrapped around the ``repro.policies.slinfer`` module
global checks the shape of every call without changing its verdict.
"""

import inspect

import repro.policies.slinfer as slinfer
from repro.runner.executor import execute_spec
from repro.runner.spec import RunSpec

# A short bursty overload on two CPU and two GPU nodes: replica joins,
# cold starts beside live instances, and one preemption (migration
# checks, then the target's check with the victim excluded).
_SPEC = RunSpec(
    system="slinfer",
    scenario="bursty-spike",
    n_models=8,
    cluster="cpu2-gpu2",
    seed=1,
    duration=60,
)


def _run() -> str:
    return execute_spec(_SPEC).canonical_json()


def test_every_placement_runs_one_shadow_over_the_node(monkeypatch):
    unwrapped = _run()

    real_admits = slinfer.SlinferPlacement._compute_admits
    signature = inspect.signature(real_admits)
    contexts = []

    def admits(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        contexts.append(bound.arguments)
        try:
            return real_admits(*args, **kwargs)
        finally:
            contexts.pop()

    real_validate = slinfer.shadow_validate
    seen = {"replica": 0, "new": 0, "excluded": 0}

    def recorder(shadows, **kwargs):
        context = contexts[-1]
        target, exclude = context["target"], context["exclude"]
        active = [
            inst
            for inst in context["executor"].active_instances()
            if inst.inst_id not in exclude
        ]
        queued = [
            index
            for index, shadow in enumerate(shadows)
            for request in shadow.prefill_queue[shadow.head :]
            if request.is_new
        ]
        assert len(queued) == 1
        if target is None:
            assert len(shadows) == len(active) + 1
            assert queued == [len(shadows) - 1]
            assert shadows[-1].perf is context["perf"]
            seen["new"] += 1
        else:
            assert len(shadows) == len(active)
            assert queued == [active.index(target)]
            assert shadows[queued[0]].perf is context["perf"]
            seen["replica"] += 1
        seen["excluded"] += bool(exclude)
        return real_validate(shadows, **kwargs)

    monkeypatch.setattr(slinfer.SlinferPlacement, "_compute_admits", admits)
    monkeypatch.setattr(slinfer, "shadow_validate", recorder)
    wrapped = _run()

    assert seen["replica"] > 0 and seen["new"] > 0 and seen["excluded"] > 0
    assert not contexts
    assert wrapped == unwrapped
