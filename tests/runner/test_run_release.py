"""A finished run frees its state by refcount, not by the cyclic collector.

The placement policy, the metrics sampler and the engine each point back
at their :class:`~repro.core.system.ServingSystem`, so a finished system
graph is reference-cyclic.  ``execute_spec`` owns the system and calls
``ServingSystem.release`` once the report is built; these tests run with
the collector disabled to prove the heavy state is already gone when
``execute_spec`` returns.
"""

from __future__ import annotations

import gc
import weakref

import pytest

import repro.runner.executor as executor_module
from repro.runner import RunSpec, execute_spec
from repro.sim.engine import VectorizedEngine, _ExecChain, _InstState


@pytest.fixture
def collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


def _watch_systems(monkeypatch) -> list:
    """Record every system ``execute_spec`` builds, weakly."""
    built: list = []
    real = executor_module.build_system

    def spy(spec, **kwargs):
        system = real(spec, **kwargs)
        built.append(
            {name: weakref.ref(getattr(system, name)) for name in ("perf", "policies", "engine")}
        )
        return system

    monkeypatch.setattr(executor_module, "build_system", spy)
    return built


@pytest.mark.parametrize("engine", ["reference", "vectorized"])
def test_execute_spec_frees_heavy_state_without_the_collector(monkeypatch, collector_off, engine):
    built = _watch_systems(monkeypatch)
    result = execute_spec(RunSpec(system="slinfer", n_models=2, duration=60.0, engine=engine))
    assert result.report.completed_count > 0
    (refs,) = built
    assert {name: ref() for name, ref in refs.items()} == dict.fromkeys(refs)


def test_vectorized_run_leaves_no_chain_only_in_cycles(monkeypatch, collector_off):
    armed = []
    real_arm = VectorizedEngine._arm

    def counting_arm(self, *args):
        armed.append(1)
        return real_arm(self, *args)

    monkeypatch.setattr(VectorizedEngine, "_arm", counting_arm)
    spec = RunSpec(
        system="slinfer",
        scenario="decode-marathon",
        n_models=4,
        cluster="cpu2-gpu2",
        duration=60.0,
        engine="vectorized",
    )
    execute_spec(spec)
    assert armed, "the run never chained, so the check below proves nothing"
    gc.set_debug(gc.DEBUG_SAVEALL)
    gc.collect()
    assert not [obj for obj in gc.garbage if isinstance(obj, _ExecChain)]
    # Chain states are cached on the instances' batch profiles; one that
    # pointed back at its instance would close a cycle through it.
    assert not [obj for obj in gc.garbage if isinstance(obj, _InstState)]
