"""The REPRO_AUDIT=1 conservation seam: clean runs pass, corruption raises."""

from __future__ import annotations

import pytest

from repro.analysis.audit import (
    AUDIT_ENV,
    AuditError,
    audit_enabled,
    audit_system,
    maybe_audit,
    maybe_audit_store,
)
from repro.engine.instance import Instance
from repro.engine.request import Request, RequestState
from repro.hardware.node import Node
from repro.hardware.specs import A100_80GB
from repro.kv.store import KvShareStore
from repro.metrics.collector import MetricsCollector
from repro.models.catalog import LLAMA2_7B
from repro.runner import RunSpec, execute_spec
from repro.runner.executor import build_system
from repro.runner.spec import build_workload

TINY = dict(n_models=2, duration=60.0)

SHARED = RunSpec(
    system="slinfer",
    scenario="shared-sysprompt",
    n_models=8,
    cluster="small",
    seed=3,
    scale="smoke",
    kv_sharing="on",
)


def _run_system(spec: RunSpec):
    """Build a system and drive it to completion, returning the system."""
    system = build_system(spec)
    system.run(build_workload(spec))
    return system


def _fresh_instance(inst_id: int = 999) -> Instance:
    instance = Instance(
        inst_id=inst_id, deployment="m", model=LLAMA2_7B, node=Node("gpu-x", A100_80GB)
    )
    instance.kv.allocated_bytes = 64 * instance.kv.block_bytes
    return instance


def _fresh_request(req_id: int = 10**6) -> Request:
    return Request(
        req_id=req_id,
        deployment="m0",
        arrival=0.0,
        input_len=8,
        output_len=4,
        ttft_slo=1.0,
        tpot_slo=0.1,
    )


class TestEnvSeam:
    def test_enabled_by_conftest(self):
        # tests/conftest.py turns the audit on for the whole suite, so
        # every execute_spec in every test re-proves the invariants.
        assert audit_enabled()

    def test_disabled_values(self, monkeypatch):
        for value in ("", "0"):
            monkeypatch.setenv(AUDIT_ENV, value)
            assert not audit_enabled()
        monkeypatch.delenv(AUDIT_ENV)
        assert not audit_enabled()
        monkeypatch.setenv(AUDIT_ENV, "1")
        assert audit_enabled()

    def test_maybe_audit_noop_when_disabled(self, monkeypatch):
        monkeypatch.setenv(AUDIT_ENV, "0")
        corrupt = object()  # would crash audit_system immediately
        maybe_audit(corrupt)
        maybe_audit_store(corrupt)


class TestCleanRuns:
    @pytest.mark.parametrize("metrics", ["exact", "streaming"])
    def test_execute_spec_passes_audit(self, metrics):
        result = execute_spec(RunSpec(system="slinfer", metrics=metrics, **TINY))
        assert result.report.completed_count > 0

    def test_explicit_audit_on_finished_system(self):
        system = _run_system(RunSpec(system="slinfer", **TINY))
        audit_system(system)  # idempotent after the in-run audit

    def test_kv_sharing_run_invokes_check_invariants(self, monkeypatch):
        # Serverless reclaim tears every instance down before the run
        # ends, so the detach hook is what proves KV conservation
        # against real allocation state.
        calls = 0
        original = KvShareStore.check_invariants

        def counting(self) -> None:
            nonlocal calls
            calls += 1
            original(self)

        monkeypatch.setattr(KvShareStore, "check_invariants", counting)
        execute_spec(SHARED)
        assert calls > 0


class TestCorruptionDetected:
    def test_finished_request_left_resident(self):
        system = _run_system(RunSpec(system="slinfer", **TINY))
        ghost = _fresh_request()
        ghost.state = RequestState.COMPLETED
        stray = _fresh_instance()
        stray.admit_to_batch(ghost)
        system.executors[0].add_instance(stray)
        with pytest.raises(AuditError, match="still resident"):
            audit_system(system)

    def test_double_residency(self):
        system = _run_system(RunSpec(system="slinfer", **TINY))
        ghost = _fresh_request()
        ghost.state = RequestState.DECODING
        twin_a, twin_b = _fresh_instance(901), _fresh_instance(902)
        twin_a.admit_to_batch(ghost)
        twin_b.admit_to_batch(ghost)
        system.executors[0].add_instance(twin_a)
        system.executors[0].add_instance(twin_b)
        with pytest.raises(AuditError, match="resident on two instances"):
            audit_system(system)

    def test_leaked_request(self):
        # A request the collector believes is in flight, but which no
        # instance hosts and no queue holds: every counter looks
        # plausible (it arrived, it is "decoding"), yet nothing in the
        # system owns it — the residency cross-check catches it.
        system = _run_system(RunSpec(system="slinfer", **TINY))
        ghost = _fresh_request()
        ghost.state = RequestState.DECODING
        system.metrics.register_request(ghost)
        with pytest.raises(AuditError, match="leaked"):
            audit_system(system)

    def test_conservation_counter_drift(self):
        # Streaming mode folds outcomes into counters; desyncing the
        # arrival counter from outcomes breaks conservation directly.
        system = _run_system(RunSpec(system="slinfer", metrics="streaming", **TINY))
        system.metrics.outcomes.arrivals += 1
        with pytest.raises(AuditError, match="conservation violated"):
            audit_system(system)

    def test_exact_ledger_counter_drift_caught_by_recount(self):
        # An SLO-met counter off by one breaks no conservation law; only
        # the recount of the retained requests sees it.
        system = _run_system(RunSpec(system="slinfer", **TINY))
        system.metrics.outcomes.slo_met += 1
        with pytest.raises(AuditError, match="outcome ledger drifted"):
            audit_system(system)

    def test_kv_refcount_corruption_caught(self):
        system = _run_system(RunSpec(system="slinfer", **TINY))
        instance = _fresh_instance()
        instance.kv_share = KvShareStore(instance, MetricsCollector())
        # Fabricate a phantom reference: the pool's refcount books no
        # longer balance against a recount of live blocks.
        instance.kv_share.pool._referenced += 1
        system.executors[0].add_instance(instance)
        with pytest.raises(AssertionError, match="referenced counter"):
            audit_system(system)

    def test_detach_hook_catches_corrupted_store(self):
        instance = _fresh_instance()
        store = KvShareStore(instance, MetricsCollector())
        instance.kv_share = store
        maybe_audit_store(store)  # clean store passes
        store.pool._referenced += 1
        with pytest.raises(AssertionError, match="referenced counter"):
            maybe_audit_store(store)
