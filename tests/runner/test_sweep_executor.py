"""Sweep execution: determinism, parallelism, and the result cache."""

import json

import pytest

from repro.federation.runner import run_federation
from repro.runner import (
    ResultCache,
    RunResult,
    RunSpec,
    SweepExecutor,
    execute_spec,
    expand_grid,
)

# Tiny but non-trivial: a few dozen requests per spec.
TINY = dict(n_models=2, duration=60.0)


def tiny_grid():
    return expand_grid(["sllm", "slinfer"], seeds=[1, 2], duration=60.0, n_models=[2])


def test_execute_spec_reports_timing_envelope():
    result = execute_spec(RunSpec(system="sllm", **TINY))
    assert result.fingerprint == result.spec.fingerprint()
    assert result.wall_seconds > 0.0
    assert result.report.events_processed > 0
    assert result.report.wall_seconds > 0.0
    assert "ev/s" in result.report.timing_line()


def test_result_payload_round_trip_is_canonical():
    result = execute_spec(RunSpec(system="sllm", **TINY))
    restored = RunResult.from_payload(result.to_payload())
    assert restored.canonical_json() == result.canonical_json()
    assert restored.report.slo_met_count == result.report.slo_met_count
    assert restored.report.total_requests == result.report.total_requests


def test_sequential_and_parallel_sweeps_identical():
    specs = tiny_grid()
    sequential = SweepExecutor(workers=1).run(specs)
    parallel = SweepExecutor(workers=4).run(specs)
    assert len(sequential) == len(parallel) == len(specs)
    for seq, par in zip(sequential, parallel):
        assert seq.spec == par.spec
        assert seq.canonical_json() == par.canonical_json()


def test_results_keep_spec_order():
    specs = tiny_grid()
    results = SweepExecutor(workers=2).run(specs)
    assert [r.spec for r in results] == specs


def test_repeated_spec_is_simulated_once(monkeypatch):
    import repro.runner.executor as executor_module

    calls = []
    real = executor_module.execute_spec

    def counting(spec, *args, **kwargs):
        calls.append(spec)
        return real(spec, *args, **kwargs)

    monkeypatch.setattr(executor_module, "execute_spec", counting)
    spec = RunSpec(system="sllm", **TINY)
    other = RunSpec(system="sllm", seed=2, **TINY)
    results = SweepExecutor(workers=1).run([spec, other, spec])
    assert calls == [spec, other]
    assert [r.spec for r in results] == [spec, other, spec]
    assert results[0].canonical_json() == results[2].canonical_json()


# ----------------------------------------------------------------------
# Streaming-mode sweeps and shard merging
# ----------------------------------------------------------------------
def shard_specs():
    return [
        RunSpec(system="slinfer", seed=seed, metrics="streaming", **TINY)
        for seed in (1, 2, 3)
    ]


def test_streaming_specs_fingerprint_separately_and_round_trip():
    exact = RunSpec(system="slinfer", **TINY)
    streaming = RunSpec(system="slinfer", metrics="streaming", **TINY)
    assert exact.fingerprint() != streaming.fingerprint()
    # The default mode serializes exactly as before the field existed.
    assert "metrics" not in exact.to_dict()
    assert RunSpec.from_dict(streaming.to_dict()) == streaming
    assert "metrics=streaming" in streaming.label()


def test_streaming_sweep_parallel_matches_sequential():
    specs = shard_specs()
    sequential = SweepExecutor(workers=1).run(specs)
    parallel = SweepExecutor(workers=3).run(specs)
    for seq, par in zip(sequential, parallel):
        assert seq.canonical_json() == par.canonical_json()
    assert all(r.report.metrics_mode == "streaming" for r in sequential)


def test_run_merged_folds_streaming_shards():
    executor = SweepExecutor(workers=1)
    results, merged = executor.run_merged(shard_specs())
    assert merged.metrics_mode == "streaming"
    assert merged.total_requests == sum(r.report.total_requests for r in results)
    assert merged.events_processed == sum(r.report.events_processed for r in results)
    assert merged.duration == pytest.approx(sum(r.report.duration for r in results))
    assert len(merged.ttft_cdf()) == sum(len(r.report.ttft_cdf()) for r in results)
    assert merged.requests == []  # still bounded: no per-request state


def test_shard_merge_is_associative():
    from repro.metrics.report import merge_run_reports

    reports = [execute_spec(spec).report for spec in shard_specs()]
    a, b, c = reports
    left = merge_run_reports([merge_run_reports([a, b]), c])
    right = merge_run_reports([a, merge_run_reports([b, c])])
    # Integer state is bit-identical under any grouping; float sums
    # agree to rounding.
    assert left.ttft_cdf().encode()["bins"] == right.ttft_cdf().encode()["bins"]
    assert left.total_requests == right.total_requests
    assert left.batch_histogram == right.batch_histogram
    assert left.node_seconds_cpu == pytest.approx(right.node_seconds_cpu, rel=1e-12)
    assert left.ttft_cdf().percentile(90.0) == right.ttft_cdf().percentile(90.0)


def test_merge_rejects_mixed_modes():
    from repro.metrics.report import merge_run_reports

    exact = execute_spec(RunSpec(system="slinfer", **TINY)).report
    streaming = execute_spec(
        RunSpec(system="slinfer", metrics="streaming", **TINY)
    ).report
    with pytest.raises(ValueError, match="mixed"):
        merge_run_reports([exact, streaming])


def test_cache_hit_miss_and_equality(tmp_path):
    specs = tiny_grid()[:2]
    cache = ResultCache(tmp_path / "cache")
    executor = SweepExecutor(workers=1, cache=cache)

    first = executor.run(specs)
    assert all(not r.from_cache for r in first)
    assert cache.misses == len(specs)

    second = executor.run(specs)
    assert all(r.from_cache for r in second)
    assert cache.hits == len(specs)
    for a, b in zip(first, second):
        assert a.canonical_json() == b.canonical_json()

    # A different seed is a different fingerprint: miss, not a stale hit.
    other = executor.run([RunSpec(system="sllm", seed=99, **TINY)])
    assert not other[0].from_cache


def test_cache_invalidated_by_repro_version(tmp_path):
    cache = ResultCache(tmp_path)
    spec = RunSpec(system="sllm", **TINY)
    SweepExecutor(workers=1, cache=cache).run([spec])
    path = cache.path(spec.fingerprint())
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["repro_version"] = "0.0.0"
    path.write_text(json.dumps(payload), encoding="utf-8")
    # Simulator-version drift must re-simulate, never replay stale results.
    results = SweepExecutor(workers=1, cache=cache).run([spec])
    assert not results[0].from_cache


def test_round_trip_restores_timing_envelope():
    result = execute_spec(RunSpec(system="slinfer", **TINY))
    restored = RunResult.from_payload(result.to_payload())
    assert restored.report.wall_seconds == result.report.wall_seconds
    assert restored.report.overhead_stats == result.report.overhead_stats
    assert restored.report.overhead_stats  # slinfer measures placement et al.


def test_unknown_scale_label_is_an_error():
    with pytest.raises(KeyError, match="unknown scale"):
        RunSpec(system="sllm", scale="fulll").resolved_duration()


def test_cache_ignores_corrupt_entries(tmp_path):
    cache = ResultCache(tmp_path)
    spec = RunSpec(system="sllm", **TINY)
    cache.path(spec.fingerprint()).parent.mkdir(parents=True, exist_ok=True)
    cache.path(spec.fingerprint()).write_text("not json {", encoding="utf-8")
    assert cache.get(spec.fingerprint()) is None

    # Valid JSON with the wrong fingerprint echo is also a miss.
    wrong = {"version": 1, "fingerprint": "deadbeef", "spec": {}, "report": {}, "timing": {}}
    cache.path(spec.fingerprint()).write_text(json.dumps(wrong), encoding="utf-8")
    assert cache.get(spec.fingerprint()) is None


def test_cached_result_skips_simulation(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path)
    spec = RunSpec(system="sllm", **TINY)
    SweepExecutor(workers=1, cache=cache).run([spec])

    import repro.runner.executor as executor_module

    def boom(*_args, **_kwargs):  # pragma: no cover - must not run
        raise AssertionError("cache hit should not re-simulate")

    monkeypatch.setattr(executor_module, "execute_spec", boom)
    results = SweepExecutor(workers=1, cache=cache).run([spec])
    assert results[0].from_cache


def test_workers_env_default(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "3")
    assert SweepExecutor().workers == 3
    monkeypatch.setenv("REPRO_WORKERS", "junk")
    with pytest.raises(ValueError, match="REPRO_WORKERS='junk'"):
        SweepExecutor()
    monkeypatch.delenv("REPRO_WORKERS")
    assert SweepExecutor().workers == 1


@pytest.mark.parametrize("workers", [0, -3])
def test_explicit_workers_below_one_are_rejected(workers):
    # Rejected like REPRO_WORKERS=0, not raised to one worker.
    with pytest.raises(ValueError, match="workers must be a positive integer"):
        SweepExecutor(workers=workers)
    fleet = RunSpec(system="slinfer", federation="fleet4", **TINY)
    with pytest.raises(ValueError, match="workers must be a positive integer"):
        run_federation(fleet, workers=workers)


def test_system_kwargs_pass_through():
    from repro.core import SlinferConfig

    result = execute_spec(
        RunSpec(system="slinfer", **TINY),
        config=SlinferConfig(keepalive=4.0),
    )
    assert result.report.system == "slinfer"
