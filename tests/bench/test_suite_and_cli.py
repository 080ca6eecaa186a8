"""End-to-end: run_bench writes the core report; the CLI gates on it."""

import itertools
import json
from types import SimpleNamespace

import pytest

from repro.bench import BenchConfig, load_report, run_bench, timers
from repro.cli import main

_FAST = {"workload-synthesis"}  # cheapest core case: trace synthesis only


def _fast_config():
    return BenchConfig(scale="smoke", repeats=1, warmup=0)


def test_run_bench_writes_core_report(tmp_path):
    outcome = run_bench(_fast_config(), out_dir=tmp_path, only=_FAST)
    assert outcome.gate_passed
    report = load_report(tmp_path / "BENCH_core.json")
    assert report == outcome.report
    assert report["suite"] == "core"
    assert [case["name"] for case in report["cases"]] == ["workload-synthesis"]
    # one suite, one report: nothing else lands in the output directory
    assert {path.name for path in tmp_path.iterdir()} == {"BENCH_core.json"}


def test_filtered_gate_ignores_deliberately_skipped_cases(tmp_path):
    """--only core-loop --baseline <full baseline> must not fail on the
    five cases the filter skipped — only the cases that ran are gated."""
    full_baseline = {
        "schema_version": 1,
        "suite": "core",
        "scale": "smoke",
        "cases": [
            {"name": "workload-synthesis", "events_per_sec": 1.0},  # trivially met
            {"name": "core-loop", "events_per_sec": 1e15},  # skipped by the filter
            {"name": "queue-churn", "events_per_sec": 1e15},  # skipped by the filter
        ],
    }
    baseline_path = tmp_path / "baseline.json"
    baseline_path.write_text(json.dumps(full_baseline))
    outcome = run_bench(
        _fast_config(), out_dir=tmp_path, only=_FAST, baseline=baseline_path
    )
    assert outcome.gate_passed


def test_gate_passes_against_own_output(tmp_path, monkeypatch):
    """The gate accepts a run identical to its baseline.  The timers read
    a fake clock that advances a fixed step per call, so both runs
    report the same events/sec and host speed cannot flake the test."""
    ticks = itertools.count()
    monkeypatch.setattr(timers, "time", SimpleNamespace(perf_counter=lambda: next(ticks) * 1e-3))
    run_bench(_fast_config(), out_dir=tmp_path, only=_FAST)
    outcome = run_bench(
        _fast_config(),
        out_dir=tmp_path / "second",
        only=_FAST,
        baseline=tmp_path / "BENCH_core.json",
        max_regression=0.25,
    )
    assert outcome.gate_passed


def test_gate_fails_against_impossible_baseline(tmp_path):
    run_bench(_fast_config(), out_dir=tmp_path, only=_FAST)
    baseline_path = tmp_path / "BENCH_core.json"
    baseline = json.loads(baseline_path.read_text())
    baseline["cases"][0]["events_per_sec"] = 1e15  # unreachable
    baseline_path.write_text(json.dumps(baseline))
    # The last run writes its report over the baseline file itself: the
    # gate must still compare against the numbers it read before.
    for out_dir in (tmp_path / "second", tmp_path):
        outcome = run_bench(
            _fast_config(),
            out_dir=out_dir,
            only=_FAST,
            baseline=baseline_path,
            max_regression=0.25,
        )
        assert not outcome.gate_passed
        assert outcome.regressions[0].name == "workload-synthesis"


def test_cli_bench_writes_reports_and_exits_zero(tmp_path, capsys):
    code = main(
        [
            "bench",
            "--scale", "smoke",
            "--repeats", "1",
            "--warmup", "0",
            "--only", "workload-synthesis",
            "--out", str(tmp_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "workload-synthesis" in out
    assert (tmp_path / "BENCH_core.json").exists()


def test_cli_bench_gate_exit_code(tmp_path):
    assert (
        main(
            [
                "bench", "--scale", "smoke", "--repeats", "1", "--warmup", "0",
                "--only", "workload-synthesis", "--out", str(tmp_path),
            ]
        )
        == 0
    )
    baseline_path = tmp_path / "BENCH_core.json"
    baseline = json.loads(baseline_path.read_text())
    baseline["cases"][0]["events_per_sec"] = 1e15
    baseline_path.write_text(json.dumps(baseline))
    code = main(
        [
            "bench", "--scale", "smoke", "--repeats", "1", "--warmup", "0",
            "--only", "workload-synthesis", "--out", str(tmp_path / "second"),
            "--baseline", str(baseline_path),
        ]
    )
    assert code == 3


def test_unknown_only_case_fails_fast(tmp_path):
    with pytest.raises(ValueError, match="unknown bench case"):
        run_bench(_fast_config(), out_dir=tmp_path, only={"core-lop"})  # typo
    with pytest.raises(ValueError, match="nothing to run"):
        run_bench(_fast_config(), out_dir=tmp_path, only=set())  # e.g. --only ,
    assert not (tmp_path / "BENCH_core.json").exists()


def test_cli_unknown_only_case_exits_two(tmp_path, capsys):
    # A typo, and a scenario-* name: only core cases exist.
    for name in ("core-lop", "scenario-azure"):
        code = main(["bench", "--scale", "smoke", "--only", name, "--out", str(tmp_path)])
        assert code == 2
        assert "unknown bench case" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


def test_cli_bench_profile_flag(tmp_path, capsys):
    # Per-case profiles come from ``python -m cProfile -m repro bench``.
    with pytest.raises(SystemExit) as exit_info:
        main(["bench", "--scale", "smoke", "--profile", "--out", str(tmp_path)])
    assert exit_info.value.code == 2
    assert "--profile" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_scale_mismatched_baseline_is_an_error(tmp_path):
    run_bench(_fast_config(), out_dir=tmp_path, only=_FAST)
    baseline_path = tmp_path / "BENCH_core.json"
    baseline = json.loads(baseline_path.read_text())
    baseline["scale"] = "quick"
    baseline_path.write_text(json.dumps(baseline))
    with pytest.raises(ValueError, match="scale mismatch"):
        run_bench(
            _fast_config(),
            out_dir=tmp_path / "second",
            only=_FAST,
            baseline=baseline_path,
        )


def test_cli_missing_baseline_file_exits_two(tmp_path, capsys):
    code = main(
        [
            "bench", "--scale", "smoke", "--repeats", "1", "--warmup", "0",
            "--only", "workload-synthesis", "--out", str(tmp_path),
            "--baseline", str(tmp_path / "does-not-exist.json"),
        ]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_core_suite_covers_the_acceptance_cases():
    from repro.bench import CORE_CASES

    assert len(CORE_CASES) >= 5
    assert "core-loop" in CORE_CASES


def test_engine_vectorized_is_a_core_case():
    from repro.bench.cases import CORE_CASES

    assert "engine-vectorized" in CORE_CASES
