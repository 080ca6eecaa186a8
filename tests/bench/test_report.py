"""Bench report schema, round-trip, and the baseline regression gate."""

import json

import pytest

from repro.bench import (
    BenchConfig,
    Measurement,
    build_report,
    compare_reports,
    load_report,
    write_report,
)
from repro.sim.engine import ENGINE_ENV


def _measurement(name, events=1000, wall=0.5):
    return Measurement(name=name, events=events, wall_all=[wall], repeats=1, warmup=0)


def _report(cases, commit="abc1234"):
    config = BenchConfig(scale="smoke", repeats=1, warmup=0)
    return build_report(config, cases, commit=commit)


def test_report_schema_and_roundtrip(tmp_path):
    report = _report([_measurement("core-loop"), _measurement("event-bus-publish")])
    assert report["schema_version"] == 1
    assert report["suite"] == "core"
    assert report["commit"] == "abc1234"
    assert report["scale"] == "smoke"
    assert {"python", "numpy", "platform", "engine"} <= set(report["environment"])
    assert [case["name"] for case in report["cases"]] == ["core-loop", "event-bus-publish"]
    for case in report["cases"]:
        assert {"wall_seconds", "events", "events_per_sec"} <= set(case)

    path = write_report(report, tmp_path / "BENCH_core.json")
    assert load_report(path) == json.loads(path.read_text())


@pytest.mark.parametrize("env", [None, "reference"])
def test_environment_records_default_engine(monkeypatch, env):
    if env is None:
        monkeypatch.delenv(ENGINE_ENV, raising=False)
    else:
        monkeypatch.setenv(ENGINE_ENV, env)
    assert _report([_measurement("core-loop")])["environment"]["engine"] == (env or "vectorized")


def test_unsupported_schema_version_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema_version": 99, "cases": []}))
    with pytest.raises(ValueError, match="schema version"):
        load_report(path)


def test_gate_passes_within_tolerance():
    baseline = _report([_measurement("core-loop", events=1000, wall=1.0)])  # 1000 ev/s
    current = _report([_measurement("core-loop", events=1000, wall=1.25)])  # 800 ev/s
    assert compare_reports(current, baseline, max_regression=0.25) == []


def test_gate_fails_past_tolerance():
    baseline = _report([_measurement("core-loop", events=1000, wall=1.0)])
    current = _report([_measurement("core-loop", events=1000, wall=2.0)])  # 0.5x
    regressions = compare_reports(current, baseline, max_regression=0.25)
    assert [r.name for r in regressions] == ["core-loop"]
    assert regressions[0].ratio == pytest.approx(0.5)
    assert "core-loop" in regressions[0].describe()


def test_gate_flags_missing_cases_but_ignores_new_ones():
    baseline = _report([_measurement("core-loop"), _measurement("queue-churn")])
    current = _report([_measurement("core-loop"), _measurement("brand-new-case")])
    regressions = compare_reports(current, baseline, max_regression=0.25)
    assert [r.name for r in regressions] == ["queue-churn"]
    assert regressions[0].current_events_per_sec == 0.0
    assert "missing" in regressions[0].describe()


def test_gate_rejects_nonsense_tolerance():
    report = _report([_measurement("x")])
    with pytest.raises(ValueError):
        compare_reports(report, report, max_regression=1.5)


def test_improvements_never_trip_the_gate():
    baseline = _report([_measurement("core-loop", events=1000, wall=1.0)])
    current = _report([_measurement("core-loop", events=1000, wall=0.1)])  # 10x faster
    assert compare_reports(current, baseline, max_regression=0.0) == []
