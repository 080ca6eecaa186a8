"""Every declared run scalar survives the collector, the payload round
trip and the merge, with no per-name code to forget.

Each shard report of a federated run crosses the host boundary as a
``to_dict`` payload and returns through ``from_dict`` and
``merge_run_reports``, so a counter missing from any of the three would
silently read 0 in federated runs.  Each scalar gets a distinct nonzero
value here, so a dropped or swapped one fails.
"""

from __future__ import annotations

import json
from dataclasses import fields

import pytest

from repro.metrics.collector import MetricsCollector
from repro.metrics.report import (
    KV_SHARING,
    VOLATILE,
    RunCounters,
    RunReport,
    RunTotals,
    merge_run_reports,
)

SCALARS = fields(RunTotals)
PREFIX_COUNTERS = {
    "prefix_lookups",
    "prefix_lookup_tokens",
    "prefix_hit_tokens",
    "shared_block_refs",
    "logical_prompt_blocks",
    "cow_blocks",
}


def _distinct_values(offset: int) -> dict[str, int | float]:
    return {
        f.name: offset + index + (0.25 if f.type == "float" else 0)
        for index, f in enumerate(SCALARS, start=1)
    }


def _report(offset: int) -> RunReport:
    return RunReport(system="slinfer", duration=60.0, **_distinct_values(offset))


def _through_payload(report: RunReport) -> RunReport:
    return RunReport.from_dict(json.loads(json.dumps(report.to_dict())))


def test_the_table_declares_every_counter_with_its_group():
    counters = {f.name for f in fields(RunCounters)}
    assert counters == PREFIX_COUNTERS | {
        "scaling_ops",
        "scaling_busy_seconds",
        "migrations",
        "evictions",
        "preemptions",
        "cold_starts",
    }
    groups = {f.name: f.metadata.get("group") for f in SCALARS}
    assert {name for name, group in groups.items() if group == KV_SHARING} == PREFIX_COUNTERS
    assert {name for name, group in groups.items() if group == VOLATILE} == {"wall_seconds"}
    assert {f.type for f in SCALARS} == {"int", "float"}


def test_finalize_copies_every_counter():
    collector = MetricsCollector()
    values = {f.name: v for f, v in zip(fields(RunCounters), _distinct_values(0).values())}
    for name, value in values.items():
        setattr(collector, name, value)
    report = collector.finalize(now=60.0, duration=60.0, system="slinfer")
    assert {name: getattr(report, name) for name in values} == values


@pytest.mark.parametrize("offset", [0, 100])
def test_every_scalar_round_trips(offset):
    report = _report(offset)
    restored = _through_payload(report)
    assert {f.name: getattr(restored, f.name) for f in SCALARS} == _distinct_values(offset)
    assert restored.to_dict() == report.to_dict()
    assert set(report.to_dict()[KV_SHARING]) == PREFIX_COUNTERS


def test_every_scalar_merges_as_a_sum():
    shards = [_through_payload(_report(offset)) for offset in (0, 100, 1000)]
    merged = _through_payload(merge_run_reports(shards))
    expected = {
        name: sum(_distinct_values(offset)[name] for offset in (0, 100, 1000))
        for name in _distinct_values(0)
    }
    assert {f.name: getattr(merged, f.name) for f in SCALARS} == expected
    assert all(value for value in expected.values())


def test_all_zero_kv_sharing_group_is_omitted():
    report = _report(0)
    for name in PREFIX_COUNTERS:
        setattr(report, name, 0)
    payload = report.to_dict()
    assert KV_SHARING not in payload
    assert _through_payload(report).to_dict() == payload
    canonical = report.to_dict(include_volatile=False)
    assert "wall_seconds" not in canonical and "wall_seconds" in payload
