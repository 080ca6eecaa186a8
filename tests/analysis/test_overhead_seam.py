"""overhead_timer: the one sanctioned wall-clock seam for policy code.

PR context: slinfer's shadow-validation and preemption-planning paths
used to call ``time.perf_counter`` directly; the ``no-wall-clock`` lint
rule forbids that, so they now time themselves through
``ServingSystem.overhead_timer``.  These tests pin that the seam still
feeds Fig. 33 overhead stats.
"""

from __future__ import annotations

from repro.runner import RunSpec, execute_spec
from repro.runner.executor import build_system
from repro.runner.spec import build_workload

TINY = dict(n_models=2, duration=60.0)


def test_slinfer_overheads_flow_through_seam():
    # A plain run must surface the wall-clock sections slinfer times
    # via overhead_timer.
    report = execute_spec(RunSpec(system="slinfer", **TINY)).report
    assert "shadow_validation" in report.overhead_stats
    stat = report.overhead_stats["shadow_validation"]
    assert stat.count > 0
    assert stat.total_seconds >= 0.0


def test_timer_records_named_section():
    spec = RunSpec(system="slinfer", **TINY)
    system = build_system(spec)
    with system.overhead_timer("custom_section"):
        pass
    report = system.run(build_workload(spec))
    assert report.overhead_stats["custom_section"].count == 1
