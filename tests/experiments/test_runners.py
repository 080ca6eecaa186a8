"""Smoke tests for experiment runners (at SMOKE scale for speed)."""

import pytest

from repro.experiments import (
    run_fig6_ttft_curves,
    run_fig7_8_tpot_curves,
    run_fig9_memory_footprint,
    run_fig17_scaling_cost,
    run_table1,
    run_table2,
)
from repro.models import LLAMA2_7B
from repro.runner import SMOKE_SCALE, RunSpec, build_workload


def test_table1_has_both_generations():
    rows = run_table1()
    assert [row.cpu for row in rows] == ["xeon-8369b-32c", "xeon-6462c-32c"]
    assert rows[1].ttft_ms[1024] == pytest.approx(567, rel=0.05)


def test_table2_covers_all_scenarios_and_fractions():
    cells = run_table2()
    scenarios = {cell.scenario for cell in cells}
    assert len(scenarios) == 6
    assert len(cells) == 24
    quarter = [c for c in cells if c.scenario == "C-7B-2K" and c.fraction_label == "1/4"]
    assert quarter[0].per_instance_limit == 0


def test_fig6_curves_have_slo_reference():
    curves = run_fig6_ttft_curves(lengths=(256, 1024))
    assert len(curves) == 6
    for curve in curves:
        assert len(curve.ttft_s) == len(curve.slo_s) == len(curve.lengths)


def test_fig7_8_labels():
    curves = run_fig7_8_tpot_curves(batches=(1, 4), lengths=(512, 1024))
    labels = {curve.label for curve in curves}
    assert labels == {"C-512", "C-1K", "G-512", "G-1K"}


def test_fig9_profiles_ranked_by_percentile():
    profiles = run_fig9_memory_footprint(
        percentiles=(99.0, 50.0), scale=SMOKE_SCALE
    )
    p99, p50 = profiles
    assert p99.peak_footprint >= p50.peak_footprint
    assert p99.min_footprint == p50.min_footprint == float(LLAMA2_7B.weight_bytes)


def test_fig17_monotone_costs():
    points = run_fig17_scaling_cost(sizes_gib=(2, 8, 32))
    ups = [point.up_seconds for point in points]
    assert ups == sorted(ups)


def test_make_azure_workload_scales_rate_not_count():
    full = build_workload(RunSpec(system="sllm", n_models=8, seed=2, duration=1800.0))
    quick = build_workload(RunSpec(system="sllm", n_models=8, seed=2, duration=600.0))
    full_rate = full.total_requests / full.duration
    quick_rate = quick.total_requests / quick.duration
    assert quick_rate == pytest.approx(full_rate, rel=0.35)
