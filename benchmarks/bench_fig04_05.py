"""Figs. 4-5 — ServerlessLLM's capacity collapse and memory over-provisioning."""

from conftest import grid

from repro.experiments import run_fig4_sllm_capacity, run_fig5_memory_utilization


def test_fig4_sllm_capacity(run_once, sweep):
    counts = grid((16, 32, 64, 96, 128), (16, 64, 128))
    points = run_once(run_fig4_sllm_capacity, counts=counts, executor=sweep)
    print("\nFig. 4: sllm SLO rate vs number of models (4 GPUs)")
    for point in points:
        print(f"  {point.n_models:4d} models: {point.slo_rate:.2f}")
    # Shape: performs well at small scale, drops sharply as models grow.
    assert points[0].slo_rate > 0.8
    assert points[-1].slo_rate < points[0].slo_rate - 0.25


def test_fig5_memory_utilization(run_once, sweep):
    cdf = run_once(run_fig5_memory_utilization, executor=sweep)
    print("\nFig. 5: GPU memory utilization CDF under sllm, 128 models")
    for q in (10, 25, 50, 75, 90):
        print(f"  P{q}: {cdf.percentile(q):.2f}")
    # §III-C: each instance uses ~23% of its GPU on average.
    assert cdf.mean < 0.45
    assert cdf.median < 0.35
