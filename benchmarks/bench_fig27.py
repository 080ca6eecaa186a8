"""Fig. 27 — BurstGPT trace at different load levels."""

from conftest import grid

from repro.experiments import run_burstgpt_loads


def test_fig27_burstgpt(run_once, sweep):
    rps_levels = grid((0.5, 1.0, 2.0, 4.0), (0.5, 4.0))
    points = run_once(run_burstgpt_loads, rps_levels=rps_levels, executor=sweep)
    print("\nFig. 27: BurstGPT resource usage by load level")
    for point in points:
        print(
            f"  {point.rps:3.1f} RPS {point.system:9s} "
            f"nodes cpu/gpu {point.report.avg_nodes_used_cpu:.1f}/"
            f"{point.report.avg_nodes_used_gpu:.1f} "
            f"SLO {100 * point.report.slo_rate:.0f}%"
        )

    def of(rps, system):
        return next(p.report for p in points if p.rps == rps and p.system == system)

    for rps in rps_levels:
        slinfer = of(rps, "slinfer")
        baseline = of(rps, "sllm+c+s")
        total_slinfer = slinfer.avg_nodes_used_cpu + slinfer.avg_nodes_used_gpu
        total_baseline = baseline.avg_nodes_used_cpu + baseline.avg_nodes_used_gpu
        # SLINFER consistently consumes fewer node resources (§IX-I2)...
        assert total_slinfer <= total_baseline + 0.2
        # ...while keeping SLO violations lower at high load.
        if rps >= 4.0:
            assert slinfer.slo_miss_rate <= baseline.slo_miss_rate
