"""Fig. 23 — ablation: disabling each SLINFER component."""

from repro.experiments import run_ablation


def test_fig23_ablation(run_once, sweep):
    results = run_once(run_ablation, executor=sweep)
    print("\nFig. 23: ablation at 64 7B models")
    for label, report in results.items():
        print(
            f"  {label:18s} SLO {100 * report.slo_rate:5.1f}%  "
            f"nodes cpu/gpu {report.avg_nodes_used_cpu:.1f}/{report.avg_nodes_used_gpu:.1f}"
        )
    full = results["slinfer-full"]
    # Disabling any component costs GPU resources (Fig. 23).
    assert results["w/o cpu"].avg_nodes_used_gpu > full.avg_nodes_used_gpu
    assert results["w/o sharing"].avg_nodes_used_gpu >= full.avg_nodes_used_gpu
    # "w/o CPU" shifts all work to GPUs.
    assert results["w/o cpu"].avg_nodes_used_cpu == 0.0
    # Disabling sharing hurts SLO compliance the most ("drops to 89%").
    assert results["w/o sharing"].slo_rate < full.slo_rate
    assert full.slo_rate > 0.9
