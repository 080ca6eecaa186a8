"""Fig. 24 — CPU scalability: adding CPU vs GPU nodes."""

from conftest import grid

from repro.experiments import run_cpu_scalability


def test_fig24_cpu_scalability(run_once, sweep):
    max_added = grid(8, 4)
    points = run_once(run_cpu_scalability, max_added=max_added, executor=sweep)
    print("\nFig. 24: SLO-met requests vs added nodes (base: 2 GPUs)")
    for point in points:
        print(
            f"  +{point.added_nodes} {point.kind.upper()} nodes: "
            f"{point.slo_met}/{point.total}"
        )
    cpu_points = [p for p in points if p.kind == "cpu"]
    gpu_points = [p for p in points if p.kind == "gpu"]
    # Adding CPU nodes increases capacity...
    assert cpu_points[-1].slo_met > cpu_points[0].slo_met
    # ...but less efficiently than GPU nodes (3-4 CPUs ≈ 1 GPU).
    gain_cpu = cpu_points[-1].slo_met - cpu_points[0].slo_met
    gain_gpu = gpu_points[-1].slo_met - gpu_points[0].slo_met
    assert gain_gpu >= gain_cpu
