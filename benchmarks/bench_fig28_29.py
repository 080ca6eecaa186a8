"""Figs. 28-29 — colocation CPU usage and harvested-core comparison."""

from conftest import grid

from repro.experiments import run_harvested_cores
from repro.hardware import HostCpuModel


def test_fig28_colocation_usage(run_once):
    host = HostCpuModel(host_cores=32)
    rows = run_once(lambda: [(n, host.core_usage(n)) for n in (1, 2, 4, 8)])
    print("\nFig. 28: total core usage during multi-model colocation")
    for n, cores in rows:
        print(f"  {n} colocated: {cores:.2f} cores")
    assert rows[-1][1] < 1.6


def test_fig29_harvested_cores(run_once, sweep):
    core_counts = grid((0, 8, 16, 32), (0, 32))
    points = run_once(run_harvested_cores, core_counts=core_counts, executor=sweep)
    print("\nFig. 29: SLO-miss rate vs harvested cores per GPU")
    for point in points:
        print(
            f"  {point.cores_per_gpu:2d} cores {point.system:9s} "
            f"miss {100 * point.slo_miss_rate:.0f}%"
        )

    def miss(cores, system):
        return next(
            p.slo_miss_rate
            for p in points
            if p.cores_per_gpu == cores and p.system == system
        )

    # SLINFER achieves the lowest miss rate at every core budget (§IX-I3).
    for cores in core_counts:
        assert miss(cores, "slinfer") <= miss(cores, "neo+") + 0.02
        assert miss(cores, "slinfer") <= miss(cores, "sllm+c+s") + 0.02
    # More harvested cores help every system.
    top = max(core_counts)
    for system in ("neo+", "slinfer"):
        assert miss(top, system) <= miss(0, system) + 0.02
