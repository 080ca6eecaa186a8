"""Fig. 26 — mixed deployment with various size popularities (incl. 34B TP-2)."""

from conftest import grid

from repro.experiments import run_mixed_deployment
from repro.experiments.heterogeneity import POPULARITY_RATIOS


def test_fig26_mixed_deployment(run_once, sweep):
    ratios = grid(POPULARITY_RATIOS, ((4, 1, 1, 1), (1, 1, 4, 1), (0, 0, 0, 1)))
    results = run_once(run_mixed_deployment, ratios=ratios, executor=sweep)
    print("\nFig. 26: GPUs used under mixed model-size popularity (4 CPU + 6 GPU)")
    for result in results:
        print(
            f"  {result.ratio:9s} {result.system:9s} "
            f"GPUs {result.report.avg_nodes_used_gpu:.1f} "
            f"SLO {100 * result.report.slo_rate:.0f}%"
        )

    def gpus(ratio, system):
        label = ":".join(str(x) for x in ratio)
        return next(
            r.report.avg_nodes_used_gpu
            for r in results
            if r.ratio == label and r.system == system
        )

    small_heavy = ratios[0]
    large_heavy = next(r for r in ratios if r[2] >= 4)
    # SLINFER uses no more GPUs than the baselines in every mix.
    for ratio in ratios:
        assert gpus(ratio, "slinfer") <= gpus(ratio, "sllm+c") + 0.2
        assert gpus(ratio, "slinfer") <= gpus(ratio, "sllm+c+s") + 0.2
    # Density advantage shrinks when large models dominate (§IX-E).
    small_saving = gpus(small_heavy, "sllm+c") - gpus(small_heavy, "slinfer")
    large_saving = gpus(large_heavy, "sllm+c") - gpus(large_heavy, "slinfer")
    assert small_saving >= large_saving - 0.3
