"""Figs. 34-35 — dataset characterization and per-dataset evaluation."""

import numpy as np
from conftest import grid

from repro.experiments import run_dataset_sweep
from repro.sim import make_rng
from repro.workloads import DATASETS


def test_fig34_dataset_characterization(run_once):
    def characterize():
        rng = make_rng(0, "fig34")
        rows = []
        for name, dist in DATASETS.items():
            inputs = dist.sample_input_lens(rng, 4000)
            outputs = dist.sample_output_lens(rng, 4000)
            rows.append((name, np.median(inputs), inputs.max(), np.median(outputs)))
        return rows

    rows = run_once(characterize)
    print("\nFig. 34: dataset length characterization")
    for name, in_median, in_max, out_median in rows:
        print(
            f"  {name:20s} input median {in_median:6.0f} max {in_max:6.0f} "
            f"output median {out_median:5.0f}"
        )
    stats = {name: (im, mx, om) for name, im, mx, om in rows}
    assert stats["longbench"][1] > 16000  # up to 32k inputs
    assert stats["sharegpt"][2] > stats["azure-code"][2]  # longer outputs
    assert stats["humaneval"][0] < stats["azure-conversation"][0]


def test_fig35_dataset_sweep(run_once, sweep):
    names = grid(
        ("humaneval", "azure-code", "azure-conversation", "longbench", "sharegpt"),
        ("azure-conversation", "longbench", "sharegpt"),
    )
    results = run_once(run_dataset_sweep, dataset_names=names, executor=sweep)
    print("\nFig. 35: per-dataset evaluation, 64 8B models")
    for result in results:
        print(
            f"  {result.dataset:20s} {result.system:9s} "
            f"nodes cpu/gpu {result.report.avg_nodes_used_cpu:.1f}/"
            f"{result.report.avg_nodes_used_gpu:.1f} "
            f"SLO {100 * result.report.slo_rate:.0f}% "
            f"decode cpu/gpu {result.report.decode_speed_cpu:.0f}/"
            f"{result.report.decode_speed_gpu:.0f}"
        )

    def of(dataset, system):
        return next(
            r.report for r in results if r.dataset == dataset and r.system == system
        )

    for dataset in names:
        slinfer = of(dataset, "slinfer")
        baseline = of(dataset, "sllm+c+s")
        total_s = slinfer.avg_nodes_used_cpu + slinfer.avg_nodes_used_gpu
        total_b = baseline.avg_nodes_used_cpu + baseline.avg_nodes_used_gpu
        # SLINFER consistently consumes fewer resources (§IX-I1)...
        assert total_s <= total_b + 0.3
        # ...with at least comparable SLO compliance.
        assert slinfer.slo_rate >= baseline.slo_rate - 0.02
    # LongBench: CPUs can't meet the long-input TTFT SLO, so SLINFER
    # places little work there compared to conversation traffic.
    long_cpu = of("longbench", "slinfer").avg_nodes_used_cpu
    conv_cpu = of("azure-conversation", "slinfer").avg_nodes_used_cpu
    assert long_cpu <= conv_cpu + 0.2
