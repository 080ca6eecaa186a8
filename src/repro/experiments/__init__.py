"""Experiment runners: one function per table/figure of the paper.

Each runner returns plain data (lists of labelled rows / series) that the
benchmark harness (``benchmarks/bench_*.py``) prints.  Scale is controlled
by the ``REPRO_SCALE`` environment variable: ``full`` replays the paper's
30-minute traces; the default replays proportionally thinned 10-minute
segments so the whole suite finishes quickly.

Every runner that simulates a serving system is a :class:`~repro.runner.RunSpec`
grid.  It builds one spec per row from registered names only (systems,
scenarios, clusters, and the ``config`` axis for SLINFER settings), runs
the list through a :class:`~repro.runner.SweepExecutor`, and maps the
results back to its rows.  Each such runner takes an optional
``executor=``; the default one honours ``REPRO_WORKERS``.  Passing one
executor with a result cache to several runners simulates a spec they
share only once, e.g. Table III's aggregated runs are Fig. 22's.

Two runners stay hand-built, because their traces have no registered
name: Fig. 25 (:func:`run_gpu_efficiency`) replays the 3B:7B:13B mix at
twice the standard request rate, and §X (:func:`run_quantization_comparison`)
serves an INT4 Codestral-22B that is not in the model catalog.  They are
5 runs with no duplicate, so a scenario parameter or a model-name
grammar just to port them would add more than it removes.
"""

from repro.experiments.discussion import run_quantization_comparison
from repro.experiments.render import render_fig22, render_reports, render_table2
from repro.experiments.e2e import run_ablation, run_fig22, run_pd_table
from repro.experiments.efficiency import run_gpu_efficiency
from repro.experiments.heterogeneity import (
    run_cpu_scalability,
    run_harvested_cores,
    run_mixed_deployment,
)
from repro.experiments.motivation import (
    run_fig4_sllm_capacity,
    run_fig5_memory_utilization,
    run_fig6_ttft_curves,
    run_fig7_8_tpot_curves,
    run_fig9_memory_footprint,
    run_fig17_scaling_cost,
)
from repro.experiments.scalability import run_node_scaling, run_scheduling_overhead
from repro.experiments.sensitivity import (
    run_burstgpt_loads,
    run_dataset_sweep,
    run_keepalive_sweep,
    run_watermark_sweep,
)
from repro.experiments.tables import run_table1, run_table2

__all__ = [
    "run_ablation",
    "run_burstgpt_loads",
    "run_cpu_scalability",
    "run_dataset_sweep",
    "run_fig17_scaling_cost",
    "run_fig22",
    "run_fig4_sllm_capacity",
    "run_fig5_memory_utilization",
    "run_fig6_ttft_curves",
    "run_fig7_8_tpot_curves",
    "run_fig9_memory_footprint",
    "run_gpu_efficiency",
    "run_harvested_cores",
    "run_keepalive_sweep",
    "run_mixed_deployment",
    "run_node_scaling",
    "run_pd_table",
    "run_quantization_comparison",
    "run_scheduling_overhead",
    "run_table1",
    "run_table2",
    "run_watermark_sweep",
    "render_fig22",
    "render_reports",
    "render_table2",
]
