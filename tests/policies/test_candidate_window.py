"""SLINFER's new-instance candidate window must not hide a node kind.

The window used to keep the first ``max_placement_candidates`` (8) nodes
of a CPU-first best-fit list, so on a cluster with 8 or more feasible
CPU nodes no GPU was ever a candidate: adding CPU nodes to ``cpu6-gpu2``
cut SLO attainment by more than half and left both GPUs idle.
"""

from repro.runner import RunSpec, execute_spec


def _run(cluster: str):
    spec = RunSpec(system="slinfer", n_models=64, cluster=cluster, seed=1, scale="smoke")
    return execute_spec(spec).report


def test_eight_cpu_nodes_still_place_on_gpus():
    fewer_cpus = _run("cpu6-gpu2")
    more_cpus = _run("cpu8-gpu2")
    assert more_cpus.avg_nodes_used_gpu > 0.0
    assert more_cpus.slo_met_count >= fewer_cpus.slo_met_count
