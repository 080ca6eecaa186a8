"""Fig. 22 — end-to-end comparison across model sizes and counts.

The headline result: with 128 models, SLINFER improves SLO-met requests by
~86-154 % over sllm and ~47-62 % over sllm+c, while using fewer nodes with
higher per-node decode speed.  We assert the *shape* (ordering and broad
factors), not the absolute numbers.
"""

import pytest
from conftest import grid

from repro.experiments import run_fig22


def _print_cells(cells):
    print()
    for cell in cells:
        print(" ", cell.summary)


def _slo_met(cells, system, n_models):
    return next(
        c.report.slo_met_count
        for c in cells
        if c.system == system and c.n_models == n_models
    )


@pytest.mark.parametrize("size", ["3B", "7B", "13B"])
def test_fig22_end_to_end(run_once, sweep, size):
    counts = grid((32, 64, 128), (32, 128))
    cells = run_once(run_fig22, size=size, counts=counts, executor=sweep)
    _print_cells(cells)

    top = max(counts)
    sllm = _slo_met(cells, "sllm", top)
    sllm_c = _slo_met(cells, "sllm+c", top)
    sllm_cs = _slo_met(cells, "sllm+c+s", top)
    slinfer = _slo_met(cells, "slinfer", top)

    # Ordering at the highest load: SLINFER beats every baseline, and CPUs
    # add capacity over GPU-only sllm.  (sllm+c+s may fall *below* sllm+c
    # for large models — the paper's own "negative optimization effects"
    # of static partitioning, §IX-B/§IX-E — so no ordering is asserted
    # between the two.)
    assert slinfer > max(sllm, sllm_c, sllm_cs)
    assert sllm_c >= sllm
    # Broad factors: ≥35% over sllm+c (paper: 47-62%), ≥10% over sllm+c+s
    # (paper: 18-70%), ≥50% over sllm (paper: 86-154%).
    assert slinfer >= 1.35 * sllm_c
    assert slinfer >= 1.10 * sllm_cs
    assert slinfer >= 1.50 * sllm

    # At low load SLINFER serves ~everything with fewer GPUs than sllm.
    low = min(counts)
    slinfer_low = next(c for c in cells if c.system == "slinfer" and c.n_models == low)
    sllm_low = next(c for c in cells if c.system == "sllm" and c.n_models == low)
    assert slinfer_low.report.slo_rate > 0.95
    assert slinfer_low.report.avg_nodes_used_gpu < sllm_low.report.avg_nodes_used_gpu
