"""Table III — prefill-decode disaggregation hurts in this regime."""

from conftest import grid

from repro.experiments import run_pd_table


def test_table3_pd_disaggregation(run_once, sweep):
    counts = grid((32, 64, 128), (32, 128))
    rows = run_once(run_pd_table, counts=counts, executor=sweep)
    print("\nTable III: aggregated / disaggregated PD")
    print("    system      x#   GPU agg/dis    SLO agg/dis")
    for row in rows:
        print("   ", row.summary)
    for row in rows:
        # PD never improves SLO compliance and tends to cost resources.
        assert row.disaggregated.slo_rate <= row.aggregated.slo_rate + 0.02
    # At the highest load the SLO penalty is pronounced for both systems.
    top = max(counts)
    for row in rows:
        if row.n_models == top:
            assert row.disaggregated.slo_rate < row.aggregated.slo_rate
