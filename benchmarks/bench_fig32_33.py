"""Figs. 32-33 — node-count scaling and scheduling overhead."""

from conftest import grid

from repro.experiments import run_node_scaling, run_scheduling_overhead


def test_fig32_node_scaling(run_once, sweep):
    node_pairs = grid((1, 2, 3, 4), (1, 4))
    points = run_once(run_node_scaling, node_pairs=node_pairs, executor=sweep)
    print("\nFig. 32: SLO-met requests vs cluster size")
    for point in points:
        print(f"  {point.total_nodes} nodes {point.system:9s} {point.slo_met}/{point.total}")

    def met(nodes, system):
        return next(
            p.slo_met for p in points if p.total_nodes == nodes and p.system == system
        )

    for pairs in node_pairs:
        # SLINFER beats sllm+c+s at every cluster size.
        assert met(2 * pairs, "slinfer") >= met(2 * pairs, "sllm+c+s")
    # More nodes → more SLO-met requests (with diminishing returns).
    small, large = 2 * min(node_pairs), 2 * max(node_pairs)
    assert met(large, "slinfer") > met(small, "slinfer")


def test_fig33_scheduling_overhead(run_once, sweep):
    node_pairs = grid((1, 2, 3, 4), (1, 4))
    points = run_once(run_scheduling_overhead, node_pairs=node_pairs, executor=sweep)
    print("\nFig. 33: measured scheduling overhead of this implementation")
    for point in points:
        print(
            f"  {point.total_nodes} nodes: shadow-validation "
            f"{1e3 * point.shadow_validation.mean_seconds:.2f} ms "
            f"(n={point.shadow_validation.count}), token-schedule "
            f"{1e6 * point.token_schedule.mean_seconds:.0f} us "
            f"(n={point.token_schedule.count})"
        )
    # Shape (Fig. 33): both decision types stay sub-10ms; token-level
    # scheduling is far cheaper than shadow validation and roughly flat
    # in cluster size.
    for point in points:
        assert point.shadow_validation.mean_seconds < 0.010
        assert point.token_schedule.mean_seconds < 0.001
