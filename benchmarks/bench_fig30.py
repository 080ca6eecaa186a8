"""Fig. 30 — keep-alive threshold sensitivity."""

from conftest import grid

from repro.experiments import run_keepalive_sweep


def test_fig30_keepalive(run_once, sweep):
    thresholds = grid((0.0, 1.0, 2.0, 4.0, 8.0), (0.0, 1.0, 8.0))
    points = run_once(run_keepalive_sweep, thresholds=thresholds, executor=sweep)
    print("\nFig. 30: GPUs used and P95 TTFT vs keep-alive threshold")
    for point in points:
        print(
            f"  keepalive={point.threshold:3.1f}s {point.system:9s} "
            f"GPUs {point.gpus_used:.2f} P95-TTFT {point.p95_ttft:.2f}s"
        )

    def of(threshold, system):
        return next(
            p for p in points if p.threshold == threshold and p.system == system
        )

    # Longer keep-alive holds resources longer...
    for system in ("slinfer", "sllm+c+s"):
        low = of(min(thresholds), system)
        high = of(max(thresholds), system)
        assert high.gpus_used >= low.gpus_used - 0.1
    # ...and §IX-I4: extending the threshold does NOT improve (and can
    # worsen) tail TTFT, because cold starts are already cheap.
    slinfer_high = of(max(thresholds), "slinfer")
    slinfer_ref = of(1.0, "slinfer") if 1.0 in thresholds else of(min(thresholds), "slinfer")
    assert slinfer_high.p95_ttft >= slinfer_ref.p95_ttft - 0.25
