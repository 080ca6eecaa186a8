"""Fig. 31 — KV-cache scaling watermark sensitivity."""

from conftest import grid

from repro.experiments import run_watermark_sweep


def test_fig31_watermark(run_once, sweep):
    watermarks = grid((0.0, 0.10, 0.25, 0.50, 1.00), (0.0, 0.25, 1.00))
    points = run_once(run_watermark_sweep, watermarks=watermarks, executor=sweep)
    print("\nFig. 31: KV utilization and scaling overhead vs watermark")
    for point in points:
        print(
            f"  w={point.watermark:4.0%} kv-util {point.kv_utilization:.2f} "
            f"scaling-overhead {100 * point.scaling_overhead:.1f}% "
            f"migrations {100 * point.migration_rate:.1f}%"
        )
    by_watermark = {point.watermark: point for point in points}
    # §IX-I5: disabling the watermark causes far more time resizing than a
    # low watermark; 25% already makes the overhead minimal.
    assert by_watermark[0.0].scaling_overhead > by_watermark[0.25].scaling_overhead
    # Raising the watermark further lowers KV utilization (memory waste).
    assert by_watermark[1.0].kv_utilization < by_watermark[0.0].kv_utilization
    # Migration (underestimation) rate stays tiny with the watermark on.
    assert by_watermark[0.25].migration_rate < 0.02
