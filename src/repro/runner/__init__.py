"""Run orchestration: specs, grids, caching, and parallel sweep execution.

This package is the single seam between "what to run" (registry names in
a :class:`RunSpec`) and "how to run it" (the :class:`SweepExecutor`).
Every entry point — the CLI, the experiment drivers, the benchmark
harness — goes through it instead of hand-building workloads and system
tables.

Quickstart::

    from repro.runner import RunSpec, SweepExecutor, expand_grid

    specs = expand_grid(["sllm", "slinfer"], seeds=[1, 2], scale="smoke")
    for result in SweepExecutor(workers=4).run(specs):
        print(result.summary_line())
"""

from repro.runner.cache import ResultCache, default_cache_dir
from repro.runner.executor import (
    SweepExecutor,
    build_system,
    check_workers,
    default_workers,
    execute_spec,
)
from repro.runner.scale import (
    FULL_SCALE,
    QUICK_SCALE,
    SCALES,
    SMOKE_SCALE,
    ExperimentScale,
    current_scale,
    get_scale,
)
from repro.runner.spec import (
    RunResult,
    RunSpec,
    build_workload,
    build_workload_stream,
    expand_grid,
    expand_policy_grid,
)

__all__ = [
    "ExperimentScale",
    "FULL_SCALE",
    "QUICK_SCALE",
    "ResultCache",
    "RunResult",
    "RunSpec",
    "SCALES",
    "SMOKE_SCALE",
    "SweepExecutor",
    "build_system",
    "build_workload",
    "build_workload_stream",
    "check_workers",
    "current_scale",
    "default_cache_dir",
    "default_workers",
    "execute_spec",
    "expand_grid",
    "expand_policy_grid",
    "get_scale",
]
