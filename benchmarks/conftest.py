"""Benchmark harness configuration.

Every benchmark regenerates one table or figure of the paper and prints
the corresponding rows/series (absolute numbers come from the calibrated
simulator; the assertions check the paper's *shape*: who wins, by roughly
what factor, where crossovers fall).

Scale and worker settings come from the bench harness's single
configuration seam (:class:`repro.bench.BenchConfig`), which resolves
``REPRO_SCALE`` / ``REPRO_WORKERS`` through the runner exactly once:
``REPRO_SCALE=full`` replays the paper's 30-minute traces; the default
``quick`` replays rate-preserving 10-minute slices.  ``REPRO_WORKERS``
sets the worker-pool size for the session's ``sweep`` fixture.
"""

from __future__ import annotations

import pytest

from repro.bench import BenchConfig
from repro.runner import ResultCache, SweepExecutor


@pytest.fixture(scope="session")
def bench_config() -> BenchConfig:
    """The environment-resolved bench configuration for this session."""
    return BenchConfig.from_env()


def at_full_scale() -> bool:
    return BenchConfig.from_env().scale == "full"


def grid(full, quick):
    """Pick a parameter grid depending on the configured scale."""
    return full if at_full_scale() else quick


@pytest.fixture
def run_once(benchmark):
    """Run a heavy experiment exactly once under pytest-benchmark timing."""

    def _run(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return _run


@pytest.fixture(scope="session")
def sweep(tmp_path_factory, bench_config):
    """One SweepExecutor, with one result cache, for the whole session.

    Every figure check passes it to its experiment runner as
    ``executor=``, so ``REPRO_WORKERS`` parallelizes each grid and a run
    that several figures share (Table III's aggregated runs are Fig. 22's;
    Fig. 33's are Fig. 32's) is simulated once.
    """
    return SweepExecutor(
        workers=bench_config.workers,
        cache=ResultCache(tmp_path_factory.mktemp("repro-cache")),
    )
