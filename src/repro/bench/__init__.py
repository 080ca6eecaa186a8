"""Reproducible benchmarking: timers, protocol, the core suite, and the perf gate.

The measurement loop this package implements::

    config  = BenchConfig.from_env(scale="smoke")
    outcome = run_bench(config, out_dir=".", baseline="BENCH_core.json")
    assert outcome.gate_passed

``repro bench`` (see :mod:`repro.cli`) is the command-line face of the
same call: it runs the one core suite and writes one report,
``BENCH_core.json``.  CI runs it with ``--baseline`` against the
committed ``BENCH_core.json`` so hot-path regressions fail the build.
"""

from repro.bench.cases import CORE_CASES, run_core_suite
from repro.bench.config import BenchConfig
from repro.bench.report import (
    Regression,
    build_report,
    compare_reports,
    current_commit,
    load_report,
    write_report,
)
from repro.bench.suite import CORE_REPORT, BenchOutcome, run_bench
from repro.bench.timers import Measurement, Timer, measure

__all__ = [
    "BenchConfig",
    "BenchOutcome",
    "CORE_CASES",
    "CORE_REPORT",
    "Measurement",
    "Regression",
    "Timer",
    "build_report",
    "compare_reports",
    "current_commit",
    "load_report",
    "measure",
    "run_bench",
    "run_core_suite",
    "write_report",
]
