"""Suite orchestration: run the bench, write the report, gate CI.

:func:`run_bench` is the one entry point behind ``repro bench``:

1. run the core suite (all cases, or the ``only`` subset);
2. write ``BENCH_core.json`` into ``out_dir``;
3. if a baseline report is given, compare events/sec case-by-case and
   report regressions beyond the tolerance (the CI perf gate).

For a per-case profile, run one case under the standard profiler::

    python -m cProfile -o core-loop.pstats -m repro bench \
        --only core-loop --repeats 1 --warmup 0 --out /tmp/b
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.bench.cases import CORE_CASES, run_core_suite
from repro.bench.config import BenchConfig
from repro.bench.report import (
    Regression,
    build_report,
    compare_reports,
    load_report,
    write_report,
)

CORE_REPORT = "BENCH_core.json"


def _validate_case_names(only: set[str]) -> None:
    """Unknown or missing ``--only`` names fail fast, before anything runs.

    A typo'd case name must not silently shrink the suite (or turn the
    baseline gate into a vacuous pass).
    """
    unknown = only - set(CORE_CASES)
    if unknown:
        raise ValueError(
            f"unknown bench case(s): {', '.join(sorted(unknown))} "
            f"(known: {', '.join(sorted(CORE_CASES))})"
        )
    if not only:
        raise ValueError("nothing to run: --only names no case")


@dataclass
class BenchOutcome:
    """Everything one ``repro bench`` invocation produced."""

    report: dict[str, Any]
    path: Path
    regressions: list[Regression] = field(default_factory=list)

    @property
    def gate_passed(self) -> bool:
        return not self.regressions


def run_bench(
    config: BenchConfig,
    out_dir: Path | str = ".",
    only: set[str] | None = None,
    baseline: Path | str | None = None,
    max_regression: float = 0.25,
    echo: Callable[[str], None] | None = None,
) -> BenchOutcome:
    """Run the core suite, write its report, and apply the baseline gate.

    ``only`` restricts the suite to the named cases; the gate then
    compares only the cases that ran against ``baseline``.  The baseline
    is read before the report is written, so a run whose ``out_dir``
    holds the baseline itself still gates against the old numbers.
    """
    say = echo if echo is not None else (lambda _line: None)
    if only is not None:
        _validate_case_names(only)
    baseline_report = load_report(baseline) if baseline is not None else None

    say(f"bench: scale={config.scale} repeats={config.repeats} warmup={config.warmup}")
    measurements = run_core_suite(config, only=only)
    for measurement in measurements:
        say("  " + measurement.summary_line())
    report = build_report(config, measurements)
    outcome = BenchOutcome(report, write_report(report, Path(out_dir) / CORE_REPORT))
    say(f"wrote {outcome.path}")

    if baseline_report is not None:
        if only is not None:
            # A filtered run deliberately skipped cases — gate only what
            # actually ran; missing-case detection is for full runs.
            baseline_report = dict(baseline_report)
            baseline_report["cases"] = [
                case for case in baseline_report["cases"] if case["name"] in only
            ]
        outcome.regressions = compare_reports(
            report, baseline_report, max_regression=max_regression
        )
        if outcome.regressions:
            say(f"PERF GATE: {len(outcome.regressions)} regression(s) vs {baseline}:")
            for regression in outcome.regressions:
                say("  " + regression.describe())
        else:
            say(
                f"perf gate ok: no case regressed more than "
                f"{max_regression:.0%} vs {baseline}"
            )
    return outcome
