"""Benchmark-report JSON: schema, writer, and baseline comparison.

A report (``BENCH_core.json``) is the repo's machine-readable
performance trajectory: versioned, annotated with the commit and
environment it was measured on, and diffable against a committed
baseline by :func:`compare_reports` — which is what the CI perf gate
runs.

Schema (version 1)::

    {
      "schema_version": 1,
      "suite": "core",
      "commit": "<git short hash or 'unknown'>",
      "scale": "smoke",
      "generated_at": "<UTC ISO-8601>",
      "environment": {"python": ..., "numpy": ..., "platform": ...,
                      "engine": "<default engine backend name>"},
      "config": {"repeats": 3, "warmup": 1, "workers": 1},
      "cases": [
        {"name": ..., "events": ..., "wall_seconds": ...,
         "wall_seconds_mean": ..., "wall_seconds_all": [...],
         "events_per_sec": ..., "repeats": ..., "warmup": ..., "meta": {...}}
      ]
    }
"""

from __future__ import annotations

import json
import platform
import subprocess
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from repro.bench.config import BenchConfig
from repro.bench.timers import Measurement
from repro.sim.engine import resolve_engine

SCHEMA_VERSION = 1


def current_commit() -> str:
    """Short hash of HEAD, or ``"unknown"`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def build_report(
    config: BenchConfig,
    measurements: Sequence[Measurement],
    commit: str | None = None,
) -> dict[str, Any]:
    return {
        "schema_version": SCHEMA_VERSION,
        "suite": "core",
        "commit": commit if commit is not None else current_commit(),
        "scale": config.scale,
        "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": sys.platform,
            # Cases that do not pin a backend run this one; reports from
            # before and after a default flip must be told apart.
            "engine": resolve_engine(None).name,
        },
        "config": {
            "repeats": config.repeats,
            "warmup": config.warmup,
            "workers": config.workers,
        },
        "cases": [measurement.to_dict() for measurement in measurements],
    }


def write_report(report: dict[str, Any], path: Path | str) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2, sort_keys=False) + "\n", encoding="utf-8")
    return path


def load_report(path: Path | str) -> dict[str, Any]:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: unsupported bench schema version {version!r} "
            f"(this build reads {SCHEMA_VERSION})"
        )
    return payload


@dataclass(frozen=True)
class Regression:
    """One case whose throughput fell past the gate's tolerance."""

    name: str
    baseline_events_per_sec: float
    current_events_per_sec: float  # 0.0 when the case vanished

    @property
    def ratio(self) -> float:
        if self.baseline_events_per_sec <= 0:
            return float("inf")
        return self.current_events_per_sec / self.baseline_events_per_sec

    def describe(self) -> str:
        if self.current_events_per_sec <= 0:
            return f"{self.name}: case missing from current report"
        return (
            f"{self.name}: {self.current_events_per_sec:,.0f} ev/s vs baseline "
            f"{self.baseline_events_per_sec:,.0f} ev/s ({self.ratio:.2f}x)"
        )


def compare_reports(
    current: dict[str, Any],
    baseline: dict[str, Any],
    max_regression: float = 0.25,
) -> list[Regression]:
    """Cases regressing more than ``max_regression`` vs the baseline.

    Comparison is by case name on events/sec; a baseline case missing
    from the current report counts as a regression (silent coverage loss
    must fail the gate, not slip through), while cases new in the
    current report are ignored — they have no baseline yet.

    Reports measured at different scales are not comparable (case sizes
    differ), so a scale mismatch is an error rather than a silent
    apples-to-oranges verdict.
    """
    if not 0.0 <= max_regression < 1.0:
        raise ValueError("max_regression must be in [0, 1)")
    current_scale = current.get("scale")
    baseline_scale = baseline.get("scale")
    if current_scale != baseline_scale:
        raise ValueError(
            f"scale mismatch: current report is {current_scale!r} but the "
            f"baseline is {baseline_scale!r} — rerun with the baseline's scale"
        )
    current_rates = {
        case["name"]: float(case["events_per_sec"]) for case in current.get("cases", [])
    }
    regressions: list[Regression] = []
    for case in baseline.get("cases", []):
        name = case["name"]
        baseline_rate = float(case["events_per_sec"])
        current_rate = current_rates.get(name, 0.0)
        if current_rate < baseline_rate * (1.0 - max_regression):
            regressions.append(Regression(name, baseline_rate, current_rate))
    return regressions
