"""The environment block recorded with every result.

``effective_cores`` is measured, not read: two CPU-bound child processes
run one after the other and then at the same time, and the ratio of the
two spans says how many cores the benchmark really gets.  A box whose
``nproc`` says 2 may still give a second process no speedup at all.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

#: environment variables that select what the simulator runs; the
#: benchmark clears them so the caller's shell cannot change the job
CLEARED_PREFIXES = ("REPRO_BENCH_",)
CLEARED_NAMES = ("REPRO_ENGINE", "REPRO_AUDIT", "REPRO_SCALE", "REPRO_WORKERS")

_SPIN = (
    "import time\n"
    "start = time.time()\n"
    "x = 0\n"
    "for i in range({n}):\n"
    "    x += i * i\n"
    "print(start, time.time())\n"
)

#: loop length of one effective-cores probe (about 0.2 s of CPU here)
SPIN_ITERATIONS = 3_000_000


def clear_repro_env(environ: dict) -> list[str]:
    """Remove the simulator-selecting variables from ``environ``; return their names."""
    names = [
        name
        for name in environ
        if name in CLEARED_NAMES or name.startswith(CLEARED_PREFIXES)
    ]
    for name in names:
        del environ[name]
    return sorted(names)


def _spin(count: int) -> list[subprocess.Popen]:
    code = _SPIN.format(n=SPIN_ITERATIONS)
    return [
        subprocess.Popen(
            [sys.executable, "-c", code], stdout=subprocess.PIPE, text=True
        )
        for _ in range(count)
    ]


def _spans(processes: list[subprocess.Popen]) -> list[tuple[float, float]]:
    spans = []
    for process in processes:
        out, _ = process.communicate(timeout=60)
        start, end = out.split()
        spans.append((float(start), float(end)))
    return spans


def effective_cores() -> float:
    """Sequential CPU spans over the concurrent pair's span (1.0 = no parallelism)."""
    sequential = _spans(_spin(1)) + _spans(_spin(1))
    together = _spans(_spin(2))
    serial = sum(end - start for start, end in sequential)
    overlap = max(end for _, end in together) - min(start for start, _ in together)
    return serial / overlap if overlap > 0 else 1.0


def _commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def collect(root: Path, cleared: list[str]) -> dict:
    """The environment block: host, interpreter, code version and engine."""
    import numpy

    from repro.sim.engine import resolve_engine

    return {
        "nproc": os.cpu_count(),
        "affinity_cores": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "effective_cores": effective_cores(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": _commit(root),
        "engine": resolve_engine(None).name,
        "cleared_env": cleared,
    }
