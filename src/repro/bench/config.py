"""Benchmark-harness configuration: one seam for scale/workers/protocol.

Every consumer of bench settings — the ``repro bench`` CLI, the pytest
benchmarks under ``benchmarks/``, CI — goes through :class:`BenchConfig`
instead of parsing environment variables itself.  Scale and worker
resolution delegate to :mod:`repro.runner` (``REPRO_SCALE`` /
``REPRO_WORKERS``), so there is exactly one interpretation of each
variable in the codebase; the measurement-protocol knobs
(``REPRO_BENCH_REPEATS`` / ``REPRO_BENCH_WARMUP``) live here, read by
the same :mod:`repro.runner.env` parser.  A non-integer fails there, an
out-of-range value fails :class:`BenchConfig`'s own validation, as the
matching command-line flag would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.runner import check_workers, current_scale, default_workers, get_scale
from repro.runner.env import env_int

#: measurement protocol defaults: warm once, keep the best of three
DEFAULT_REPEATS = 3
DEFAULT_WARMUP = 1


@dataclass(frozen=True)
class BenchConfig:
    """Settings of one benchmark invocation."""

    scale: str = "smoke"
    workers: int = 1
    repeats: int = DEFAULT_REPEATS
    warmup: int = DEFAULT_WARMUP

    def __post_init__(self) -> None:
        # Unknown scales fail fast, not mid-suite; known ones are canonical.
        object.__setattr__(self, "scale", get_scale(self.scale).label)
        check_workers(self.workers)
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        if self.warmup < 0:
            raise ValueError("warmup must be >= 0")

    @property
    def duration(self) -> float:
        """Trace window (seconds) of the configured scale."""
        return get_scale(self.scale).duration

    @classmethod
    def from_env(cls, **overrides) -> "BenchConfig":
        """Resolve from the environment, with explicit overrides on top.

        ``REPRO_SCALE`` / ``REPRO_WORKERS`` keep their runner semantics;
        ``None`` overrides mean "use the environment", and an explicit
        override means the variable is not read at all.
        """
        explicit = {key: value for key, value in overrides.items() if value is not None}
        readers: dict[str, Callable[[], Any]] = {
            "scale": lambda: current_scale().label,
            "workers": default_workers,
            "repeats": lambda: env_int("REPRO_BENCH_REPEATS", DEFAULT_REPEATS),
            "warmup": lambda: env_int("REPRO_BENCH_WARMUP", DEFAULT_WARMUP),
        }
        resolved = {key: read() for key, read in readers.items() if key not in explicit}
        return cls(**resolved, **explicit)
