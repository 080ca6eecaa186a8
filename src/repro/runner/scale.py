"""Trace-scale control shared by every entry point.

The paper replays 30-minute trace segments; development and CI replay
rate-preserving slices.  The request *rate* (requests per model per
minute) is preserved at every scale; only the observation window
shrinks, so SLO rates and resource usage stay comparable while runs
finish ~duration-proportionally faster.

Scales are selected by name (``full`` / ``quick`` / ``smoke``), either
explicitly in a :class:`~repro.runner.spec.RunSpec` or globally through
the ``REPRO_SCALE`` environment variable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.runner.env import env_setting
from repro.workloads.azure_serverless import REQUESTS_PER_MODEL_30MIN


@dataclass(frozen=True)
class ExperimentScale:
    """Trace scale: the paper's 30 minutes, or a faster slice."""

    duration: float
    label: str

    @property
    def requests_per_model(self) -> float:
        return REQUESTS_PER_MODEL_30MIN * self.duration / 1800.0

    def spec_axes(self) -> dict[str, Any]:
        """``RunSpec`` axes replaying this window: its label and its duration."""
        return {"scale": self.label, "duration": self.duration}


FULL_SCALE = ExperimentScale(duration=1800.0, label="full")
QUICK_SCALE = ExperimentScale(duration=600.0, label="quick")
SMOKE_SCALE = ExperimentScale(duration=180.0, label="smoke")

SCALES: dict[str, ExperimentScale] = {
    scale.label: scale for scale in (FULL_SCALE, QUICK_SCALE, SMOKE_SCALE)
}


def get_scale(name: str) -> ExperimentScale:
    """Look up a scale by label.

    Unknown labels are an error: a silently-wrong scale would run (and
    cache) the wrong experiment.
    """
    try:
        return SCALES[name.lower()]
    except KeyError:
        known = ", ".join(sorted(SCALES))
        raise KeyError(f"unknown scale {name!r} (known: {known})") from None


def current_scale() -> ExperimentScale:
    """Scale selected via the ``REPRO_SCALE`` environment variable.

    Unset or empty means ``quick``; an unknown label is an error naming
    the variable, as :func:`get_scale` is for an explicit one.
    """
    known = ", ".join(sorted(SCALES))
    return env_setting("REPRO_SCALE", QUICK_SCALE, get_scale, f"a scale (known: {known})")
