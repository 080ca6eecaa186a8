"""Linear interpolation helpers used by the §VI-B quantification.

The paper finds the two (1-D) or four (2-D) closest sample points and
linearly interpolates; queries outside the sampled range extrapolate from
the nearest segment (the profiler samples up to the model's maximum context
and batch size, so extrapolation is rare and mild).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass


@dataclass
class Interp1D:
    """Piecewise-linear interpolation on sorted sample points."""

    xs: list[float]
    ys: list[float]

    def __post_init__(self) -> None:
        if len(self.xs) != len(self.ys):
            raise ValueError("xs and ys must have equal length")
        if len(self.xs) < 2:
            raise ValueError("need at least two sample points")
        if any(b <= a for a, b in zip(self.xs, self.xs[1:])):
            raise ValueError("xs must be strictly increasing")

    def __call__(self, x: float) -> float:
        xs, ys = self.xs, self.ys
        # Clamp the segment index so out-of-range queries extrapolate.
        idx = bisect.bisect_right(xs, x) - 1
        idx = max(0, min(idx, len(xs) - 2))
        x0, x1 = xs[idx], xs[idx + 1]
        y0, y1 = ys[idx], ys[idx + 1]
        t = (x - x0) / (x1 - x0)
        return y0 + t * (y1 - y0)


@dataclass
class Interp2D:
    """Bilinear interpolation on a rectangular (xs × ys) grid.

    ``values[i][j]`` corresponds to ``(xs[i], ys[j])``.
    """

    xs: list[float]
    ys: list[float]
    values: list[list[float]]

    def __post_init__(self) -> None:
        if len(self.values) != len(self.xs):
            raise ValueError("values must have one row per x sample")
        if any(len(row) != len(self.ys) for row in self.values):
            raise ValueError("every row must have one entry per y sample")
        # Validate both axes' monotonicity via throwaway interpolators.
        Interp1D(self.ys, [0.0] * len(self.ys))
        Interp1D(self.xs, [0.0] * len(self.xs))

    def __call__(self, x: float, y: float) -> float:
        xs = self.xs
        idx = bisect.bisect_right(xs, x) - 1
        idx = max(0, min(idx, len(xs) - 2))
        x0, x1 = xs[idx], xs[idx + 1]
        # Inlined row evaluation (both rows share the ys grid, so one
        # bisect serves both): the same expressions as Interp1D.__call__.
        ys = self.ys
        jdx = bisect.bisect_right(ys, y) - 1
        jdx = max(0, min(jdx, len(ys) - 2))
        y0, y1 = ys[jdx], ys[jdx + 1]
        u = (y - y0) / (y1 - y0)
        row0 = self.values[idx]
        row1 = self.values[idx + 1]
        w0 = row0[jdx]
        v0 = w0 + u * (row0[jdx + 1] - w0)
        w1 = row1[jdx]
        v1 = w1 + u * (row1[jdx + 1] - w1)
        t = (x - x0) / (x1 - x0)
        return v0 + t * (v1 - v0)
