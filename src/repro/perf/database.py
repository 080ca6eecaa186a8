"""Cached access to latency laws and quantified estimates.

One ``PerfDatabase`` is shared by a serving system.  It provides:

* *estimates* — interpolated §VI-B quantification used by scheduling
  decisions (headroom, shadow validation, feasibility checks);
* *executions* — ground-truth iteration durations (law × small seeded
  jitter) used by the simulator when an iteration actually runs.

Keeping the two separate reproduces the paper's setting where the scheduler
works from profiled estimates with bounded error, which is exactly what the
10 % shadow-validation overestimate (§VI-C) exists to absorb.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.hardware.specs import HardwareSpec
from repro.models.catalog import ModelSpec
from repro.perf.laws import DecodeKernel, LatencyLaw
from repro.perf.profiler import QuantifiedPerf, quantify
from repro.sim.rng import make_rng
from repro.slo import SloPolicy

_Key = tuple[str, str, float, int]

#: jitter draws per refill of the batched buffer (one draw per executed
#: iteration; a run consumes tens of thousands)
_JITTER_CHUNK = 1024


@dataclass
class PerfDatabase:
    """Latency estimates and executions for every (hardware, model) pair."""

    jitter_sigma: float = 0.02
    seed: int = 0
    _laws: dict[_Key, LatencyLaw] = field(default_factory=dict, repr=False)
    _quantified: dict[_Key, QuantifiedPerf] = field(default_factory=dict, repr=False)
    _rng: np.random.Generator = field(init=False, repr=False)
    _jitter_buf: list[float] = field(init=False, repr=False)
    _jitter_pos: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._rng = make_rng(self.seed, "perf-jitter")
        self._jitter_buf = []
        self._jitter_pos = 0

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def law(
        self,
        hardware: HardwareSpec,
        model: ModelSpec,
        fraction: float = 1.0,
        tp_degree: int = 1,
    ) -> LatencyLaw:
        key = (hardware.name, model.name, round(fraction, 6), tp_degree)
        if key not in self._laws:
            self._laws[key] = LatencyLaw(
                hardware=hardware, model=model, fraction=fraction, tp_degree=tp_degree
            )
        return self._laws[key]

    def decode_kernel(
        self,
        hardware: HardwareSpec,
        model: ModelSpec,
        fraction: float = 1.0,
        tp_degree: int = 1,
    ) -> DecodeKernel:
        """The cached law's decode coefficients (see :class:`DecodeKernel`).

        Engine backends that evaluate many decode iterations per
        Python-level step fetch the kernel once per batch and apply only
        its two multiply-adds per tick.
        """
        return self.law(hardware, model, fraction, tp_degree).decode_kernel()

    def quantified(
        self,
        hardware: HardwareSpec,
        model: ModelSpec,
        fraction: float = 1.0,
        tp_degree: int = 1,
    ) -> QuantifiedPerf:
        key = (hardware.name, model.name, round(fraction, 6), tp_degree)
        if key not in self._quantified:
            self._quantified[key] = quantify(self.law(hardware, model, fraction, tp_degree))
        return self._quantified[key]

    # ------------------------------------------------------------------
    # Scheduler-facing estimates (§VI-B interpolation)
    # ------------------------------------------------------------------
    def estimate_ttft(
        self,
        hardware: HardwareSpec,
        model: ModelSpec,
        input_len: int,
        fraction: float = 1.0,
        tp_degree: int = 1,
    ) -> float:
        return self.quantified(hardware, model, fraction, tp_degree).ttft_seconds(input_len)

    def estimate_tpot(
        self,
        hardware: HardwareSpec,
        model: ModelSpec,
        batch_size: int,
        avg_context_len: float,
        fraction: float = 1.0,
        tp_degree: int = 1,
    ) -> float:
        return self.quantified(hardware, model, fraction, tp_degree).tpot_seconds(
            batch_size, avg_context_len
        )

    # ------------------------------------------------------------------
    # Ground-truth executions (law × jitter)
    # ------------------------------------------------------------------
    def _jitter(self) -> float:
        # Draws are batched: ``Generator.normal(size=n)`` consumes the
        # bit stream exactly like n scalar draws (pinned by
        # tests/sim/test_rng_batching.py), so refilling a chunk at a time
        # is byte-identical to the per-call draw it replaced while
        # avoiding one numpy Generator call per simulated iteration.
        if self.jitter_sigma <= 0:
            return 1.0
        pos = self._jitter_pos
        buf = self._jitter_buf
        if pos >= len(buf):
            buf = self._jitter_buf = self._jitter_chunk()
            pos = 0
        self._jitter_pos = pos + 1
        return buf[pos]

    def _jitter_chunk(self) -> list[float]:
        """The next ``_JITTER_CHUNK`` multiplicative jitter draws."""
        return np.exp(self._rng.normal(0.0, self.jitter_sigma, size=_JITTER_CHUNK)).tolist()

    def jitter_peek(self, count: int) -> list[float]:
        """The next ``count`` jitter values *without* consuming them.

        Speculative consumers (the vectorized engine's chain
        fast-forward) compute how many draws they actually need from the
        values themselves; they peek first and :meth:`jitter_commit` the
        consumed prefix.  Refills triggered by a peek are
        stream-identical: chunks are always generated whole, so rebasing
        the buffer to ``buf[pos:] + chunk`` preserves the draw order
        every scalar :meth:`_jitter` call would see.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if self.jitter_sigma <= 0:
            return [1.0] * count
        pos = self._jitter_pos
        buf = self._jitter_buf
        while len(buf) - pos < count:
            buf = buf[pos:] + self._jitter_chunk()
            pos = 0
            self._jitter_buf = buf
            self._jitter_pos = 0
        return buf[pos : pos + count]

    def jitter_commit(self, count: int) -> None:
        """Consume ``count`` draws previously returned by :meth:`jitter_peek`."""
        if self.jitter_sigma <= 0:
            return
        pos = self._jitter_pos + count
        if count < 0 or pos > len(self._jitter_buf):
            raise ValueError(f"cannot commit {count} draws (peek first)")
        self._jitter_pos = pos

    def execute_prefill(
        self,
        hardware: HardwareSpec,
        model: ModelSpec,
        input_len: int,
        fraction: float = 1.0,
        tp_degree: int = 1,
    ) -> float:
        law = self.law(hardware, model, fraction, tp_degree)
        return law.prefill_seconds(input_len) * self._jitter()

    def execute_decode(
        self,
        hardware: HardwareSpec,
        model: ModelSpec,
        batch_size: int,
        avg_context_len: float,
        fraction: float = 1.0,
        tp_degree: int = 1,
    ) -> float:
        law = self.law(hardware, model, fraction, tp_degree)
        return law.decode_seconds(batch_size, avg_context_len) * self._jitter()

    # ------------------------------------------------------------------
    # CPU feasibility (§V: fall back to GPU when a CPU cannot meet the SLO)
    # ------------------------------------------------------------------
    def cpu_can_serve(
        self,
        hardware: HardwareSpec,
        model: ModelSpec,
        input_len: int,
        slo: SloPolicy,
        margin: float = 1.1,
        fraction: float = 1.0,
    ) -> bool:
        """Whether a CPU node could serve this request within its SLOs.

        Non-AMX CPUs are excluded outright (§V).  Otherwise the profiled
        prefill must fit the TTFT SLO and single-request decode must fit the
        TPOT SLO, both with the scheduler's safety ``margin``.
        """
        if not hardware.is_cpu or not hardware.matrix_accelerated:
            return False
        perf = self.quantified(hardware, model, fraction)
        if perf.ttft_seconds(input_len) * margin > slo.ttft(input_len):
            return False
        context = min(input_len + 256, model.max_context)
        return perf.tpot_seconds(1, context) * margin <= slo.tpot
