"""Analytic latency laws — the simulator's stand-in for real hardware.

Calibration notes (Llama-2-7B on the reference hardware):

CPU prefill (32-core Xeon 6462C, AMX, Table I):
    ``TTFT(L) = 10 + 0.517·L + 3.76e-5·L²`` ms
    fits 149 / 567 / 2748 ms at L = 256 / 1024 / 4096.
    The linear term is FFN compute (∝ model parameters); the quadratic term
    is attention.  Both scale with the model's ``compute_scale``.

CPU decode (Table I):
    ``TPOT(B, L) = (15 + 52·s) + 1.16·s·B + 0.0028·k·B·L`` ms
    where ``s`` is compute scale and ``k`` KV-traffic scale.
    Fits 71 / 196 / 80 / 459 ms for (1bs,1K) / (32bs,1K) / (1bs,4K) /
    (32bs,4K), and independently reproduces Table II's CPU concurrency
    limits (27 @ 7B-2K, 15 @ 7B-4K, ~6 @ 13B-4K) and §X's "decode of
    Llama-3.1-8B takes at least 74 ms".

GPU decode (A100-80GB):
    weights-read floor at ~2 TB/s HBM + per-sequence FFN cost + KV traffic:
    ``TPOT(B, L) = 4 + 0.5·W_GiB + 0.15·s·B + (kv_bytes/2e9)·B·L`` ms.

GPU prefill: ``TTFT(L) = (5 + 0.035·L + 2e-6·L²)·s`` ms — comfortably under
the Fig. 6 SLO curve for 7B/13B/34B, as measured.

Tensor parallelism (§IX-E, 34B at TP=2) divides compute by an efficiency
factor of 1.7 and splits weights across the participating GPUs.

KV-cache scaling cost (Fig. 17): allocation of *new* capacity dominates
(≈50 ms/GiB) plus a copy term (≈17.5 ms/GiB of live cache), fitting the
measured 0.3 s (32→16 GB) and 1.9 s (32→64 GB).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.hardware.specs import HardwareKind, HardwareSpec
from repro.models.catalog import ModelSpec
from repro.perf import fractions

GIB = 1024**3

# --- CPU calibration (reference: 32-core Xeon 6462C, Llama-2-7B) -----------
CPU_PREFILL_CONST_MS = 10.0
CPU_PREFILL_LINEAR_MS = 0.517
CPU_PREFILL_QUAD_MS = 3.76e-5
CPU_DECODE_CONST_MS = 15.0
CPU_DECODE_SCALE_MS = 52.0
CPU_DECODE_PER_SEQ_MS = 1.16
CPU_DECODE_PER_TOKEN_MS = 0.0028  # per (batch · context-token), 7B KV size

# --- GPU calibration (reference: A100-80GB, Llama-2-7B) ---------------------
GPU_PREFILL_CONST_MS = 5.0
GPU_PREFILL_LINEAR_MS = 0.035
GPU_PREFILL_QUAD_MS = 2.0e-6
GPU_DECODE_CONST_MS = 4.0
GPU_DECODE_WEIGHTS_MS_PER_GIB = 0.5  # ≈ 2 TB/s HBM read of the weights
GPU_DECODE_PER_SEQ_MS = 0.15
GPU_HBM_BYTES_PER_MS = 2.0e9

# --- KV-cache scaling (Fig. 17) ---------------------------------------------
KV_SCALE_CONST_S = 0.02
KV_SCALE_ALLOC_S_PER_GIB = 0.05
KV_SCALE_COPY_S_PER_GIB = 0.0175

# --- Tensor parallelism ------------------------------------------------------
_TP_EFFICIENCY = {1: 1.0, 2: 1.7, 4: 2.9}


def tp_speedup(tp_degree: int) -> float:
    try:
        return _TP_EFFICIENCY[tp_degree]
    except KeyError:
        raise ValueError(f"unsupported tensor-parallel degree {tp_degree}") from None


@dataclass(frozen=True)
class DecodeKernel:
    """The decode law reduced to coefficients of ``(batch_size, avg_context)``.

    The one spelling of the decode law: :meth:`LatencyLaw.decode_seconds`
    evaluates ``seconds``, and an engine backend hoists the
    per-(hardware, model) constants out of its per-iteration loop and
    evaluates only the two multiply-adds per tick.
    ``tests/perf/test_decode_kernel.py`` pins it bit-for-bit against the
    law written out term by term.
    """

    const_ms: float  # batch-independent part of base_ms
    per_seq_ms: float  # coefficient of batch_size
    per_token_ms: float  # coefficient of batch_size * avg_context_len
    slowdown: float
    denom: float

    def seconds(self, batch_size: int, avg_context_len: float) -> float:
        base_ms = (self.const_ms + self.per_seq_ms * batch_size) + (
            self.per_token_ms * batch_size
        ) * avg_context_len
        return base_ms * self.slowdown / self.denom


@dataclass(frozen=True)
class LatencyLaw:
    """Ground-truth iteration latency for (hardware, model, fraction, TP)."""

    hardware: HardwareSpec
    model: ModelSpec
    fraction: float = 1.0
    tp_degree: int = 1

    def __post_init__(self) -> None:
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {self.fraction}")
        if self.tp_degree > 1 and self.hardware.kind is not HardwareKind.GPU:
            raise ValueError("tensor parallelism is only modelled on GPUs")
        tp_speedup(self.tp_degree)  # validate degree

    # ------------------------------------------------------------------
    # Prefill
    # ------------------------------------------------------------------
    def prefill_seconds(self, input_len: int) -> float:
        """Time of the prefill iteration for one request of ``input_len``."""
        if input_len <= 0:
            raise ValueError(f"input_len must be positive, got {input_len}")
        scale = self.model.compute_scale
        if self.hardware.is_cpu:
            base_ms = (
                CPU_PREFILL_CONST_MS
                + CPU_PREFILL_LINEAR_MS * input_len
                + CPU_PREFILL_QUAD_MS * input_len**2
            ) * scale
            slowdown = self.hardware.prefill_factor * fractions.cpu_prefill_slowdown(self.fraction)
            return base_ms * slowdown / 1000.0
        base_ms = (
            GPU_PREFILL_CONST_MS
            + GPU_PREFILL_LINEAR_MS * input_len
            + GPU_PREFILL_QUAD_MS * input_len**2
        ) * scale
        slowdown = self.hardware.prefill_factor * fractions.gpu_prefill_slowdown(self.fraction)
        return base_ms * slowdown / (1000.0 * tp_speedup(self.tp_degree))

    # ------------------------------------------------------------------
    # Decode
    # ------------------------------------------------------------------
    def decode_seconds(self, batch_size: int, avg_context_len: float) -> float:
        """Time of one decode iteration for a batch.

        ``avg_context_len`` is the mean number of tokens (input + generated
        so far) per request in the batch — the two quantification dimensions
        of §VI-B.
        """
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        if avg_context_len < 0:
            raise ValueError("avg_context_len must be non-negative")
        return self._decode_kernel.seconds(batch_size, avg_context_len)

    def decode_kernel(self) -> DecodeKernel:
        """The decode law's coefficients, hoisted for batched evaluation."""
        return self._decode_kernel

    @cached_property
    def _decode_kernel(self) -> DecodeKernel:
        # CPU: (15 + 52·s) + 1.16·s·B + 0.0028·k·B·L ms; GPU: the weights-
        # read floor + per-sequence FFN + KV traffic (module docstring).
        scale = self.model.compute_scale
        if self.hardware.is_cpu:
            return DecodeKernel(
                const_ms=CPU_DECODE_CONST_MS + CPU_DECODE_SCALE_MS * scale,
                per_seq_ms=CPU_DECODE_PER_SEQ_MS * scale,
                per_token_ms=CPU_DECODE_PER_TOKEN_MS * self.model.kv_scale,
                slowdown=self.hardware.decode_factor
                * fractions.cpu_decode_slowdown(self.fraction),
                denom=1000.0,
            )
        return DecodeKernel(
            const_ms=GPU_DECODE_CONST_MS
            + GPU_DECODE_WEIGHTS_MS_PER_GIB * (self.model.weight_bytes / GIB),
            per_seq_ms=GPU_DECODE_PER_SEQ_MS * scale,
            per_token_ms=self.model.kv_bytes_per_token / GPU_HBM_BYTES_PER_MS,
            slowdown=self.hardware.decode_factor
            * fractions.gpu_decode_slowdown(self.fraction),
            denom=1000.0 * tp_speedup(self.tp_degree),
        )


def kv_scaling_seconds(old_bytes: float, new_bytes: float, used_bytes: float) -> float:
    """Duration of a KV-cache resize (Fig. 16/17 mechanism).

    New blocks are allocated (cost ∝ capacity growth), then live cache pages
    are copied over (cost ∝ min(used, new)).  Fits Fig. 17: resizing a
    half-full 32 GB cache to 16 GB takes ≈0.3 s, to 64 GB ≈1.9 s.
    """
    if min(old_bytes, new_bytes, used_bytes) < 0:
        raise ValueError("sizes must be non-negative")
    grown_gib = max(new_bytes - old_bytes, 0.0) / GIB
    copied_gib = min(used_bytes, new_bytes) / GIB
    return (
        KV_SCALE_CONST_S
        + KV_SCALE_ALLOC_S_PER_GIB * grown_gib
        + KV_SCALE_COPY_S_PER_GIB * copied_gib
    )
