"""The hoisted decode kernel is bit-identical to the decode law.

The vectorized engine's per-step duration table is built from
``DecodeKernel`` coefficients, while the reference engine calls
``LatencyLaw.decode_seconds`` per iteration.  Both now evaluate the one
kernel, so the oracle here is the law spelled out term by term
(``_law_seconds``, the calibrated CPU/GPU formulas of
``repro.perf.laws``): both must match it exactly, not merely to within
rounding.
"""

from __future__ import annotations

import itertools

import pytest

from repro.hardware import (
    A100_80GB,
    V100_32GB,
    XEON_GEN3_32C,
    XEON_GEN4_32C,
    XEON_GEN6_96C,
    harvested_cpu,
)
from repro.models.catalog import CATALOG
from repro.perf import fractions
from repro.perf.database import PerfDatabase
from repro.perf.laws import (
    CPU_DECODE_CONST_MS,
    CPU_DECODE_PER_SEQ_MS,
    CPU_DECODE_PER_TOKEN_MS,
    CPU_DECODE_SCALE_MS,
    GIB,
    GPU_DECODE_CONST_MS,
    GPU_DECODE_PER_SEQ_MS,
    GPU_DECODE_WEIGHTS_MS_PER_GIB,
    GPU_HBM_BYTES_PER_MS,
    tp_speedup,
)

CPUS = (XEON_GEN4_32C, XEON_GEN3_32C, XEON_GEN6_96C, harvested_cpu(8))
GPUS = (A100_80GB, V100_32GB)
FRACTIONS = (1.0, 0.5, 1.0 / 3.0, 0.25, 0.125)
BATCHES = (1, 2, 3, 7, 16, 31, 64, 128)
# Engine contexts are batch means, (S0 + k·B)/B: integers and fractions.
CONTEXTS = (0.0, 1.0, 17.5, 255.0, 1023.75, 1000.0 / 3.0, 4096.0, 32767.125)


def _law_seconds(law, batch_size, avg_context_len) -> float:
    """The decode law written out term by term, independent of the kernel."""
    scale = law.model.compute_scale
    kv_scale = law.model.kv_scale
    if law.hardware.is_cpu:
        base_ms = (
            CPU_DECODE_CONST_MS
            + CPU_DECODE_SCALE_MS * scale
            + CPU_DECODE_PER_SEQ_MS * scale * batch_size
            + CPU_DECODE_PER_TOKEN_MS * kv_scale * batch_size * avg_context_len
        )
        slowdown = law.hardware.decode_factor * fractions.cpu_decode_slowdown(law.fraction)
        return base_ms * slowdown / 1000.0
    weights_gib = law.model.weight_bytes / GIB
    kv_ms_per_token = law.model.kv_bytes_per_token / GPU_HBM_BYTES_PER_MS
    base_ms = (
        GPU_DECODE_CONST_MS
        + GPU_DECODE_WEIGHTS_MS_PER_GIB * weights_gib
        + GPU_DECODE_PER_SEQ_MS * scale * batch_size
        + kv_ms_per_token * batch_size * avg_context_len
    )
    slowdown = law.hardware.decode_factor * fractions.gpu_decode_slowdown(law.fraction)
    return base_ms * slowdown / (1000.0 * tp_speedup(law.tp_degree))


def _supported_tp_degrees() -> list[int]:
    degrees = []
    for degree in range(1, 9):
        try:
            tp_speedup(degree)
        except ValueError:
            continue
        degrees.append(degree)
    return degrees


def _cases():
    for hardware in CPUS:
        yield hardware, 1
    for hardware, tp in itertools.product(GPUS, _supported_tp_degrees()):
        yield hardware, tp


@pytest.mark.parametrize(
    "hardware,tp_degree", list(_cases()), ids=lambda v: getattr(v, "name", str(v))
)
def test_kernel_seconds_equal_law_seconds_bit_for_bit(hardware, tp_degree):
    db = PerfDatabase()
    for model, fraction in itertools.product(CATALOG.values(), FRACTIONS):
        law = db.law(hardware, model, fraction, tp_degree)
        kernel = db.decode_kernel(hardware, model, fraction, tp_degree)
        assert kernel == law.decode_kernel()
        for batch, context in itertools.product(BATCHES, CONTEXTS):
            expected = _law_seconds(law, batch, context)
            assert law.decode_seconds(batch, context) == expected
            assert kernel.seconds(batch, context) == expected, (
                model.name,
                fraction,
                batch,
                context,
            )
