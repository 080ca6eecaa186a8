"""The hoisted decode kernel is bit-identical to the decode law.

The vectorized engine's per-step duration table is built from
``DecodeKernel`` coefficients, while the reference engine calls
``LatencyLaw.decode_seconds`` per iteration; engine parity rests on the
two agreeing exactly, not merely to within rounding.
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
from repro.perf.database import PerfDatabase
from repro.perf.laws import tp_speedup

CPUS = (XEON_GEN4_32C, XEON_GEN3_32C, XEON_GEN6_96C, harvested_cpu(8))
GPUS = (A100_80GB, V100_32GB)
FRACTIONS = (1.0, 0.5, 1.0 / 3.0, 0.25, 0.125)
BATCHES = (1, 2, 3, 7, 16, 31, 64, 128)
# Engine contexts are batch means, (S0 + k·B)/B: integers and fractions.
CONTEXTS = (0.0, 1.0, 17.5, 255.0, 1023.75, 1000.0 / 3.0, 4096.0, 32767.125)


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
            expected = law.decode_seconds(batch, context)
            assert kernel.seconds(batch, context) == expected, (
                model.name,
                fraction,
                batch,
                context,
            )
