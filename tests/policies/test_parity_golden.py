"""Golden-report parity: policy bundles vs the pre-redesign subclasses.

The fixtures under ``tests/golden/`` were generated from the
inheritance-based system implementations *before* the policy redesign
(see ``tests/golden/generate.py``).  Each bundle-composed system must
reproduce its pre-redesign canonical report byte-for-byte on the
smoke-scale azure scenario — the redesign is a pure refactoring of the
extension API, not a behaviour change.
"""

import json

import pytest

from repro.registry import SYSTEMS
from repro.runner import RunSpec, execute_spec

from tests.golden.generate import (
    GOLDEN_AXES,
    GOLDEN_SHARED_AXES,
    GOLDEN_SHARED_SYSTEMS,
    GOLDEN_STREAMING_AXES,
    GOLDEN_STREAMING_SYSTEMS,
    golden_path,
    golden_shared_path,
    golden_streaming_path,
)


@pytest.mark.parametrize("system", SYSTEMS.names())
def test_bundle_reproduces_pre_redesign_report_bytes(system):
    fixture = golden_path(system)
    assert fixture.exists(), f"golden fixture missing for {system!r}; run tests/golden/generate.py"
    result = execute_spec(RunSpec(system=system, **GOLDEN_AXES))
    got = json.dumps(
        result.canonical_report_dict(), sort_keys=True, separators=(",", ":")
    ) + "\n"
    assert got == fixture.read_text(encoding="utf-8")


@pytest.mark.parametrize("system", GOLDEN_SHARED_SYSTEMS)
def test_kv_shared_mode_reproduces_golden_bytes(system):
    """The prefix-sharing block map is deterministic end to end: the
    shared-sysprompt smoke run with kv_sharing on pins its canonical
    report (including the kv_sharing counter block) byte-for-byte."""
    fixture = golden_shared_path(system)
    assert fixture.exists(), f"shared fixture missing for {system!r}; run tests/golden/generate.py"
    result = execute_spec(RunSpec(system=system, **GOLDEN_SHARED_AXES))
    got = json.dumps(
        result.canonical_report_dict(), sort_keys=True, separators=(",", ":")
    ) + "\n"
    assert got == fixture.read_text(encoding="utf-8")
    assert "kv_sharing" in result.canonical_report_dict()



@pytest.mark.parametrize("system", GOLDEN_STREAMING_SYSTEMS)
def test_streaming_mode_reproduces_golden_bytes(system):
    """The streaming accumulators (request aggregate, TTFT/memory/KV
    sketches) serialize byte-for-byte like the pinned payload."""
    fixture = golden_streaming_path(system)
    assert fixture.exists(), f"streaming fixture missing for {system!r}; run tests/golden/generate.py"
    result = execute_spec(RunSpec(system=system, **GOLDEN_STREAMING_AXES))
    got = json.dumps(
        result.canonical_report_dict(), sort_keys=True, separators=(",", ":")
    ) + "\n"
    assert got == fixture.read_text(encoding="utf-8")
    assert result.canonical_report_dict()["metrics_mode"] == "streaming"
