"""Regenerate the golden canonical reports used by the policy-parity tests.

Run from the repository root::

    PYTHONPATH=src python tests/golden/generate.py

The fixtures pin the behaviour of the serving systems on a smoke-scale
azure scenario.  They were first generated from the pre-policy-redesign
subclass implementations, so the parity tests prove the policy bundles
reproduce the original systems byte-for-byte.  Regenerate them only for
an intentional, reviewed behaviour change.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.registry import SYSTEMS
from repro.runner import RunSpec, execute_spec

GOLDEN_DIR = Path(__file__).resolve().parent

# One smoke-scale spec per system: small cluster, few models, fixed seed.
GOLDEN_AXES = dict(
    scenario="azure",
    model="llama-2-7b",
    n_models=6,
    cluster="small",
    seed=3,
    scale="smoke",
)


# Shared-mode fixture: the same smoke axes on the canonical prefix
# workload with the block map on.  Pinned for slinfer only — the sharing
# machinery lives in the slinfer bundle's admission/dispatch path.
GOLDEN_SHARED_AXES = dict(
    scenario="shared-sysprompt",
    model="llama-2-7b",
    n_models=6,
    cluster="small",
    seed=3,
    scale="smoke",
    kv_sharing="on",
)

GOLDEN_SHARED_SYSTEMS = ("slinfer",)

# Streaming-mode fixture: the standard smoke axes with the bounded
# metrics accumulators (request aggregate + quantile sketches), which
# pins the streaming payload byte-for-byte.
GOLDEN_STREAMING_AXES = dict(GOLDEN_AXES, metrics="streaming")

GOLDEN_STREAMING_SYSTEMS = ("slinfer",)


def golden_path(system: str) -> Path:
    safe = system.replace("+", "_plus_").replace("-", "_")
    return GOLDEN_DIR / f"{safe}.json"


def golden_shared_path(system: str) -> Path:
    safe = system.replace("+", "_plus_").replace("-", "_")
    return GOLDEN_DIR / f"{safe}_kv_shared.json"


def golden_streaming_path(system: str) -> Path:
    safe = system.replace("+", "_plus_").replace("-", "_")
    return GOLDEN_DIR / f"{safe}_streaming.json"


def _write(path: Path, result) -> None:
    payload = result.canonical_report_dict()
    path.write_text(
        json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n",
        encoding="utf-8",
    )


def main() -> None:
    for system in SYSTEMS.names():
        spec = RunSpec(system=system, **GOLDEN_AXES)
        result = execute_spec(spec)
        path = golden_path(system)
        _write(path, result)
        print(f"{system:12s} -> {path.name}  ({result.report.summary_line().strip()})")
    for system in GOLDEN_SHARED_SYSTEMS:
        spec = RunSpec(system=system, **GOLDEN_SHARED_AXES)
        result = execute_spec(spec)
        path = golden_shared_path(system)
        _write(path, result)
        print(
            f"{system:12s} -> {path.name}  "
            f"(hit_rate={result.report.prefix_hit_rate:.3f})"
        )
    for system in GOLDEN_STREAMING_SYSTEMS:
        spec = RunSpec(system=system, **GOLDEN_STREAMING_AXES)
        result = execute_spec(spec)
        path = golden_streaming_path(system)
        _write(path, result)
        print(f"{system:12s} -> {path.name}  ({result.report.summary_line().strip()})")


if __name__ == "__main__":
    main()
