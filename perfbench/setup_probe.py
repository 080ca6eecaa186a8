"""One set-up sample in a fresh interpreter: imports, trace synthesis, system build.

Run by ``run.py`` as ``python3 -m perfbench.setup_probe WORKLOAD SEED``
from the repository root with ``src`` on ``PYTHONPATH``; prints one JSON
object with the three phases in seconds.  Federated specs build one
system per shard, as a fleet run does before its first event.
"""

from __future__ import annotations

import json
import sys
import time


def main(workload_name: str, seed: int) -> dict:
    start = time.perf_counter()
    from perfbench import workloads
    from repro.federation.spec import resolve_federation
    from repro.runner import build_system, build_workload

    imported = time.perf_counter()
    specs = workloads.WORKLOADS[workload_name].specs(seed)
    traces = [build_workload(spec) for spec in specs]
    synthesized = time.perf_counter()
    systems = []
    for spec in specs:
        shards = resolve_federation(spec.federation).shards if spec.federation else 1
        systems.extend(build_system(spec) for _ in range(shards))
    built = time.perf_counter()
    return {
        "import_s": imported - start,
        "synth_s": synthesized - imported,
        "build_s": built - synthesized,
    }


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1], int(sys.argv[2]))))
