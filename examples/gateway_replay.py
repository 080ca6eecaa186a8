#!/usr/bin/env python3
"""Shadow-replay a recorded trace through the serving gateway.

Starts the gateway (in-process by default, or a real ``repro serve``
subprocess with ``--subprocess``), replays a scenario's own trace over
HTTP request by request, prints a few live verdicts, then asserts the
gateway's final RunReport is canonically identical to a batch
``execute_spec`` run of the same trace — the live path and the batch
path are the same simulator.

Run:  python examples/gateway_replay.py
      python examples/gateway_replay.py --subprocess --limit 200
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
import threading
import time

from repro.gateway import GatewayClient, GatewayServer, SimBridge
from repro.runner import RunSpec, build_workload, execute_spec

PORT_LINE = re.compile(r"repro-gateway listening on http://([\d.]+):(\d+)")


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--system", default="slinfer")
    parser.add_argument("--scenario", default="azure")
    parser.add_argument("--model", default="llama-2-7b")
    parser.add_argument("--models", type=int, default=4)
    parser.add_argument("--cluster", default="paper")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale", default="smoke", choices=["full", "quick", "smoke"])
    parser.add_argument("--duration", type=float, default=None)
    parser.add_argument("--engine", default=None, help="default: the process default engine")
    parser.add_argument("--kv-sharing", dest="kv_sharing", default="off")
    parser.add_argument("--port", type=int, default=0, help="0 picks a free port")
    parser.add_argument(
        "--limit", type=int, default=None, help="replay only the first N requests"
    )
    parser.add_argument(
        "--subprocess", action="store_true",
        help="spawn a real 'repro serve' process instead of an in-process server",
    )
    return parser.parse_args()


def start_subprocess(spec: RunSpec, port: int) -> tuple[subprocess.Popen, int]:
    """Spawn ``repro serve`` and parse the bound port off its stdout."""
    command = [
        sys.executable, "-m", "repro", "serve",
        "--system", spec.system,
        "--scenario", spec.scenario,
        "--model", spec.model,
        "--models", str(spec.n_models),
        "--cluster", spec.cluster,
        "--seed", str(spec.seed),
        "--scale", spec.scale,
        "--kv-sharing", spec.kv_sharing,
        "--port", str(port),
    ]
    if spec.duration is not None:
        command += ["--duration", str(spec.duration)]
    if spec.engine is not None:
        command += ["--engine", spec.engine]
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            raise SystemExit(f"server exited early: {' '.join(command)}")
        match = PORT_LINE.search(line)
        if match:
            return proc, int(match.group(2))
    proc.kill()
    raise SystemExit("server never announced its port")


def start_in_process(spec: RunSpec, port: int) -> tuple[GatewayServer, threading.Thread]:
    bridge = SimBridge.from_spec(spec)
    server = GatewayServer(bridge, port=port)
    thread = threading.Thread(target=server.run, name="gateway", daemon=True)
    thread.start()
    if not server.ready.wait(timeout=60):
        raise SystemExit("in-process server never became ready")
    return server, thread


def canonical(payload) -> str:
    """JSON-normalized form (HTTP turns tuples into lists)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def main() -> int:
    args = parse_args()
    spec = RunSpec(
        system=args.system,
        scenario=args.scenario,
        model=args.model,
        n_models=args.models,
        cluster=args.cluster,
        seed=args.seed,
        scale=args.scale,
        duration=args.duration,
        engine=args.engine,
        kv_sharing=args.kv_sharing,
    )
    trace = build_workload(spec)
    requests = trace.requests[: args.limit] if args.limit else trace.requests
    print(f"replaying {len(requests)}/{trace.total_requests} requests: {spec.label()}")

    proc = server = None
    if args.subprocess:
        proc, port = start_subprocess(spec, args.port)
    else:
        server, _thread = start_in_process(spec, args.port)
        port = server.port

    client = GatewayClient(port=port)
    try:
        print("health:", client.health())
        verdicts = []
        for request in requests:
            verdict = client.submit_spec(request)
            verdicts.append(verdict)
            if len(verdicts) <= 3:
                print(
                    f"  req {verdict['index']}: {verdict['deployment']} "
                    f"@{verdict['arrival']:.2f}s -> {verdict['verdict']}"
                    + (
                        f" (predicted TTFT {verdict['predicted_ttft']:.2f}s)"
                        if verdict["predicted_ttft"] is not None
                        else ""
                    )
                )
        final = client.report()
        outcomes = final["outcomes"]
        print(f"outcomes: {outcomes}")
        if outcomes["completed"] + outcomes["dropped"] != len(requests):
            print("error: not every replayed request completed or dropped")
            return 1
        client.shutdown()
    finally:
        client.close()
        if proc is not None:
            proc.wait(timeout=60)

    # The acceptance check: a live shadow replay of the full trace must
    # report exactly what the batch runner reports for the same spec.
    if args.limit:
        print("(--limit set: skipping the full-trace batch comparison)")
        return 0
    batch = execute_spec(spec).report.to_dict(include_volatile=False)
    if canonical(final["report"]) != canonical(batch):
        print("error: gateway report diverged from the batch run")
        return 1
    print("gateway report == batch execute_spec report (canonical)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
