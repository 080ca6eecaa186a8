"""Run one benchmark workload for a fixed time and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig22-grid --seed 1 --seconds 25 --trace 0

``--trace 0`` repeats the workload's job untraced for ``--seconds`` and
prints the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1``
alternates untraced and traced rounds and prints the per-layer metrics,
the tracing overhead, and writes the spans as a Chrome trace under
``.perfbench-out/``.  Every round is checked (conservation, identical
simulated digest across rounds, the recorded digest at the committed
seed, the fig22 ordering); a round that fails a check counts as failed.
The last line of standard output is the result object; the line before
it carries the details (environment block, per-round times, the
tail-latency percentile used, check failures).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-expected",
        action="store_true",
        help="record this run's digest as the workload's expected digest "
        "(committed seed only)",
    )
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import environment

    # Before anything imports repro: the caller's shell must not pick the engine.
    cleared = environment.clear_repro_env(os.environ)
    from perfbench import harness

    return harness.run(args, cleared)


if __name__ == "__main__":
    sys.exit(main())
