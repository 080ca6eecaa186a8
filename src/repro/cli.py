"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``compare`` — run the four systems on one workload and print Fig. 22-style
  metrics.
* ``sweep`` — run a (system × scenario × model-count × seed × policy)
  grid across worker processes, with an on-disk result cache.  Repeated
  ``--policy kind=spec1,spec2`` flags form a policy cross-product, so a
  mechanism ablation (e.g. SLINFER placement with the reclaim policy
  swapped) is one command line instead of a bespoke driver.
* ``list`` — one table-driven ``repro list <kind>`` over every registry
  (systems, scenarios, engines, clusters, models, hardware, policies,
  kv-sharing), with ``--json`` for machine-readable output.  Singular
  forms (``list system``) alias the canonical kinds; unknown kinds are
  a typed error naming the valid ones.
* ``serve`` — start the asyncio serving gateway: an OpenAI-style HTTP
  front end that shadow-replays (or wall-clock-paces) live requests
  through the simulator, reusing the sweep axes
  (``--system/--cluster/--policy/--engine/--kv-sharing``).
* ``experiment`` — run a named paper experiment (``fig22``, ``ablation``,
  ``table1``, ``table2``, ``watermark``, ``keepalive``, ``pd``, ``quant``).
* ``calibration`` — print the calibrated latency laws against the paper's
  published anchors.
* ``bench`` — run the curated core benchmark suite and write one report,
  ``BENCH_core.json``; with ``--baseline`` it becomes the CI perf gate
  (exit 3 on regression).
* ``lint`` — the determinism/invariant static-analysis rules; a finding
  is suppressed only by a ``# repro: allow[rule-id]`` pragma on its line.

Workload and system tables are never hand-rolled here: every lookup goes
through :mod:`repro.registry`, and runs execute through
:mod:`repro.runner`.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Callable

from repro.kv import KV_SHARING_MODES
from repro.metrics.collector import METRICS_MODES
from repro.models import CATALOG, get_model
from repro.policies import POLICY_KINDS, POLICY_REGISTRIES, BUNDLES, resolve_policy
from repro.registry import (
    CLUSTERS,
    ENGINES,
    FEDERATIONS,
    RegistryError,
    SCENARIOS,
    STANDARD_SYSTEMS,
    SYSTEMS,
    TOPOLOGIES,
    build_cluster,
    resolve_federation,
    resolve_scenario,
    system_factory,
)
from repro.runner import (
    SCALES,
    ResultCache,
    RunSpec,
    SweepExecutor,
    build_workload,
    check_workers,
    default_workers,
    execute_spec,
    expand_grid,
)
from repro.runner.env import EnvSettingError


def _csv(value: str) -> list[str]:
    return [item.strip() for item in value.split(",") if item.strip()]


def _workers(raw: str) -> int:
    """``--workers`` values: rejected (exit 2) unless a positive integer."""
    try:
        return check_workers(raw)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def _parse_policy_axes(flags: list[str]) -> dict[str, list[str]]:
    """``--policy kind=spec1,spec2`` flags → a policy sweep dict.

    Every spec is resolved once up front so unknown kinds/names/args
    fail fast, before any simulation starts.
    """
    axes: dict[str, list[str]] = {}
    for flag in flags:
        kind, sep, specs = flag.partition("=")
        kind = kind.strip()
        values = _csv(specs)
        if not sep or not values:
            raise RegistryError(
                f"bad --policy {flag!r}: expected kind=spec[,spec...] "
                f"with kind one of {', '.join(POLICY_KINDS)}"
            )
        for spec in values:
            resolve_policy(kind, spec)
        axes.setdefault(kind, []).extend(values)
    return axes


def _validate_names(
    systems=(), scenarios=(), clusters=(), models=(), topologies=(), federations=()
) -> None:
    """Fail fast (before any simulation) on unknown registry names."""
    for name in systems:
        system_factory(name)
    for name in scenarios:
        resolve_scenario(name)
    for name in clusters:
        build_cluster(name)
    for name in topologies:
        if name is not None:
            TOPOLOGIES.get(name)
    for name in federations:
        if name is not None:
            resolve_federation(name)
    for name in models:
        try:
            get_model(name)
        except KeyError as error:
            raise RegistryError(str(error).strip('"')) from None


def _add_workload_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", default="llama-2-7b", choices=sorted(CATALOG))
    parser.add_argument("--models", type=int, default=32, help="number of deployments")
    parser.add_argument("--duration", type=float, default=600.0, help="trace seconds")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--cpus", type=int, default=4)
    parser.add_argument("--gpus", type=int, default=4)


def cmd_compare(args: argparse.Namespace) -> int:
    wanted = _csv(args.systems) if args.systems else list(STANDARD_SYSTEMS)
    _validate_names(systems=wanted)
    specs = [
        RunSpec(
            system=name,
            scenario="azure",
            model=args.model,
            n_models=args.models,
            cluster=f"cpu{args.cpus}-gpu{args.gpus}",
            seed=args.seed,
            duration=args.duration,
        )
        for name in wanted
    ]
    workload = build_workload(specs[0])
    print(
        f"workload: {workload.total_requests} requests / {args.models} models "
        f"/ {args.duration:.0f}s on {args.cpus} CPU + {args.gpus} GPU nodes"
    )
    for spec in specs:
        # All specs share the workload axes, so synthesize the trace once.
        result = execute_spec(spec, workload=workload)
        print(f"{result.report.summary_line(spec.system)}  [{result.report.timing_line()}]")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    systems = _csv(args.systems) if args.systems else list(STANDARD_SYSTEMS)
    topologies = _csv(args.topology) if args.topology else [None]
    federations = _csv(args.federation) if args.federation else [None]
    _validate_names(
        systems=systems,
        scenarios=_csv(args.scenarios),
        clusters=_csv(args.clusters),
        models=_csv(args.model),
        topologies=topologies,
        federations=federations,
    )
    specs = expand_grid(
        systems,
        scenarios=_csv(args.scenarios),
        models=_csv(args.model),
        n_models=[int(n) for n in _csv(args.models)],
        clusters=_csv(args.clusters),
        topologies=topologies,
        seeds=[int(s) for s in _csv(args.seeds)],
        scale=args.scale,
        duration=args.duration,
        policies=_parse_policy_axes(args.policy or []),
        metrics=args.metrics,
        engine=args.engine,
        kv_sharing=args.kv_sharing,
        federations=federations,
    )
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    executor = SweepExecutor(workers=args.workers, cache=cache)
    print(f"sweep: {len(specs)} spec(s) across {executor.workers} worker(s)")
    results = executor.run(specs)
    for result in results:
        print(f"  {result.spec.label()}")
        print(f"  {result.summary_line()}")
    simulated = [r for r in results if not r.from_cache]
    total_wall = sum(r.wall_seconds for r in simulated)
    print(
        f"done: {len(results)} result(s), {len(results) - len(simulated)} from cache, "
        f"{total_wall:.2f}s simulating"
    )
    if cache is not None:
        print(cache.stats_line())
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for result in results:
            path = out_dir / f"{result.fingerprint}.json"
            path.write_text(result.canonical_json(), encoding="utf-8")
        print(f"wrote {len(results)} canonical report(s) to {out_dir}")
    return 0


class UnknownListKindError(RegistryError):
    """``repro list`` was asked for a kind no table row provides."""


def _registry_payload(registry) -> dict[str, Any]:
    """Names plus (when the registry has them) ad-hoc pattern forms."""
    payload: dict[str, Any] = {"names": registry.names()}
    patterns = registry.pattern_templates()
    if patterns:
        payload["patterns"] = [
            {"form": template, "summary": summary} for template, summary in patterns
        ]
    return payload


def _render_names(header: str) -> Callable[[Any], None]:
    def render(payload: Any) -> None:
        names = payload["names"] if isinstance(payload, dict) else payload
        suffix = ""
        if isinstance(payload, dict) and payload.get("patterns"):
            forms = " / ".join(f"'{p['form']}'" for p in payload["patterns"])
            suffix = f" (plus ad-hoc {forms})"
        print(f"{header}{suffix}:")
        for name in names:
            print(f"  {name}")

    return render


def _policies_payload() -> dict[str, Any]:
    return {
        "policies": {kind: POLICY_REGISTRIES[kind].names() for kind in POLICY_KINDS},
        "bundles": {name: BUNDLES.get(name)().describe() for name in BUNDLES.names()},
    }


def _render_policies(payload: dict[str, Any]) -> None:
    print("policies (use with 'sweep --policy kind=spec[,spec...]'):")
    for kind, names in payload["policies"].items():
        print(f"  {kind}: {', '.join(names)}")
    print("bundles (system name -> policy assignment):")
    for name, composition in payload["bundles"].items():
        rendered = ", ".join(f"{kind}={spec}" for kind, spec in composition.items())
        print(f"  {name}: {rendered}")


def _hardware_payload() -> dict[str, Any]:
    from repro.hardware import specs as hw

    specs = []
    for spec in (
        hw.XEON_GEN4_32C,
        hw.XEON_GEN3_32C,
        hw.XEON_GEN6_96C,
        hw.A100_80GB,
        hw.V100_32GB,
    ):
        specs.append(
            {
                "name": spec.name,
                "kind": spec.kind.value,
                "cores": spec.cores,
                "matrix_accelerated": spec.matrix_accelerated,
                "memory_gib": spec.memory_bytes // hw.GIB,
                "prefill_factor": spec.prefill_factor,
                "decode_factor": spec.decode_factor,
                "loader_gib_per_s": spec.loader_bytes_per_s / hw.GIB,
            }
        )
    paper = build_cluster("paper")
    topologies = [
        {"name": name, "describe": TOPOLOGIES.get(name)(paper).describe()}
        for name in TOPOLOGIES.names()
    ]
    return {"specs": specs, "topologies": topologies}


def _render_hardware(payload: dict[str, Any]) -> None:
    print("hardware specs:")
    for spec in payload["specs"]:
        cores = f" {spec['cores']}c" if spec["cores"] else ""
        amx = "" if spec["matrix_accelerated"] else " no-AMX"
        print(
            f"  {spec['name']}: {spec['kind']}{cores}{amx} "
            f"mem={spec['memory_gib']}GiB "
            f"prefill_x={spec['prefill_factor']:g} decode_x={spec['decode_factor']:g} "
            f"loader={spec['loader_gib_per_s']:g}GiB/s"
        )
    print("topologies (use with 'sweep --topology NAME', shown on the paper testbed):")
    for topology in payload["topologies"]:
        print(f"  {topology['describe']}")


def _render_kv_sharing(payload: dict[str, str]) -> None:
    print("kv sharing (use with 'sweep --kv-sharing MODE'):")
    for mode, summary in payload.items():
        print(f"  {mode}: {summary}")


#: the ``repro list`` table: kind -> (payload builder, text renderer).
#: The JSON view and the text view render the same payload, so adding a
#: kind is one row here — never another if-branch in ``cmd_list``.
LIST_KINDS: dict[str, tuple[Callable[[], Any], Callable[[Any], None]]] = {
    "systems": (lambda: _registry_payload(SYSTEMS), _render_names("systems")),
    "scenarios": (
        lambda: _registry_payload(SCENARIOS),
        _render_names("scenarios"),
    ),
    "kv-sharing": (lambda: dict(KV_SHARING_MODES), _render_kv_sharing),
    "engines": (
        lambda: ENGINES.names(),
        _render_names("engines (byte-identical backends; use with 'sweep --engine NAME')"),
    ),
    "clusters": (
        lambda: _registry_payload(CLUSTERS),
        _render_names("clusters"),
    ),
    "models": (lambda: sorted(CATALOG), _render_names("models")),
    "hardware": (_hardware_payload, _render_hardware),
    "policies": (_policies_payload, _render_policies),
    "federations": (
        lambda: _registry_payload(FEDERATIONS),
        _render_names("federations (multi-cluster fleets; use with 'sweep --federation NAME')"),
    ),
}

#: accepted spellings that map onto a canonical table row
LIST_ALIASES = {
    "system": "systems",
    "scenario": "scenarios",
    "engine": "engines",
    "cluster": "clusters",
    "model": "models",
    "policy": "policies",
    "bundles": "policies",
    "kv": "kv-sharing",
    "topologies": "hardware",
    "federation": "federations",
}


def cmd_list(args: argparse.Namespace) -> int:
    what = getattr(args, "what", "all")
    kind = LIST_ALIASES.get(what, what)
    if kind != "all" and kind not in LIST_KINDS:
        known = ", ".join(["all", *LIST_KINDS])
        raise UnknownListKindError(f"unknown list kind {what!r} (known: {known})")
    kinds = list(LIST_KINDS) if kind == "all" else [kind]
    if getattr(args, "json", False):
        payloads = {name: LIST_KINDS[name][0]() for name in kinds}
        print(json.dumps(payloads if kind == "all" else payloads[kind], indent=2))
        return 0
    for name in kinds:
        payload_fn, render = LIST_KINDS[name]
        render(payload_fn())
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.gateway import GatewayServer, SimBridge

    topology = args.topology or None
    _validate_names(
        systems=[args.system],
        scenarios=[args.scenario],
        clusters=[args.cluster],
        models=[args.model],
        topologies=[topology],
    )
    axes = _parse_policy_axes(args.policy or [])
    overrides = []
    for kind, specs in axes.items():
        if len(specs) > 1:
            raise RegistryError(
                f"serve takes one policy per kind, got {kind}={','.join(specs)}"
            )
        overrides.append((kind, specs[0]))
    spec = RunSpec(
        system=args.system,
        scenario=args.scenario,
        model=args.model,
        n_models=args.models,
        cluster=args.cluster,
        topology=topology,
        seed=args.seed,
        scale=args.scale,
        duration=args.duration,
        policy_overrides=tuple(overrides),
        metrics=args.metrics,
        engine=args.engine,
        kv_sharing=args.kv_sharing,
    )
    bridge = SimBridge.from_spec(spec, mode=args.mode, pace_ratio=args.pace_ratio)
    print(f"serving {spec.label()} [{args.mode} mode]", flush=True)
    GatewayServer(bridge, host=args.host, port=args.port).run()
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import BenchConfig, run_bench

    try:
        config = BenchConfig.from_env(
            scale=args.scale,
            repeats=args.repeats,
            warmup=args.warmup,
            workers=args.workers,
        )
        outcome = run_bench(
            config,
            out_dir=args.out,
            only=set(_csv(args.only)) if args.only else None,
            baseline=args.baseline,
            max_regression=args.max_regression,
            echo=print,
        )
    except (ValueError, OSError) as error:
        # Bad case names or protocol settings, scale-mismatched/missing/
        # unreadable baselines: usage errors, reported like registry
        # errors (exit 2), distinct from a genuine gate failure (exit 3).
        print(f"error: {error}", file=sys.stderr)
        return 2
    return 0 if outcome.gate_passed else 3


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import all_rule_ids, run_lint

    try:
        report = run_lint(args.paths or ["src/repro"], rules=args.rule or None)
    except KeyError as error:
        # Unknown --rule id: a usage error, like unknown registry names.
        print(f"error: {error.args[0]}", file=sys.stderr)
        print(f"known rules: {', '.join(all_rule_ids())}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render_text())
    return 1 if report.failed else 0


def cmd_calibration(_args: argparse.Namespace) -> int:
    from repro.experiments import run_table1, run_table2

    for row in run_table1():
        print(f"{row.cpu}: TTFT(ms) {row.ttft_ms}  TPOT(ms) {row.tpot_ms}")
    print()
    for cell in run_table2():
        if cell.fraction_label == "1":
            print(f"{cell.scenario}: full-node concurrency limit {cell.per_instance_limit}")
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    import repro.experiments as ex

    name = args.name
    if name == "fig22":
        for cell in ex.run_fig22(size=args.size):
            print(cell.summary)
    elif name == "ablation":
        for label, report in ex.run_ablation().items():
            print(f"{label:18s} {report.summary_line()}")
    elif name == "table1":
        return cmd_calibration(args)
    elif name == "table2":
        for cell in ex.run_table2():
            print(cell)
    elif name == "watermark":
        for point in ex.run_watermark_sweep():
            print(point)
    elif name == "keepalive":
        for point in ex.run_keepalive_sweep():
            print(point)
    elif name == "pd":
        for row in ex.run_pd_table():
            print(row.summary)
    elif name == "quant":
        for result in ex.run_quantization_comparison():
            print(f"{result.quantization}: GPUs {result.gpus_used:.1f} SLO {result.slo_rate:.2f}")
    else:
        print(f"unknown experiment {name!r}", file=sys.stderr)
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    compare = sub.add_parser("compare", help="compare the four systems")
    _add_workload_args(compare)
    compare.add_argument("--systems", default="", help="comma list (default: all)")
    compare.set_defaults(func=cmd_compare)

    sweep = sub.add_parser("sweep", help="run a spec grid across worker processes")
    sweep.add_argument("--systems", default="", help="comma list (default: the four §IX-B systems)")
    sweep.add_argument("--scenarios", default="azure", help="comma list of registered scenarios")
    sweep.add_argument("--model", default="llama-2-7b", help="comma list of model names")
    sweep.add_argument("--models", default="32", help="comma list of deployment counts")
    sweep.add_argument(
        "--clusters", default="paper", help="comma list (or cpu{N}-gpu{M} / harvest{C})"
    )
    sweep.add_argument(
        "--topology",
        default="",
        help="comma list of named interconnect topologies to sweep "
        "(default: each cluster's own; see 'repro list hardware')",
    )
    sweep.add_argument("--seeds", default="1", help="comma list of seeds")
    sweep.add_argument("--scale", default="quick", choices=list(SCALES))
    sweep.add_argument("--duration", type=float, default=None, help="override scale window (s)")
    sweep.add_argument(
        "--policy",
        action="append",
        metavar="KIND=SPEC[,SPEC...]",
        help="policy override axis (repeatable); e.g. --policy placement=slinfer,sllm "
        "--policy reclaim=keepalive,never sweeps the 2x2 mechanism matrix",
    )
    sweep.add_argument(
        "--metrics", default="exact", choices=list(METRICS_MODES),
        help="metrics mode: exact keeps every sample; streaming uses "
        "bounded-memory sketches (required for long-horizon runs)",
    )
    sweep.add_argument(
        "--engine", default=None, choices=ENGINES.names(),
        help="engine backend (byte-identical results; default: REPRO_ENGINE, "
        "else vectorized, which batches the decode-iteration hot path; "
        "reference is the scalar parity oracle)",
    )
    sweep.add_argument(
        "--kv-sharing", dest="kv_sharing", default="off", choices=list(KV_SHARING_MODES),
        help="prefix-sharing block-map KV subsystem (radix prefix cache, "
        "copy-on-write, supply-coupled admission); changes results, so "
        "on-mode specs fingerprint separately",
    )
    sweep.add_argument(
        "--federation",
        default="",
        help="comma list of multi-cluster fleets to sweep (e.g. fleet4, "
        "sticky2, balanced4, wan4; default: unsharded; see "
        "'repro list federations')",
    )
    sweep.add_argument(
        "--workers", type=_workers, default=default_workers(),
        help="worker processes (default: REPRO_WORKERS or 1)",
    )
    sweep.add_argument("--no-cache", action="store_true", help="always re-simulate")
    sweep.add_argument("--cache-dir", default=None, help="result cache directory")
    sweep.add_argument("--out", default=None, help="write per-spec canonical JSON here")
    sweep.set_defaults(func=cmd_sweep)

    listing = sub.add_parser(
        "list",
        help="show registered systems/scenarios/clusters/models/hardware/policies",
    )
    listing.add_argument(
        "what",
        nargs="?",
        default="all",
        metavar="kind",
        help=f"one of: all, {', '.join(LIST_KINDS)} (singular forms alias)",
    )
    listing.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    listing.set_defaults(func=cmd_list)

    serve = sub.add_parser(
        "serve",
        help="start the HTTP serving gateway (shadow-replay or paced what-if)",
    )
    serve.add_argument("--system", default="slinfer", help="serving system bundle")
    serve.add_argument(
        "--scenario", default="azure",
        help="scenario supplying the deployments (and, when set, the horizon)",
    )
    serve.add_argument("--model", default="llama-2-7b", help="model name")
    serve.add_argument("--models", type=int, default=32, help="number of deployments")
    serve.add_argument("--cluster", default="paper", help="cluster shape")
    serve.add_argument(
        "--topology", default="", help="named interconnect topology (default: cluster's own)"
    )
    serve.add_argument("--seed", type=int, default=1)
    serve.add_argument("--scale", default="quick", choices=list(SCALES))
    serve.add_argument("--duration", type=float, default=None, help="override scale window (s)")
    serve.add_argument(
        "--policy", action="append", metavar="KIND=SPEC",
        help="policy override (repeatable, one spec per kind)",
    )
    serve.add_argument("--metrics", default="exact", choices=list(METRICS_MODES))
    serve.add_argument("--engine", default=None, choices=ENGINES.names())
    serve.add_argument(
        "--kv-sharing", dest="kv_sharing", default="off", choices=list(KV_SHARING_MODES)
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0, help="0 picks a free port")
    serve.add_argument(
        "--mode", default="shadow", choices=["shadow", "paced"],
        help="shadow: virtual-time trace replay; paced: wall-clock arrivals",
    )
    serve.add_argument(
        "--pace-ratio", dest="pace_ratio", type=float, default=1.0,
        help="simulation seconds per wall second (paced mode)",
    )
    serve.set_defaults(func=cmd_serve)

    experiment = sub.add_parser("experiment", help="run a named paper experiment")
    experiment.add_argument(
        "name",
        choices=["fig22", "ablation", "table1", "table2", "watermark", "keepalive", "pd", "quant"],
    )
    experiment.add_argument("--size", default="7B", choices=["3B", "7B", "13B"])
    experiment.set_defaults(func=cmd_experiment)

    bench = sub.add_parser(
        "bench", help="run the core benchmark suite and write BENCH_core.json"
    )
    bench.add_argument(
        "--scale", default=None, choices=list(SCALES),
        help="suite scale (default: REPRO_SCALE, falling back to quick)",
    )
    bench.add_argument("--repeats", type=int, default=None, help="timed rounds per case")
    bench.add_argument("--warmup", type=int, default=None, help="untimed warmup rounds")
    bench.add_argument(
        "--workers", type=_workers, default=None, help="sweep-case worker processes"
    )
    bench.add_argument("--out", default=".", help="directory for BENCH_core.json (default: .)")
    bench.add_argument("--only", default="", help="comma list of case names to run")
    bench.add_argument(
        "--baseline", default=None,
        help="committed BENCH_core.json to gate against (exit 3 on regression)",
    )
    bench.add_argument(
        "--max-regression", type=float, default=0.25,
        help="tolerated fractional events/sec drop vs the baseline (default 0.25)",
    )
    bench.set_defaults(func=cmd_bench)

    lint = sub.add_parser(
        "lint",
        help="run the determinism/invariant static-analysis rules",
        description=(
            "AST-based lint of simulation determinism contracts: wall-clock "
            "reads, ambient RNG, unordered iteration, handler purity, engine "
            "seams, float accumulation, strict typing. "
            "Suppress a finding with '# repro: allow[rule-id]' on its line. "
            "Exit 0 clean; 1 on findings; 2 on usage errors."
        ),
    )
    lint.add_argument(
        "paths", nargs="*", help="files/directories to lint (default: src/repro)"
    )
    lint.add_argument(
        "--rule",
        action="append",
        metavar="ID",
        help="run only this rule id (repeatable)",
    )
    lint.add_argument(
        "--json", action="store_true", help="emit the machine-readable report"
    )
    lint.set_defaults(func=cmd_lint)

    calibration = sub.add_parser("calibration", help="print calibration anchors")
    calibration.set_defaults(func=cmd_calibration)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        # Inside the try: the parser's defaults read REPRO_WORKERS.
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (RegistryError, EnvSettingError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
