"""Run specifications and results.

A :class:`RunSpec` names one simulation completely: the serving system,
the workload scenario and its parameters, the cluster shape, the seed,
and the trace scale.  Everything is a registry name or a JSON-safe
value, so a spec is trivially picklable (for worker processes) and
hashable into a stable fingerprint (for the on-disk result cache).

:func:`expand_grid` produces the cross-product of spec axes for sweeps;
:class:`RunResult` is the envelope the executor returns — the measured
:class:`~repro.metrics.report.RunReport` plus wall-clock timing and the
spec fingerprint.

A spec's trace comes from its scenario factory.  :func:`build_workload_stream`
is what every run ingests (lazily, O(in-flight) memory);
:func:`build_workload` materializes the same trace for callers that read
the request list.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from dataclasses import fields as dataclass_fields
from typing import Any, Iterable, Sequence

from repro.core.config import SlinferConfig
from repro.metrics.report import OverheadStat, RunReport
from repro.models.catalog import get_model
from repro.registry import resolve_scenario
from repro.runner.scale import get_scale
from repro.workloads.azure_serverless import REQUESTS_PER_MODEL_30MIN
from repro.workloads.spec import Workload
from repro.workloads.stream import WorkloadStream

PAYLOAD_VERSION = 1

#: Axes serialized only when non-default: each entry maps a
#: :class:`RunSpec` field to the default that is *omitted* from the
#: payload, so fingerprints (and cached results) minted before the axis
#: existed stay valid for default-valued specs.  The ``fingerprint-axis``
#: lint rule cross-checks this registry against the dataclass fields —
#: a new sweep axis must either always serialize or register here.
PAYLOAD_OPTIONAL_AXES: dict[str, Any] = {
    "topology": None,
    "policy_overrides": (),
    "metrics": "exact",
    "engine": None,
    "kv_sharing": "off",
    "federation": None,
    "config": (),
}

#: Axes excluded from the fingerprint even when serialized.  Engine
#: backends are byte-identical by contract, so an engine choice is part
#: of *how* a spec runs, not *what* it measures: it must never fork (or
#: invalidate) the result cache.
FINGERPRINT_EXEMPT_AXES: frozenset[str] = frozenset({"engine"})


def _freeze_params(params: Any) -> tuple[tuple[str, Any], ...]:
    """Normalize scenario params to a sorted, hashable tuple of pairs."""
    if params is None:
        return ()
    if isinstance(params, dict):
        items = params.items()
    else:
        items = tuple(params)
    frozen = []
    for key, value in sorted(items):
        if isinstance(value, list):
            value = tuple(value)
        frozen.append((str(key), value))
    return tuple(frozen)


def _freeze_overrides(overrides: Any) -> tuple[tuple[str, str], ...]:
    """Normalize policy overrides to sorted ``(kind, spec)`` string pairs."""
    if not overrides:
        return ()
    items = overrides.items() if isinstance(overrides, dict) else tuple(overrides)
    return tuple(sorted((str(kind), str(spec)) for kind, spec in items))


_CONFIG_DEFAULTS: dict[str, Any] = {
    entry.name: entry.default for entry in dataclass_fields(SlinferConfig)
}


def _freeze_config(config: Any) -> tuple[tuple[str, Any], ...]:
    """Normalize config overrides to sorted pairs, dropping default values."""
    items = sorted(config.items() if isinstance(config, dict) else tuple(config or ()))
    for key, _ in items:
        if key not in _CONFIG_DEFAULTS:
            known = ", ".join(sorted(_CONFIG_DEFAULTS))
            raise ValueError(f"unknown config field {key!r} (known: {known})")
    return tuple((key, value) for key, value in items if value != _CONFIG_DEFAULTS[key])


@dataclass(frozen=True)
class RunSpec:
    """One fully-specified simulation run."""

    system: str
    scenario: str = "azure"
    model: str = "llama-2-7b"
    n_models: int = 32
    cluster: str = "paper"
    # Named interconnect topology replacing the cluster's own; None keeps
    # the cluster factory's choice (the uniform default for most shapes)
    # and is omitted from the fingerprint for pre-topology cache compat.
    topology: str | None = None
    seed: int = 1
    scale: str = "quick"
    duration: float | None = None  # explicit override of the scale's window
    scenario_params: tuple[tuple[str, Any], ...] = field(default_factory=tuple)
    # Policy ablations: (kind, spec) pairs replacing one mechanism of the
    # system's bundle, e.g. (("reclaim", "never"),).  Folded into the
    # fingerprint, so every policy combination caches separately.
    policy_overrides: tuple[tuple[str, str], ...] = field(default_factory=tuple)
    # Metrics accumulation mode: "exact" (lossless, O(requests) memory)
    # or "streaming" (bounded sketches, long-horizon runs).  The payload
    # shapes differ, so non-default modes fingerprint separately.
    metrics: str = "exact"
    # Engine backend executing the simulation; None runs the process
    # default (REPRO_ENGINE, else vectorized), an explicit name pins
    # that backend.  Backends are byte-identical by contract, so the
    # axis is exempt from the fingerprint: an engine choice never
    # invalidates (or forks) the result cache for the same experiment.
    engine: str | None = None
    # Prefix-sharing block-map subsystem ("off"/"on").  Unlike the
    # engine axis, sharing *changes results* (prefill work shrinks on
    # cache hits), so "on" is part of the fingerprint; "off" is omitted
    # from the payload so pre-sharing fingerprints stay valid.
    kv_sharing: str = "off"
    # Federation (multi-cluster fleet) name from repro.federation, or
    # None for a plain single-cluster run.  Sharding changes what is
    # simulated (N clusters, cross-shard routing), so a named federation
    # is part of the fingerprint; None is omitted from the payload so
    # pre-federation fingerprints stay valid.  Like cluster/scenario
    # names, the value is resolved against its registry at execution
    # (and CLI) time, not here — keeping the spec import-light.
    federation: str | None = None
    # SlinferConfig field overrides, e.g. (("enable_cpu", False),), applied
    # to the system's own config class.  Default-valued entries are
    # dropped and () is omitted from the payload (pre-axis fingerprints).
    config: tuple[tuple[str, Any], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "scenario_params", _freeze_params(self.scenario_params))
        object.__setattr__(self, "policy_overrides", _freeze_overrides(self.policy_overrides))
        object.__setattr__(self, "config", _freeze_config(self.config))
        from repro.metrics.collector import METRICS_MODES

        if self.metrics not in METRICS_MODES:
            raise ValueError(
                f"unknown metrics mode {self.metrics!r} (known: {', '.join(METRICS_MODES)})"
            )
        from repro.sim.engine import ENGINES

        if self.engine is not None and self.engine not in ENGINES.names():
            raise ValueError(
                f"unknown engine {self.engine!r} (known: {', '.join(ENGINES.names())})"
            )
        if self.kv_sharing not in ("off", "on"):
            raise ValueError(
                f"unknown kv_sharing mode {self.kv_sharing!r} (known: off, on)"
            )

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def resolved_duration(self) -> float:
        return self.duration if self.duration is not None else get_scale(self.scale).duration

    def resolved_requests_per_model(self) -> float:
        """Rate-preserving request budget for the resolved window."""
        return REQUESTS_PER_MODEL_30MIN * self.resolved_duration() / 1800.0

    def params_dict(self) -> dict[str, Any]:
        return {key: list(v) if isinstance(v, tuple) else v for key, v in self.scenario_params}

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        payload = {
            "system": self.system,
            "scenario": self.scenario,
            "model": self.model,
            "n_models": self.n_models,
            "cluster": self.cluster,
            "seed": self.seed,
            "scale": self.scale,
            "duration": self.duration,
            "scenario_params": self.params_dict(),
        }
        # Optional axes serialize only when non-default (see
        # PAYLOAD_OPTIONAL_AXES) so payloads — and therefore fingerprints
        # and cached results — from before each axis existed stay valid
        # for default-valued specs.
        for axis, default in PAYLOAD_OPTIONAL_AXES.items():
            value = getattr(self, axis)
            if value == default:
                continue
            payload[axis] = dict(value) if axis in ("policy_overrides", "config") else value
        return payload

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "RunSpec":
        return cls(
            system=payload["system"],
            scenario=payload.get("scenario", "azure"),
            model=payload.get("model", "llama-2-7b"),
            n_models=payload.get("n_models", 32),
            cluster=payload.get("cluster", "paper"),
            topology=payload.get("topology"),
            seed=payload.get("seed", 1),
            scale=payload.get("scale", "quick"),
            duration=payload.get("duration"),
            scenario_params=payload.get("scenario_params"),
            policy_overrides=payload.get("policy_overrides") or (),
            metrics=payload.get("metrics", "exact"),
            engine=payload.get("engine"),
            kv_sharing=payload.get("kv_sharing", "off"),
            federation=payload.get("federation"),
            config=payload.get("config") or (),
        )

    def fingerprint(self) -> str:
        """Stable content hash of the spec (the cache key).

        The FINGERPRINT_EXEMPT_AXES (the engine axis) are excluded:
        backends are byte-identical, so a cached result computed under
        either backend answers a spec pinned to the other (``to_dict``
        keeps the key so worker processes still run the requested
        backend).
        """
        payload = self.to_dict()
        for axis in sorted(FINGERPRINT_EXEMPT_AXES):
            payload.pop(axis, None)
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def label(self) -> str:
        window = f"{self.duration:g}s" if self.duration is not None else self.scale
        params = ""
        if self.scenario_params:
            params = "{" + ",".join(f"{k}={v}" for k, v in self.scenario_params) + "}"
        system = self.system
        if self.policy_overrides:
            system += "[" + ",".join(f"{k}={v}" for k, v in self.policy_overrides) + "]"
        if self.metrics != "exact":
            system += f" metrics={self.metrics}"
        if self.engine is not None:
            system += f" engine={self.engine}"
        if self.kv_sharing != "off":
            system += f" kv={self.kv_sharing}"
        for key, value in self.config:
            system += f" {key}={value}"
        cluster = self.cluster
        if self.topology is not None:
            cluster += f"/{self.topology}"
        if self.federation is not None:
            cluster = f"{self.federation}({cluster})"
        return (
            f"{self.scenario}{params}/{self.model} x{self.n_models} "
            f"@{window} on {cluster} seed={self.seed} -> {system}"
        )


def _scenario_trace(spec: RunSpec) -> Workload | WorkloadStream:
    """Call the spec's scenario factory (a stream, or a plain Workload)."""
    factory = resolve_scenario(spec.scenario)
    return factory(
        get_model(spec.model),
        spec.n_models,
        spec.resolved_duration(),
        spec.resolved_requests_per_model(),
        spec.seed,
        **spec.params_dict(),
    )


def build_workload(spec: RunSpec) -> Workload:
    """The spec's workload, materialized into an arrival-sorted list."""
    trace = _scenario_trace(spec)
    return trace if isinstance(trace, Workload) else trace.materialize()


def build_workload_stream(spec: RunSpec) -> WorkloadStream:
    """The spec's workload as the lazy stream every run ingests.

    Registered scenarios return their
    :class:`~repro.workloads.stream.GroupedStream` as is; a
    third-party factory that returns a plain :class:`Workload` is viewed
    through :meth:`Workload.stream`.
    """
    trace = _scenario_trace(spec)
    return trace.stream() if isinstance(trace, Workload) else trace


def expand_policy_grid(
    policies: dict[str, Sequence[str]] | None,
) -> list[tuple[tuple[str, str], ...]]:
    """The cross-product of per-kind policy specs, in deterministic order.

    ``{"placement": ["slinfer", "sllm"], "reclaim": ["keepalive", "never"]}``
    yields the four (placement, reclaim) override combinations — a
    mechanism ablation matrix from one dict.  ``None``/empty means one
    combination: no overrides.
    """
    if not policies:
        return [()]
    kinds = sorted(policies)
    combos: list[tuple[tuple[str, str], ...]] = [()]
    for kind in kinds:
        specs = list(policies[kind])
        combos = [prior + ((kind, spec),) for prior in combos for spec in specs]
    return combos


def expand_grid(
    systems: Iterable[str],
    *,
    scenarios: Iterable[str] = ("azure",),
    models: Iterable[str] = ("llama-2-7b",),
    n_models: Iterable[int] = (32,),
    clusters: Iterable[str] = ("paper",),
    topologies: Iterable[str | None] = (None,),
    seeds: Iterable[int] = (1,),
    scale: str = "quick",
    duration: float | None = None,
    scenario_params: dict[str, Any] | None = None,
    policies: dict[str, Sequence[str]] | None = None,
    metrics: str = "exact",
    engine: str | None = None,
    kv_sharing: str = "off",
    federations: Iterable[str | None] = (None,),
) -> list[RunSpec]:
    """The cross-product of the given axes, in deterministic order.

    Workload axes vary outermost and systems innermost, so consecutive
    specs compare systems on the same workload.  ``policies`` adds a
    policy cross-product *inside* each system (see
    :func:`expand_policy_grid`), turning every mechanism ablation into
    a one-line sweep; ``topologies`` varies the interconnect under each
    cluster shape the same way (``None`` = the cluster's own topology),
    and ``federations`` multiplies each cluster into the named fleets
    (``None`` = plain unsharded run).
    """
    policy_combos = expand_policy_grid(policies)
    specs = []
    for scenario in scenarios:
        for model in models:
            for count in n_models:
                for cluster in clusters:
                    for topology in topologies:
                        for federation in federations:
                            for seed in seeds:
                                for system in systems:
                                    for overrides in policy_combos:
                                        specs.append(
                                            RunSpec(
                                                system=system,
                                                scenario=scenario,
                                                model=model,
                                                n_models=count,
                                                cluster=cluster,
                                                topology=topology,
                                                seed=seed,
                                                scale=scale,
                                                duration=duration,
                                                scenario_params=scenario_params,
                                                policy_overrides=overrides,
                                                metrics=metrics,
                                                engine=engine,
                                                kv_sharing=kv_sharing,
                                                federation=federation,
                                            )
                                        )
    return specs


@dataclass
class RunResult:
    """One executed (or cache-restored) spec: report + timing envelope."""

    spec: RunSpec
    fingerprint: str
    report: RunReport
    wall_seconds: float
    from_cache: bool = False

    # ------------------------------------------------------------------
    # Canonical (deterministic) view
    # ------------------------------------------------------------------
    def canonical_report_dict(self) -> dict[str, Any]:
        return self.report.to_dict(include_volatile=False)

    def canonical_json(self) -> str:
        """Byte-identical for identical specs, however they were executed."""
        return json.dumps(
            {"spec": self.spec.to_dict(), "report": self.canonical_report_dict()},
            sort_keys=True,
            separators=(",", ":"),
        )

    # ------------------------------------------------------------------
    # Transport (worker processes, on-disk cache)
    # ------------------------------------------------------------------
    def to_payload(self) -> dict[str, Any]:
        return {
            "version": PAYLOAD_VERSION,
            "fingerprint": self.fingerprint,
            "spec": self.spec.to_dict(),
            "report": self.canonical_report_dict(),
            "timing": {
                "wall_seconds": self.wall_seconds,
                "overhead_stats": {
                    name: [stat.count, stat.total_seconds, stat.mean_seconds]
                    for name, stat in sorted(self.report.overhead_stats.items())
                },
            },
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any], from_cache: bool = False) -> "RunResult":
        timing = payload["timing"]
        report = RunReport.from_dict(payload["report"])
        # Restore the volatile envelope so a round-tripped report keeps
        # its original run cost (the canonical view still excludes it).
        report.wall_seconds = timing["wall_seconds"]
        report.overhead_stats = {
            name: OverheadStat(count=row[0], total_seconds=row[1], mean_seconds=row[2])
            for name, row in timing.get("overhead_stats", {}).items()
        }
        return cls(
            spec=RunSpec.from_dict(payload["spec"]),
            fingerprint=payload["fingerprint"],
            report=report,
            wall_seconds=timing["wall_seconds"],
            from_cache=from_cache,
        )

    def summary_line(self) -> str:
        origin = "cache" if self.from_cache else f"{self.wall_seconds:.2f}s"
        line = self.report.summary_line(self.spec.system)
        return f"[{self.fingerprint[:12]}] {line}  ({origin})"
