"""Run specifications and results.

A :class:`RunSpec` names one simulation completely: the serving system,
the workload scenario and its parameters, the cluster shape, the seed,
and the trace scale.  Everything is a registry name or a JSON-safe
value, so a spec is trivially picklable (for worker processes) and
hashable into a stable fingerprint (for the on-disk result cache).

Each ``RunSpec`` field is one sweep axis, and the field is its only
declaration: ``to_dict``, ``from_dict``, ``fingerprint`` and
:func:`~repro.runner.executor.build_system` iterate the dataclass
fields.  Adding an axis is one field; give it :func:`axis` metadata when
the payload must omit its default (so fingerprints minted before the
axis existed stay valid), when it must not key the result cache, or
when a non-default value is forwarded to the system factory.

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
import itertools
import json
from dataclasses import dataclass, field
from dataclasses import fields as dataclass_fields
from typing import Any, Iterable, Sequence

from repro.core.config import SlinferConfig
from repro.kv import KV_SHARING_MODES
from repro.metrics.collector import METRICS_MODES
from repro.metrics.report import OverheadStat, RunReport
from repro.models.catalog import get_model
from repro.registry import resolve_scenario
from repro.runner.scale import get_scale
from repro.sim.engine import ENGINES
from repro.workloads.azure_serverless import REQUESTS_PER_MODEL_30MIN
from repro.workloads.spec import Workload
from repro.workloads.stream import WorkloadStream

PAYLOAD_VERSION = 1


def axis(
    default: Any,
    *,
    omit_default: bool = False,
    hashed: bool = True,
    forward: str | None = None,
) -> Any:
    """A :class:`RunSpec` field whose metadata carries its serialization rules.

    ``omit_default`` leaves the field out of the payload while it holds
    its default, so payloads (fingerprints, cached results) minted before
    the axis existed stay valid for default-valued specs.  ``hashed=False``
    keeps a serialized field out of the fingerprint.  ``forward`` names
    the system-factory keyword a non-default value is passed as.
    """
    return field(
        default=default,
        metadata={"omit_default": omit_default, "hashed": hashed, "forward": forward},
    )


def axis_value(value: Any) -> Any:
    """An axis value as it crosses the payload: a pair tuple becomes a dict."""
    if not isinstance(value, tuple):
        return value
    return {key: list(item) if isinstance(item, tuple) else item for key, item in value}


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
    # the cluster factory's choice (the uniform default for most shapes).
    topology: str | None = axis(None, omit_default=True)
    seed: int = 1
    scale: str = "quick"
    duration: float | None = None  # explicit override of the scale's window
    scenario_params: tuple[tuple[str, Any], ...] = ()
    # Policy ablations: (kind, spec) pairs replacing one mechanism of the
    # system's bundle, e.g. (("reclaim", "never"),).  Every policy
    # combination caches separately.
    policy_overrides: tuple[tuple[str, str], ...] = axis(
        (), omit_default=True, forward="policy_overrides"
    )
    # Metrics accumulation mode: "exact" (lossless, O(requests) memory)
    # or "streaming" (bounded sketches, long-horizon runs).  The payload
    # shapes differ, so non-default modes fingerprint separately.
    metrics: str = axis("exact", omit_default=True, forward="metrics")
    # Engine backend executing the simulation; None runs the process
    # default (REPRO_ENGINE, else vectorized), an explicit name pins
    # that backend.  Backends are byte-identical by contract, so an
    # engine choice never invalidates (or forks) the result cache; the
    # payload still carries it so worker processes run the pinned backend.
    engine: str | None = axis(None, omit_default=True, hashed=False, forward="engine")
    # Prefix-sharing block-map subsystem (KV_SHARING_MODES).  Unlike the
    # engine axis, sharing *changes results* (prefill work shrinks on
    # cache hits), so "on" is part of the fingerprint.
    kv_sharing: str = axis("off", omit_default=True, forward="kv_sharing")
    # Federation (multi-cluster fleet) name from repro.federation, or
    # None for a plain single-cluster run.  Sharding changes what is
    # simulated (N clusters, cross-shard routing), so a named federation
    # is part of the fingerprint.  Like cluster/scenario names, the value
    # is resolved against its registry at execution (and CLI) time, not
    # here — keeping the spec import-light.
    federation: str | None = axis(None, omit_default=True)
    # SlinferConfig field overrides, e.g. (("enable_cpu", False),), applied
    # to the system's own config class.  Default-valued entries are dropped.
    config: tuple[tuple[str, Any], ...] = axis((), omit_default=True, forward="config_overrides")

    def __post_init__(self) -> None:
        object.__setattr__(self, "scenario_params", _freeze_params(self.scenario_params))
        object.__setattr__(self, "policy_overrides", _freeze_overrides(self.policy_overrides))
        object.__setattr__(self, "config", _freeze_config(self.config))
        # Canonical: "smok" must not run, nor "Quick" cache apart from "quick".
        object.__setattr__(self, "scale", get_scale(self.scale).label)
        if self.metrics not in METRICS_MODES:
            raise ValueError(
                f"unknown metrics mode {self.metrics!r} (known: {', '.join(METRICS_MODES)})"
            )
        if self.engine is not None and self.engine not in ENGINES.names():
            raise ValueError(
                f"unknown engine {self.engine!r} (known: {', '.join(ENGINES.names())})"
            )
        if self.kv_sharing not in KV_SHARING_MODES:
            raise ValueError(
                f"unknown kv_sharing mode {self.kv_sharing!r} "
                f"(known: {', '.join(KV_SHARING_MODES)})"
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
        return axis_value(self.scenario_params)

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {}
        for entry in dataclass_fields(self):
            value = getattr(self, entry.name)
            if not (entry.metadata.get("omit_default") and value == entry.default):
                payload[entry.name] = axis_value(value)
        return payload

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "RunSpec":
        known = [entry.name for entry in dataclass_fields(cls)]
        unknown = sorted(key for key in payload if key not in known)
        if unknown:
            raise ValueError(
                f"unknown RunSpec key(s) {', '.join(map(repr, unknown))} "
                f"(known: {', '.join(known)})"
            )
        return cls(**payload)

    def fingerprint(self) -> str:
        """Stable content hash of the spec (the cache key).

        Fields marked ``hashed=False`` (the engine axis) are left out:
        backends are byte-identical, so a cached result computed under
        either backend answers a spec pinned to the other.
        """
        payload = self.to_dict()
        for entry in dataclass_fields(self):
            if not entry.metadata.get("hashed", True):
                payload.pop(entry.name, None)
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


#: expand_grid's swept axes, outermost first: keyword -> RunSpec field.
_GRID_AXES: tuple[tuple[str, str], ...] = (
    ("scenarios", "scenario"),
    ("models", "model"),
    ("n_models", "n_models"),
    ("clusters", "cluster"),
    ("topologies", "topology"),
    ("federations", "federation"),
    ("seeds", "seed"),
)


def expand_grid(
    systems: Iterable[str],
    *,
    policies: dict[str, Sequence[str]] | None = None,
    **axes: Any,
) -> list[RunSpec]:
    """The cross-product of the given axes, in deterministic order.

    Each swept keyword (``scenarios``, ``models``, ``n_models``,
    ``clusters``, ``topologies``, ``federations``, ``seeds``) takes an
    iterable of values for its field; any other keyword is a
    :class:`RunSpec` field value shared by the whole grid (``scale=``,
    ``duration=``, ``metrics=``...).  An axis the caller leaves out keeps
    the field's default.

    Workload axes vary outermost and systems innermost, so consecutive
    specs compare systems on the same workload.  ``policies`` adds a
    policy cross-product *inside* each system (see
    :func:`expand_policy_grid`), turning every mechanism ablation into
    a one-line sweep; ``topologies`` varies the interconnect under each
    cluster shape the same way (``None`` = the cluster's own topology),
    and ``federations`` multiplies each cluster into the named fleets
    (``None`` = plain unsharded run).
    """
    names: list[str] = []
    values: list[list[Any]] = []
    for keyword, name in _GRID_AXES:
        if keyword in axes:
            names.append(name)
            values.append(list(axes.pop(keyword)))
    names.append("system")
    values.append(list(systems))
    if policies:
        names.append("policy_overrides")
        values.append(expand_policy_grid(policies))
    return [
        RunSpec(**axes, **dict(zip(names, combo))) for combo in itertools.product(*values)
    ]


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
                "overhead_stats": OverheadStat.encode(self.report.overhead_stats),
            },
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any], from_cache: bool = False) -> "RunResult":
        timing = payload["timing"]
        report = RunReport.from_dict(payload["report"])
        # Restore the volatile envelope so a round-tripped report keeps
        # its original run cost (the canonical view still excludes it).
        report.wall_seconds = timing["wall_seconds"]
        report.overhead_stats = OverheadStat.decode(timing.get("overhead_stats", {}))
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
