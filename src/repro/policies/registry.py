"""Registries for policies and policy bundles.

Individual policies register per kind (``placement`` / ``reclaim`` /
``admission`` / ``work``) under short names; bundles register complete
assignments under the system names reports carry.  Policy specs are
strings of the form ``name`` or ``name:arg`` — the optional argument is
passed to the factory as a string (e.g. ``keepalive:5`` for a 5-second
keep-alive, ``cpu-assist:16`` for 16 harvested cores) — so a sweep axis
or a ``--policy`` flag can select *and parameterize* a policy without
code.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

from repro.core.config import SlinferConfig
from repro.policies.admission import FifoAdmission, PdAdmission
from repro.policies.base import POLICY_KINDS, Policy, PolicyBundle
from repro.policies.reclaim import EagerReclaim, KeepAliveReclaim, NeverReclaim
from repro.policies.slinfer import SlinferPlacement
from repro.policies.sllm import SllmPlacement
from repro.policies.work import CpuAssistWork, DefaultWorkSelection
from repro.registries import Registry, RegistryError

PolicyFactory = Callable[..., Policy]

PLACEMENT_POLICIES: Registry[PolicyFactory] = Registry("placement policy")
RECLAIM_POLICIES: Registry[PolicyFactory] = Registry("reclaim policy")
ADMISSION_POLICIES: Registry[PolicyFactory] = Registry("admission policy")
WORK_POLICIES: Registry[PolicyFactory] = Registry("work policy")
BUNDLES: Registry[Callable[..., PolicyBundle]] = Registry("policy bundle")

POLICY_REGISTRIES: dict[str, Registry[PolicyFactory]] = {
    "placement": PLACEMENT_POLICIES,
    "reclaim": RECLAIM_POLICIES,
    "admission": ADMISSION_POLICIES,
    "work": WORK_POLICIES,
}


def resolve_policy(kind: str, spec: str) -> Policy:
    """Build the policy named by ``spec`` (``name`` or ``name:arg``)."""
    try:
        registry = POLICY_REGISTRIES[kind]
    except KeyError:
        known = ", ".join(POLICY_KINDS)
        raise RegistryError(f"unknown policy kind {kind!r} (known: {known})") from None
    name, _, arg = spec.partition(":")
    factory = registry.get(name.strip())
    try:
        policy = factory(arg.strip()) if arg else factory()
    except (TypeError, ValueError) as error:
        raise RegistryError(f"bad {kind} policy spec {spec!r}: {error}") from None
    policy.spec = spec
    return policy


def apply_overrides(
    bundle: PolicyBundle, overrides: Mapping[str, str] | Iterable[tuple[str, str]]
) -> PolicyBundle:
    """Replace the bundle's policies named in ``overrides`` (kind → spec)."""
    pairs = sorted(dict(overrides).items())
    if not pairs:
        return bundle
    replacements = {kind: resolve_policy(kind, spec) for kind, spec in pairs}
    suffix = ",".join(f"{kind}={spec}" for kind, spec in pairs)
    return bundle.with_policies(label_suffix=suffix, **replacements)


def build_bundle(
    name: str,
    overrides: Mapping[str, str] | Iterable[tuple[str, str]] | None = None,
    **kwargs,
) -> PolicyBundle:
    """Instantiate the named bundle, optionally with policy overrides."""
    bundle = BUNDLES.get(name)(**kwargs)
    if overrides:
        bundle = apply_overrides(bundle, overrides)
    return bundle


# ----------------------------------------------------------------------
# Built-in policies
# ----------------------------------------------------------------------
PLACEMENT_POLICIES.register("slinfer", SlinferPlacement)
PLACEMENT_POLICIES.register("sllm", lambda: SllmPlacement())
PLACEMENT_POLICIES.register("sllm+c", lambda: SllmPlacement(use_cpu=True))
PLACEMENT_POLICIES.register(
    "sllm+c+s", lambda: SllmPlacement(use_cpu=True, static_share=True)
)

RECLAIM_POLICIES.register("keepalive", lambda arg=None: KeepAliveReclaim(
    float(arg) if arg is not None else None
))
RECLAIM_POLICIES.register("eager", EagerReclaim)
RECLAIM_POLICIES.register("never", NeverReclaim)

ADMISSION_POLICIES.register("fifo", FifoAdmission)
ADMISSION_POLICIES.register("pd", PdAdmission)

WORK_POLICIES.register("default", DefaultWorkSelection)
WORK_POLICIES.register("cpu-assist", lambda arg="32": CpuAssistWork(int(arg)))


# ----------------------------------------------------------------------
# Built-in bundles: the paper's systems as policy assignments
# ----------------------------------------------------------------------
_NEO_FULL_CORES = 32
_NEO_MAX_LIMIT_GAIN = 0.5


def _spec(policy: Policy, spec: str) -> Policy:
    """Tag a bundle's policy with its registry spec for ``describe()``."""
    policy.spec = spec
    return policy


def _sllm_bundle(name: str, use_cpu: bool, static_share: bool) -> Callable[[], PolicyBundle]:
    def factory() -> PolicyBundle:
        return PolicyBundle(
            name=name,
            placement=_spec(SllmPlacement(use_cpu=use_cpu, static_share=static_share), name),
            reclaim=_spec(KeepAliveReclaim(), "keepalive"),
            admission=_spec(FifoAdmission(), "fifo"),
            work=_spec(DefaultWorkSelection(), "default"),
        )

    return factory


def slinfer_bundle() -> PolicyBundle:
    return PolicyBundle(
        name="slinfer",
        placement=_spec(SlinferPlacement(), "slinfer"),
        reclaim=_spec(KeepAliveReclaim(), "keepalive"),
        admission=_spec(FifoAdmission(), "fifo"),
        work=_spec(DefaultWorkSelection(), "default"),
        default_config=SlinferConfig,
    )


def neo_bundle(harvested_cores_per_gpu: int = 0) -> PolicyBundle:
    if harvested_cores_per_gpu < 0:
        raise ValueError("harvested cores must be non-negative")
    assist = min(1.0, harvested_cores_per_gpu / _NEO_FULL_CORES)
    return PolicyBundle(
        name="neo+",
        placement=_spec(
            SllmPlacement(limit_scale=1.0 + _NEO_MAX_LIMIT_GAIN * assist),
            f"sllm(limit_scale={1.0 + _NEO_MAX_LIMIT_GAIN * assist:g})",
        ),
        reclaim=_spec(KeepAliveReclaim(), "keepalive"),
        admission=_spec(FifoAdmission(), "fifo"),
        work=_spec(CpuAssistWork(harvested_cores_per_gpu), f"cpu-assist:{harvested_cores_per_gpu}"),
    )


def pd_sllm_bundle() -> PolicyBundle:
    return PolicyBundle(
        name="sllm+c+s+pd",
        placement=_spec(SllmPlacement(use_cpu=True, static_share=True), "sllm+c+s"),
        reclaim=_spec(KeepAliveReclaim(), "keepalive"),
        admission=_spec(PdAdmission(), "pd"),
        work=_spec(DefaultWorkSelection(), "default"),
    )


def pd_slinfer_bundle() -> PolicyBundle:
    return PolicyBundle(
        name="slinfer+pd",
        placement=_spec(SlinferPlacement(), "slinfer"),
        reclaim=_spec(KeepAliveReclaim(), "keepalive"),
        admission=_spec(PdAdmission(), "pd"),
        work=_spec(DefaultWorkSelection(), "default"),
        default_config=SlinferConfig,
    )


BUNDLES.register("sllm", _sllm_bundle("sllm", use_cpu=False, static_share=False))
BUNDLES.register("sllm+c", _sllm_bundle("sllm+c", use_cpu=True, static_share=False))
BUNDLES.register("sllm+c+s", _sllm_bundle("sllm+c+s", use_cpu=True, static_share=True))
BUNDLES.register("slinfer", slinfer_bundle)
BUNDLES.register("neo+", neo_bundle)
BUNDLES.register("pd-sllm", pd_sllm_bundle)
BUNDLES.register("pd-slinfer", pd_slinfer_bundle)
