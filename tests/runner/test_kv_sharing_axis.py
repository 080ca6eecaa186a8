"""The spec-level kv_sharing axis: serialization, fingerprints, grids.

Unlike the engine axis, kv_sharing changes *what* a run measures —
shared prompts prefill less and admit earlier — so "on" must fork the
fingerprint.  "off" is the pre-axis behaviour and serializes invisibly:
every payload and fingerprint minted before the axis existed keeps
loading and keeps naming the same cached result.
"""

from __future__ import annotations

import pytest

from repro.registry import RegistryError, resolve_scenario
from repro.runner import RunSpec, expand_grid


def _spec(**kwargs) -> RunSpec:
    return RunSpec(system="slinfer", scenario="azure", n_models=2, seed=1, **kwargs)


def test_off_mode_omitted_from_payload():
    assert "kv_sharing" not in _spec().to_dict()


def test_on_mode_round_trips():
    spec = _spec(kv_sharing="on")
    payload = spec.to_dict()
    assert payload["kv_sharing"] == "on"
    assert RunSpec.from_dict(payload) == spec
    assert RunSpec.from_dict(_spec().to_dict()).kv_sharing == "off"


def test_fingerprint_forks_when_sharing_is_on():
    # Sharing changes results, so on-mode runs must not collide with the
    # unshared cache entries...
    assert _spec().fingerprint() != _spec(kv_sharing="on").fingerprint()
    # ...while off-mode stays byte-identical with pre-axis fingerprints
    # (the field is absent from the hashed payload, not hashed as "off").
    assert "kv_sharing" not in _spec().to_dict()


def test_label_names_sharing_mode():
    assert "kv=on" in _spec(kv_sharing="on").label()
    assert "kv=" not in _spec().label()


def test_unknown_mode_rejected():
    with pytest.raises(ValueError, match=r"kv_sharing.*\(known: off, on\)"):
        _spec(kv_sharing="sometimes")


def test_serving_system_names_the_known_modes():
    from repro.core.system import ServingSystem
    from repro.registry import build_cluster

    with pytest.raises(ValueError, match=r"'sometimes' \(known: off, on\)"):
        ServingSystem(build_cluster("cpu2-gpu2"), "slinfer", kv_sharing="sometimes")


def test_expand_grid_threads_kv_sharing():
    specs = expand_grid(["slinfer"], n_models=(2,), seeds=(1, 2), kv_sharing="on")
    assert specs
    assert all(spec.kv_sharing == "on" for spec in specs)


# ----------------------------------------------------------------------
# The prefix-mix{P} scenario pattern rides the same axis.
# ----------------------------------------------------------------------
def test_resolve_scenario_passes_through_registered_names():
    from repro.registry import SCENARIOS

    assert resolve_scenario("azure") is SCENARIOS.get("azure")


def test_resolve_scenario_parses_prefix_mix_percent():
    factory = resolve_scenario("prefix-mix75")
    assert factory.__name__ == "prefix_mix_75"


def test_prefix_mix_percent_sets_share():
    from repro.models import LLAMA2_7B

    full = resolve_scenario("prefix-mix100")(
        LLAMA2_7B, n_models=2, duration=60.0, requests_per_model=20, seed=7
    )
    none = resolve_scenario("prefix-mix0")(
        LLAMA2_7B, n_models=2, duration=60.0, requests_per_model=20, seed=7
    )
    assert all(request.prefix_id for request in full)
    assert not any(request.prefix_id for request in none)


def test_prefix_mix_percent_over_100_rejected():
    with pytest.raises(RegistryError, match="0..100"):
        resolve_scenario("prefix-mix101")


def test_unknown_scenario_rejected_with_known_names():
    with pytest.raises(RegistryError, match="prefix-mix"):
        resolve_scenario("no-such-scenario")
