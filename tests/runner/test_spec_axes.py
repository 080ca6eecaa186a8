"""Every RunSpec axis reaches the payload, the round trip and the cache key.

Each ``RunSpec`` field is one sweep axis, and its dataclass metadata
(:func:`repro.runner.spec.axis`) is its only serialization rule:
``to_dict``, ``from_dict``, ``fingerprint`` and ``build_system`` iterate
the fields.  The pins below are literal payloads and fingerprints of
specs minted before the fields carried that metadata, so a change that
re-keys cached results fails here; the per-field checks fail when a
field is dropped from the payload, lost by the round trip, or misses
the fingerprint.
"""

import json
from dataclasses import fields, replace

import pytest

from repro.runner import RunSpec, build_system
from repro.runner import executor as executor_module

#: axis -> (RunSpec kwargs, sorted to_dict JSON, fingerprint)
PINNED = {
    "topology": (
        {"topology": "oversub-nic"},
        '{"cluster": "paper", "duration": null, "model": "llama-2-7b", "n_models": 32, '
        '"scale": "quick", "scenario": "azure", "scenario_params": {}, "seed": 1, '
        '"system": "slinfer", "topology": "oversub-nic"}',
        "51801da4ce8710f24825938960c9dd2e771ea2e42469edc94c1cb7320ee4703e",
    ),
    "policy_overrides": (
        {"policy_overrides": {"reclaim": "never", "placement": "sllm"}},
        '{"cluster": "paper", "duration": null, "model": "llama-2-7b", "n_models": 32, '
        '"policy_overrides": {"placement": "sllm", "reclaim": "never"}, "scale": "quick", '
        '"scenario": "azure", "scenario_params": {}, "seed": 1, "system": "slinfer"}',
        "93f97c0be3d050c2008e1853955ba33f384c16d23d6c17b66625ad65dc7fd9fa",
    ),
    "metrics": (
        {"metrics": "streaming"},
        '{"cluster": "paper", "duration": null, "metrics": "streaming", '
        '"model": "llama-2-7b", "n_models": 32, "scale": "quick", "scenario": "azure", '
        '"scenario_params": {}, "seed": 1, "system": "slinfer"}',
        "43067584cb25ca602b8b598d98d588cf4d17263231188c9c0dea4a80ffdb2c18",
    ),
    "kv_sharing": (
        {"kv_sharing": "on"},
        '{"cluster": "paper", "duration": null, "kv_sharing": "on", "model": "llama-2-7b", '
        '"n_models": 32, "scale": "quick", "scenario": "azure", "scenario_params": {}, '
        '"seed": 1, "system": "slinfer"}',
        "39feb8620a180f12be2907fd5d6401d5735bac85634c067cf758c235aff0fcc6",
    ),
    "federation": (
        {"federation": "fleet4"},
        '{"cluster": "paper", "duration": null, "federation": "fleet4", '
        '"model": "llama-2-7b", "n_models": 32, "scale": "quick", "scenario": "azure", '
        '"scenario_params": {}, "seed": 1, "system": "slinfer"}',
        "f515b77cac4e8ba96f2a12a018ffdb0fd3d698b2c2b7ac50d065a975157923d0",
    ),
    "config": (
        {"config": {"watermark": 0.5, "enable_cpu": False}},
        '{"cluster": "paper", "config": {"enable_cpu": false, "watermark": 0.5}, '
        '"duration": null, "model": "llama-2-7b", "n_models": 32, "scale": "quick", '
        '"scenario": "azure", "scenario_params": {}, "seed": 1, "system": "slinfer"}',
        "980bfd7a7c63b32c6b9f9f34d09a317926e8460ff92be4476a577665947b4b8f",
    ),
    "scenario_params": (
        {"scenario_params": {"ratio": (4, 1, 1, 1), "dataset": "sharegpt"}},
        '{"cluster": "paper", "duration": null, "model": "llama-2-7b", "n_models": 32, '
        '"scale": "quick", "scenario": "azure", '
        '"scenario_params": {"dataset": "sharegpt", "ratio": [4, 1, 1, 1]}, '
        '"seed": 1, "system": "slinfer"}',
        "fc68ebfd1b634b382144a2c17e10f9fa27e0738c4b442fdaf2dfe5eb5ec6326d",
    ),
    "duration": (
        {"duration": 120.0},
        '{"cluster": "paper", "duration": 120.0, "model": "llama-2-7b", "n_models": 32, '
        '"scale": "quick", "scenario": "azure", "scenario_params": {}, "seed": 1, '
        '"system": "slinfer"}',
        "e02cc87c7b8159985ee4d51a736f31ced5fecc86e1e950ba2a776147a8a712f0",
    ),
}

#: RunSpec(system="slinfer").fingerprint(), unchanged since before the
#: optional axes existed
DEFAULT_FINGERPRINT = "5edf9c317413969ad361538f9a7efef85ef3f125ecbca1a319ebecdc534567c2"

#: one non-default value per RunSpec field (the base spec is slinfer's)
NON_DEFAULT = {
    "system": "sllm",
    "scenario": "diurnal",
    "model": "llama-2-13b",
    "n_models": 4,
    "cluster": "cpu2-gpu2",
    "topology": "oversub-nic",
    "seed": 2,
    "scale": "smoke",
    "duration": 120.0,
    "scenario_params": {"ratio": (4, 1, 1, 1)},
    "policy_overrides": {"reclaim": "never"},
    "metrics": "streaming",
    "engine": "reference",
    "kv_sharing": "on",
    "federation": "fleet4",
    "config": {"watermark": 0.5},
}

#: the system-factory keyword each forwarded axis arrives under
FORWARDED = {
    "policy_overrides": ("policy_overrides", {"reclaim": "never"}),
    "metrics": ("metrics", "streaming"),
    "engine": ("engine", "reference"),
    "kv_sharing": ("kv_sharing", "on"),
    "config": ("config_overrides", {"watermark": 0.5}),
}

_FIELDS = {entry.name: entry for entry in fields(RunSpec)}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_payload_and_fingerprint(name):
    kwargs, payload, fingerprint = PINNED[name]
    spec = RunSpec(system="slinfer", **kwargs)
    assert json.dumps(spec.to_dict(), sort_keys=True) == payload
    assert spec.fingerprint() == fingerprint


def test_default_spec_omits_every_optional_axis():
    spec = RunSpec(system="slinfer")
    assert json.dumps(spec.to_dict(), sort_keys=True) == (
        '{"cluster": "paper", "duration": null, "model": "llama-2-7b", "n_models": 32, '
        '"scale": "quick", "scenario": "azure", "scenario_params": {}, "seed": 1, '
        '"system": "slinfer"}'
    )
    assert spec.fingerprint() == DEFAULT_FINGERPRINT


def test_engine_pinned_spec_fingerprints_like_the_default():
    for engine in ("reference", "vectorized"):
        spec = RunSpec(system="slinfer", engine=engine)
        assert spec.to_dict()["engine"] == engine  # workers still run the pinned backend
        assert spec.fingerprint() == DEFAULT_FINGERPRINT


def test_every_field_has_a_non_default_sample():
    # A new axis must be added here, which runs it through the checks below.
    assert sorted(NON_DEFAULT) == sorted(_FIELDS)


@pytest.mark.parametrize("name", sorted(NON_DEFAULT))
def test_non_default_axis_serializes_round_trips_and_keys_the_cache(name):
    base = RunSpec(system="slinfer")
    spec = replace(base, **{name: NON_DEFAULT[name]})
    assert spec != base
    payload = spec.to_dict()
    assert name in payload
    # Pipe workers rebuild specs from to_dict(); the cache reads JSON.
    assert RunSpec.from_dict(payload) == spec
    assert RunSpec.from_dict(json.loads(json.dumps(payload))) == spec
    if _FIELDS[name].metadata.get("hashed", True):
        assert spec.fingerprint() != base.fingerprint()
    else:
        assert spec.fingerprint() == base.fingerprint()


@pytest.fixture
def factory_calls(monkeypatch):
    calls = []

    def fake_factory(name):
        def build(cluster, **kwargs):
            calls.append(kwargs)
            return kwargs

        return build

    monkeypatch.setattr(executor_module, "system_factory", fake_factory)
    return calls


def test_default_spec_forwards_no_axis(factory_calls):
    build_system(RunSpec(system="slinfer"))
    assert factory_calls == [{}]


@pytest.mark.parametrize("name", sorted(FORWARDED))
def test_non_default_axis_is_forwarded_to_the_factory(factory_calls, name):
    keyword, value = FORWARDED[name]
    assert _FIELDS[name].metadata["forward"] == keyword
    build_system(replace(RunSpec(system="slinfer"), **{name: NON_DEFAULT[name]}))
    assert factory_calls == [{keyword: value}]


def test_caller_system_kwargs_win_over_the_spec(factory_calls):
    build_system(RunSpec(system="slinfer", metrics="streaming"), metrics="exact")
    assert factory_calls == [{"metrics": "exact"}]
