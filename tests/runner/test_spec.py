"""RunSpec identity, grids, and workload materialization."""

import pytest

from repro.runner import (
    RunSpec,
    build_workload,
    expand_grid,
    expand_policy_grid,
    get_scale,
)


def test_fingerprint_stable_and_sensitive():
    spec = RunSpec(system="sllm", seed=1)
    assert spec.fingerprint() == RunSpec(system="sllm", seed=1).fingerprint()
    assert spec.fingerprint() != RunSpec(system="sllm", seed=2).fingerprint()
    assert spec.fingerprint() != RunSpec(system="slinfer", seed=1).fingerprint()
    assert (
        spec.fingerprint()
        != RunSpec(system="sllm", seed=1, scenario_params={"dataset": "sharegpt"}).fingerprint()
    )


def test_scenario_params_normalized_from_dict():
    a = RunSpec(system="sllm", scenario_params={"b": 2, "a": 1})
    b = RunSpec(system="sllm", scenario_params=(("a", 1), ("b", 2)))
    assert a == b
    assert a.fingerprint() == b.fingerprint()
    assert a.params_dict() == {"a": 1, "b": 2}


def test_spec_dict_round_trip():
    spec = RunSpec(
        system="slinfer",
        scenario="mixed-fleet",
        n_models=12,
        cluster="cpu2-gpu2",
        seed=7,
        duration=120.0,
        scenario_params={"ratio": (4, 1, 1, 1)},
    )
    assert RunSpec.from_dict(spec.to_dict()) == spec


def test_resolved_duration_prefers_override():
    assert RunSpec(system="sllm", scale="smoke").resolved_duration() == get_scale("smoke").duration
    assert RunSpec(system="sllm", scale="smoke", duration=42.0).resolved_duration() == 42.0


def test_resolved_requests_per_model_is_rate_preserving():
    half_hour = RunSpec(system="sllm", duration=1800.0)
    tenth = RunSpec(system="sllm", duration=180.0)
    assert half_hour.resolved_requests_per_model() == pytest.approx(73.0)
    assert tenth.resolved_requests_per_model() == pytest.approx(7.3)


def test_expand_grid_cross_product_order():
    specs = expand_grid(
        ["sllm", "slinfer"],
        scenarios=["azure", "diurnal"],
        seeds=[1, 2],
        scale="smoke",
    )
    assert len(specs) == 8
    # Workload axes outermost, systems innermost.
    assert [(s.scenario, s.seed, s.system) for s in specs[:4]] == [
        ("azure", 1, "sllm"),
        ("azure", 1, "slinfer"),
        ("azure", 2, "sllm"),
        ("azure", 2, "slinfer"),
    ]
    assert {s.scenario for s in specs[4:]} == {"diurnal"}
    assert all(s.scale == "smoke" for s in specs)


def test_build_workload_respects_spec():
    spec = RunSpec(system="sllm", scenario="azure", n_models=4, duration=60.0, seed=5)
    workload = build_workload(spec)
    assert len(workload.deployments) == 4
    assert workload.duration == 60.0
    # Same spec -> identical workload; different seed -> different trace.
    again = build_workload(spec)
    assert [r.arrival for r in workload.requests] == [r.arrival for r in again.requests]


def test_build_workload_unknown_scenario():
    with pytest.raises(KeyError):
        build_workload(RunSpec(system="sllm", scenario="no-such-trace"))


# ----------------------------------------------------------------------
# Policy overrides
# ----------------------------------------------------------------------
def test_policy_overrides_fold_into_fingerprint():
    plain = RunSpec(system="slinfer")
    ablated = RunSpec(system="slinfer", policy_overrides={"reclaim": "never"})
    other = RunSpec(system="slinfer", policy_overrides={"reclaim": "eager"})
    assert plain.fingerprint() != ablated.fingerprint()
    assert ablated.fingerprint() != other.fingerprint()


def test_empty_overrides_keep_pre_policy_fingerprints():
    # Specs without overrides serialize exactly as before the policy
    # redesign, so cached results stay addressable.
    spec = RunSpec(system="sllm", seed=1)
    assert "policy_overrides" not in spec.to_dict()
    assert spec == RunSpec(system="sllm", seed=1, policy_overrides=())


def test_policy_overrides_normalized_and_round_tripped():
    a = RunSpec(system="slinfer", policy_overrides={"work": "cpu-assist:16", "reclaim": "never"})
    b = RunSpec(
        system="slinfer",
        policy_overrides=(("reclaim", "never"), ("work", "cpu-assist:16")),
    )
    assert a == b
    assert RunSpec.from_dict(a.to_dict()) == a
    assert "[reclaim=never,work=cpu-assist:16]" in a.label()


def test_expand_policy_grid_cross_product():
    combos = expand_policy_grid(
        {"placement": ["slinfer", "sllm"], "reclaim": ["keepalive", "never"]}
    )
    assert len(combos) == 4
    assert combos[0] == (("placement", "slinfer"), ("reclaim", "keepalive"))
    assert combos[-1] == (("placement", "sllm"), ("reclaim", "never"))
    assert expand_policy_grid(None) == [()]


def test_expand_grid_with_policy_axis():
    specs = expand_grid(
        ["slinfer"],
        seeds=[1, 2],
        scale="smoke",
        policies={"reclaim": ["keepalive", "never"]},
    )
    assert len(specs) == 4
    assert [s.policy_overrides for s in specs[:2]] == [
        (("reclaim", "keepalive"),),
        (("reclaim", "never"),),
    ]
    assert len({s.fingerprint() for s in specs}) == 4


def test_execute_spec_applies_policy_overrides():
    from repro.runner import execute_spec

    spec = RunSpec(
        system="sllm",
        n_models=2,
        cluster="cpu0-gpu1",
        seed=1,
        duration=30.0,
        policy_overrides={"reclaim": "never"},
    )
    result = execute_spec(spec)
    assert result.report.system == "sllm[reclaim=never]"


# ----------------------------------------------------------------------
# SlinferConfig overrides (the config axis)
# ----------------------------------------------------------------------
def test_config_overrides_fold_into_fingerprint():
    plain = RunSpec(system="slinfer")
    ablated = RunSpec(system="slinfer", config={"enable_cpu": False})
    watermark = RunSpec(system="slinfer", config={"watermark": 0.5})
    assert len({plain.fingerprint(), ablated.fingerprint(), watermark.fingerprint()}) == 3


def test_empty_or_default_config_keeps_pre_axis_fingerprint():
    # RunSpec(system="slinfer", seed=1).fingerprint() before the axis existed.
    pre_axis = "5edf9c317413969ad361538f9a7efef85ef3f125ecbca1a319ebecdc534567c2"
    spec = RunSpec(system="slinfer", seed=1)
    assert "config" not in spec.to_dict()
    for config in ((), {}, {"keepalive": 1.0}, {"watermark": 0.25, "enable_cpu": True}):
        same = RunSpec(system="slinfer", seed=1, config=config)
        assert same == spec
        assert same.fingerprint() == spec.fingerprint()
    assert spec.fingerprint() == pre_axis


def test_config_normalized_round_tripped_and_labelled():
    a = RunSpec(system="slinfer", config={"watermark": 0.5, "enable_cpu": False})
    b = RunSpec(system="slinfer", config=(("enable_cpu", False), ("watermark", 0.5)))
    assert a == b
    assert a.config == (("enable_cpu", False), ("watermark", 0.5))
    assert RunSpec.from_dict(a.to_dict()) == a
    assert a.label().endswith("-> slinfer enable_cpu=False watermark=0.5")


def test_config_unknown_field_is_an_error():
    with pytest.raises(ValueError, match="unknown config field 'warp'"):
        RunSpec(system="slinfer", config={"warp": 9})


def test_execute_spec_applies_config_like_a_hand_built_system():
    from repro.core import SlinferConfig
    from repro.registry import build_cluster, system_factory
    from repro.runner import execute_spec

    spec = RunSpec(system="slinfer", n_models=4, duration=60.0, config={"enable_cpu": False})
    by_spec = execute_spec(spec).report
    config = SlinferConfig(enable_cpu=False)
    by_hand = system_factory("slinfer")(build_cluster("paper"), config=config).run(
        build_workload(spec)
    )
    assert by_spec.to_dict(include_volatile=False) == by_hand.to_dict(include_volatile=False)
    assert by_spec.avg_nodes_used_cpu == 0.0


def test_summary_line_names_the_parametrised_system():
    # Every neo+{C} report carries the bundle name "neo+"; the sweep's
    # summary line must still tell the variants apart.
    from repro.runner import execute_spec

    results = [
        execute_spec(RunSpec(system=system, n_models=2, duration=30.0))
        for system in ("neo+8", "neo+16")
    ]
    assert {result.report.system for result in results} == {"neo+"}
    lines = [result.summary_line() for result in results]
    assert lines[0] != lines[1]
    assert "neo+8:" in lines[0] and "neo+16:" in lines[1]


def test_config_field_the_system_lacks_is_a_value_error():
    # watermark is a SlinferConfig field; sllm runs on the base SystemConfig.
    from repro.runner import execute_spec

    spec = RunSpec(system="sllm", n_models=2, duration=30.0, config={"watermark": 0.3})
    with pytest.raises(ValueError, match=r"'sllm'.*'watermark'.*SystemConfig"):
        execute_spec(spec)


# ----------------------------------------------------------------------
# Validation at construction
# ----------------------------------------------------------------------
def test_unknown_scale_is_an_error_even_with_an_explicit_duration():
    with pytest.raises(KeyError, match="unknown scale 'smok'"):
        RunSpec(system="sllm", scale="smok", duration=60.0)


def test_from_dict_rejects_an_unknown_key():
    with pytest.raises(ValueError, match="unknown RunSpec key.*'colour'"):
        RunSpec.from_dict({"system": "sllm", "colour": "red"})


def test_scale_label_is_canonical():
    # Labels resolve case-insensitively; the spec and the bench config
    # store the canonical one, so one experiment has one cache key.
    from repro.bench.config import BenchConfig

    mixed = RunSpec(system="sllm", scale="Quick")
    assert mixed.scale == "quick"
    assert mixed == RunSpec(system="sllm", scale="quick")
    assert mixed.fingerprint() == RunSpec(system="sllm", scale="quick").fingerprint()
    assert mixed.label() == RunSpec(system="sllm", scale="quick").label()
    assert RunSpec.from_dict({"system": "sllm", "scale": "SMOKE"}).scale == "smoke"
    assert BenchConfig(scale="Smoke").scale == "smoke"
