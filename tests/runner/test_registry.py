"""Registry registration, lookup, and error behaviour."""

import pytest

from repro.registries import compile_brace_template
from repro.registry import (
    CLUSTERS,
    SCENARIOS,
    STANDARD_SYSTEMS,
    SYSTEMS,
    Registry,
    RegistryError,
    UnknownScenarioError,
    build_cluster,
    resolve_scenario,
    system_factory,
)


def test_register_as_decorator_returns_the_function():
    reg = Registry("thing")

    @reg.register("alpha")
    def alpha():
        return 1

    assert alpha() == 1
    assert reg.get("alpha") is alpha
    assert "alpha" in reg


def test_register_direct_and_names_sorted():
    reg = Registry("thing")
    reg.register("b", object())
    reg.register("a", object())
    assert reg.names() == ["a", "b"]
    assert len(reg) == 2
    assert list(reg) == ["a", "b"]


def test_duplicate_registration_is_an_error():
    reg = Registry("thing")
    reg.register("x", 1)
    with pytest.raises(RegistryError, match="already registered"):
        reg.register("x", 2)


def test_unknown_lookup_lists_known_names():
    reg = Registry("gadget")
    reg.register("left", 1)
    reg.register("right", 2)
    with pytest.raises(RegistryError, match=r"unknown gadget 'middle' \(known: left, right\)"):
        reg.get("middle")


def test_builtin_systems_cover_the_paper():
    for name in ("sllm", "sllm+c", "sllm+c+s", "slinfer", "neo+", "pd-sllm", "pd-slinfer"):
        assert name in SYSTEMS
    assert set(STANDARD_SYSTEMS) <= set(SYSTEMS.names())


def test_builtin_scenarios_registered():
    for name in ("azure", "burstgpt", "diurnal", "bursty-spike", "mixed-fleet"):
        assert name in SCENARIOS


def test_system_factory_builds_named_system(small_cluster):
    system = system_factory("sllm+c+s")(small_cluster)
    assert system.name == "sllm+c+s"


def test_build_cluster_registered_and_pattern():
    paper = build_cluster("paper")
    assert len(paper.cpu_nodes) == 4 and len(paper.gpu_nodes) == 4
    assert "paper" in CLUSTERS
    adhoc = build_cluster("cpu1-gpu3")
    assert len(adhoc.cpu_nodes) == 1 and len(adhoc.gpu_nodes) == 3


def test_build_cluster_unknown_name():
    with pytest.raises(RegistryError, match="unknown cluster"):
        build_cluster("warehouse-scale")


# ----------------------------------------------------------------------
# Pattern resolution (the shared brace-template machinery)
# ----------------------------------------------------------------------
def test_compile_brace_template_matches_and_escapes():
    regex = compile_brace_template("cpu{N}-gpu{M}")
    match = regex.fullmatch("cpu4-gpu12")
    assert match and match.groupdict() == {"N": "4", "M": "12"}
    assert regex.fullmatch("cpu4-gpu12-extra") is None
    # Literal segments are escaped, not treated as regex.
    dotty = compile_brace_template("v1.{X}")
    assert dotty.fullmatch("v1x2") is None and dotty.fullmatch("v1.2")


def test_compile_brace_template_requires_a_placeholder():
    with pytest.raises(ValueError, match="placeholder"):
        compile_brace_template("static-name")


def test_register_pattern_resolves_with_int_params():
    reg = Registry("widget")
    reg.register("fixed", "FIXED")

    @reg.register_pattern("size{N}", summary="ad-hoc sizes")
    def _build(name, N):
        return f"{name}:{N * 2}"

    assert reg.resolve("fixed") == "FIXED"  # exact names win
    assert reg.resolve("size21") == "size21:42"
    assert reg.pattern_templates() == [("size{N}", "ad-hoc sizes")]


def test_resolve_unknown_raises_typed_error_listing_forms():
    reg = Registry("widget", unknown_error=UnknownScenarioError)
    reg.register("only", 1)
    reg.register_pattern("size{N}")(lambda name, N: N)
    with pytest.raises(UnknownScenarioError, match=r"only.*'size\{N\}'"):
        reg.resolve("missing")


def test_scenario_patterns_resolve_through_the_registry():
    factory = resolve_scenario("prefix-mix75")
    assert callable(factory)
    assert SCENARIOS.resolve("azure") is SCENARIOS.get("azure")
    with pytest.raises(UnknownScenarioError, match="unknown scenario"):
        resolve_scenario("prefix-blend50")


def test_cluster_patterns_enforce_bounds():
    harvest = build_cluster("harvest16")
    assert len(harvest.cpu_nodes) == 4 and len(harvest.gpu_nodes) == 4
    with pytest.raises(RegistryError, match="harvested cores"):
        build_cluster("harvest999")
