"""The spec-level engine axis: serialization, fingerprints, grids.

The contract (see ``RunSpec.engine``): backends are byte-identical, so
the engine names *how* a spec runs, never *what* it measures — the
unpinned default (``None``, the process default) serializes invisibly
(old payloads keep loading), an explicit name is serialized and
honoured, and the fingerprint ignores the axis entirely (one cache
entry serves both backends).
"""

from __future__ import annotations

import pytest

from repro.runner import RunSpec, build_system, expand_grid
from repro.sim.engine import ENGINE_ENV


def _spec(**kwargs) -> RunSpec:
    return RunSpec(system="slinfer", scenario="azure", n_models=2, seed=1, **kwargs)


def test_default_engine_omitted_from_payload():
    assert _spec().engine is None
    assert "engine" not in _spec().to_dict()


def test_vectorized_engine_round_trips():
    spec = _spec(engine="vectorized")
    payload = spec.to_dict()
    assert payload["engine"] == "vectorized"
    assert RunSpec.from_dict(payload) == spec
    assert RunSpec.from_dict(_spec().to_dict()).engine is None


def test_explicit_reference_engine_round_trips():
    spec = _spec(engine="reference")
    payload = spec.to_dict()
    assert payload["engine"] == "reference"
    assert RunSpec.from_dict(payload) == spec


def test_fingerprint_is_engine_independent():
    # Byte-identical backends share cache entries: pinning the engine
    # must not fork (or invalidate) previously computed results.
    fingerprints = {
        _spec(engine=engine).fingerprint() for engine in (None, "reference", "vectorized")
    }
    assert len(fingerprints) == 1


def test_label_names_non_default_engine():
    assert "engine=vectorized" in _spec(engine="vectorized").label()
    assert "engine=reference" in _spec(engine="reference").label()
    assert "engine=" not in _spec().label()


@pytest.mark.parametrize("env", [None, "reference", "vectorized"])
def test_explicit_engine_beats_environment(monkeypatch, env):
    if env is None:
        monkeypatch.delenv(ENGINE_ENV, raising=False)
    else:
        monkeypatch.setenv(ENGINE_ENV, env)
    assert build_system(_spec(engine="reference")).engine.name == "reference"
    assert build_system(_spec(engine="vectorized")).engine.name == "vectorized"
    assert build_system(_spec()).engine.name == (env or "vectorized")


def test_unknown_engine_rejected():
    with pytest.raises(ValueError, match="unknown engine"):
        _spec(engine="warp-drive")


def test_expand_grid_threads_engine():
    specs = expand_grid(["slinfer"], n_models=(2,), seeds=(1, 2), engine="vectorized")
    assert specs
    assert all(spec.engine == "vectorized" for spec in specs)
