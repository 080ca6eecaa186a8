"""The engine seam itself: registry, resolution precedence, CLI surface.

Byte-identical *behavior* of the backends is enforced across every
scenario in ``tests/systems/test_engine_parity.py``; this module covers
the seam's plumbing — how a backend is named, resolved, and surfaced.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.sim.engine import ENGINE_ENV, ENGINES, resolve_engine


def test_both_backends_registered():
    names = ENGINES.names()
    assert "reference" in names
    assert "vectorized" in names


def test_resolve_defaults_to_vectorized(monkeypatch):
    monkeypatch.delenv(ENGINE_ENV, raising=False)
    assert type(resolve_engine(None)) is ENGINES.get("vectorized")
    assert resolve_engine(None).name == "vectorized"


def test_environment_selects_reference_oracle(monkeypatch):
    monkeypatch.setenv(ENGINE_ENV, "reference")
    assert type(resolve_engine(None)) is ENGINES.get("reference")


def test_resolve_reads_environment(monkeypatch):
    monkeypatch.setenv(ENGINE_ENV, "vectorized")
    assert type(resolve_engine(None)) is ENGINES.get("vectorized")


def test_explicit_argument_beats_environment(monkeypatch):
    monkeypatch.setenv(ENGINE_ENV, "vectorized")
    assert type(resolve_engine("reference")) is ENGINES.get("reference")


def test_unknown_engine_rejected():
    with pytest.raises(KeyError):
        resolve_engine("warp-drive")


def test_cli_lists_engines(capsys):
    assert main(["list", "engines"]) == 0
    out = capsys.readouterr().out
    assert "reference" in out
    assert "vectorized" in out
