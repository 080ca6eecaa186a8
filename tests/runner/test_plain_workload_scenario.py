"""A scenario factory may return a plain Workload instead of a stream.

Registered scenarios return a lazy ``GroupedStream``; a third-party
factory that builds a ``Workload`` (and takes no scenario keywords) must
run through every entry point — ``build_workload``,
``build_workload_stream`` and ``execute_spec`` — exactly like the
registered scenario it reproduces.
"""

from __future__ import annotations

import json

import repro.runner.spec as runner_spec
from repro.registry import SCENARIOS
from repro.runner import RunSpec, build_workload, build_workload_stream, execute_spec
from repro.workloads import MaterializedStream, Workload


def _plain_azure(model, n_models, duration, requests_per_model, seed):
    """The ``azure`` trace, handed back already materialized."""
    trace = SCENARIOS.get("azure")(model, n_models, duration, requests_per_model, seed)
    return trace.materialize()


def _canonical(report) -> str:
    return json.dumps(report.to_dict(include_volatile=False), sort_keys=True)


def test_plain_workload_factory_matches_the_registered_scenario(monkeypatch):
    spec = RunSpec(
        system="slinfer", scenario="azure", n_models=4, cluster="cpu2-gpu2", seed=1, scale="smoke"
    )
    registered_workload = build_workload(spec)
    registered_report = _canonical(execute_spec(spec).report)

    monkeypatch.setattr(runner_spec, "resolve_scenario", lambda name: _plain_azure)
    workload = build_workload(spec)
    assert isinstance(workload, Workload)
    assert workload == registered_workload
    stream = build_workload_stream(spec)
    assert isinstance(stream, MaterializedStream)
    assert list(stream) == registered_workload.requests
    assert _canonical(execute_spec(spec).report) == registered_report
