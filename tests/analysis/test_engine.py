"""Engine behaviour: pragmas, JSON round-trips, file walking."""

from __future__ import annotations

import json

import pytest

from repro.analysis.engine import (
    LintReport,
    all_rule_ids,
    get_rule,
    module_name_for,
    run_lint,
    suppressed_rules,
)
from repro.analysis.findings import Finding


def _write(tmp_path, name: str, source: str):
    path = tmp_path / name
    path.write_text(source)
    return path


WALL_CLOCK = "import time\nt = time.perf_counter()\n"


# ----------------------------------------------------------------------
# Suppression pragmas
# ----------------------------------------------------------------------
class TestPragmas:
    def test_pragma_on_exact_line_suppresses(self, tmp_path):
        path = _write(
            tmp_path,
            "mod.py",
            "import time\nt = time.perf_counter()  # repro: allow[no-wall-clock]\n",
        )
        report = run_lint([path], rules=["no-wall-clock"])
        assert report.findings == []
        assert len(report.suppressed) == 1
        assert report.suppressed[0].rule == "no-wall-clock"

    def test_pragma_on_other_line_does_not_suppress(self, tmp_path):
        path = _write(
            tmp_path,
            "mod.py",
            "import time  # repro: allow[no-wall-clock]\nt = time.perf_counter()\n",
        )
        report = run_lint([path], rules=["no-wall-clock"])
        assert len(report.findings) == 1

    def test_pragma_is_rule_specific(self, tmp_path):
        path = _write(
            tmp_path,
            "mod.py",
            "import time\nt = time.perf_counter()  # repro: allow[float-accum]\n",
        )
        report = run_lint([path], rules=["no-wall-clock"])
        assert len(report.findings) == 1

    def test_pragma_accepts_multiple_rules(self):
        line = "x = 1  # repro: allow[no-wall-clock, float-accum]"
        assert suppressed_rules(line) == {"no-wall-clock", "float-accum"}
        assert suppressed_rules("x = 1  # plain comment") == frozenset()


# ----------------------------------------------------------------------
# Reports and serialization
# ----------------------------------------------------------------------
class TestReports:
    def test_json_schema_round_trip(self, tmp_path):
        path = _write(tmp_path, "mod.py", WALL_CLOCK)
        report = run_lint([path], rules=["no-wall-clock"])
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["version"] == 1
        assert payload["files_scanned"] == 1
        restored = LintReport.from_dict(payload)
        assert restored.findings == report.findings
        assert restored.suppressed == report.suppressed
        assert restored.rules_run == report.rules_run

    def test_finding_round_trip(self):
        finding = Finding("x.py", 3, 7, "float-accum", "use fsum")
        assert Finding.from_dict(finding.to_dict()) == finding

    def test_findings_sorted_by_path_then_line(self, tmp_path):
        _write(tmp_path, "b.py", WALL_CLOCK)
        _write(tmp_path, "a.py", "import time\n\n\nt = time.time()\n")
        report = run_lint([tmp_path], rules=["no-wall-clock"])
        assert [f.path.rsplit("/", 1)[-1] for f in report.findings] == ["a.py", "b.py"]

    def test_parse_error_is_a_finding(self, tmp_path):
        path = _write(tmp_path, "broken.py", "def f(:\n")
        report = run_lint([path])
        assert len(report.findings) == 1
        assert report.findings[0].rule == "parse-error"
        assert report.failed


# ----------------------------------------------------------------------
# Registry and scoping plumbing
# ----------------------------------------------------------------------
class TestRegistry:
    def test_all_shipped_rules_registered(self):
        assert all_rule_ids() == [
            "engine-seam",
            "float-accum",
            "handler-purity",
            "no-ambient-rng",
            "no-wall-clock",
            "typed-defs",
            "unordered-iteration",
        ]

    def test_unknown_rule_raises(self):
        with pytest.raises(KeyError, match="unknown rule"):
            get_rule("no-such-rule")

    def test_module_name_for(self, tmp_path):
        assert (
            module_name_for(tmp_path / "src" / "repro" / "sim" / "engine.py")
            == "repro.sim.engine"
        )
        assert (
            module_name_for(tmp_path / "src" / "repro" / "kv" / "__init__.py")
            == "repro.kv"
        )
        assert module_name_for(tmp_path / "fixtures" / "violations.py") is None

    def test_pycache_skipped(self, tmp_path):
        cache = tmp_path / "__pycache__"
        cache.mkdir()
        _write(cache, "junk.py", WALL_CLOCK)
        _write(tmp_path, "mod.py", "x = 1\n")
        report = run_lint([tmp_path])
        assert report.files_scanned == 1
