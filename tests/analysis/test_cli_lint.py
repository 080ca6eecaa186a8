"""The ``repro lint`` command: acceptance gates pinned end to end."""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis import all_rule_ids
from repro.cli import main

FIXTURE = str(Path(__file__).parent / "fixtures" / "violations.py")
REPO_ROOT = Path(__file__).resolve().parents[2]


class TestSeededFixture:
    def test_exits_nonzero_with_one_finding_per_rule(self, capsys):
        code = main(["lint", FIXTURE, "--json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        by_rule = sorted(f["rule"] for f in payload["findings"])
        # Exactly one violation of every shipped rule — the acceptance pin.
        assert by_rule == all_rule_ids()

    def test_rule_filter_restricts_findings(self, capsys):
        code = main(["lint", FIXTURE, "--rule", "no-wall-clock", "--json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert [f["rule"] for f in payload["findings"]] == ["no-wall-clock"]
        assert payload["rules_run"] == ["no-wall-clock"]

    def test_text_output_names_file_line_and_rule(self, capsys):
        main(["lint", FIXTURE, "--rule", "engine-seam"])
        out = capsys.readouterr().out
        assert "violations.py" in out
        assert "engine-seam" in out
        assert "1 finding(s)" in out


class TestRealTree:
    def test_src_repro_is_clean_without_baseline(self, monkeypatch, capsys):
        # The CI gate: pragmas are the only suppression, so any finding
        # the tree carries fails it.
        monkeypatch.chdir(REPO_ROOT)
        code = main(["lint", "src/repro"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "0 finding(s)" in out


class TestUsageErrors:
    def test_unknown_rule_exits_2_and_lists_known(self, capsys):
        assert main(["lint", FIXTURE, "--rule", "no-such-rule"]) == 2
        err = capsys.readouterr().err
        assert "no-such-rule" in err
        assert "no-wall-clock" in err
