"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


def test_calibration_command(capsys):
    assert main(["calibration"]) == 0
    out = capsys.readouterr().out
    assert "xeon-6462c-32c" in out
    assert "G-7B-2K" in out


def test_compare_command_small(capsys):
    code = main(
        [
            "compare",
            "--models", "4",
            "--duration", "90",
            "--cpus", "1",
            "--gpus", "1",
            "--systems", "sllm,slinfer",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "sllm" in out and "slinfer" in out


def test_compare_prints_wall_clock_timing(capsys):
    assert main(
        [
            "compare",
            "--models", "2",
            "--duration", "60",
            "--cpus", "1",
            "--gpus", "1",
            "--systems", "sllm",
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "wall=" in out and "ev/s" in out


def test_list_command_shows_registries(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for expected in ("slinfer", "sllm+c+s", "bursty-spike", "diurnal", "mixed-fleet", "paper"):
        assert expected in out


def test_sweep_command_parallel_matches_sequential(tmp_path, capsys):
    common = [
        "sweep",
        "--systems", "sllm,slinfer",
        "--seeds", "1,2",
        "--models", "2",
        "--duration", "60",
        "--no-cache",
    ]
    assert main(common + ["--workers", "4", "--out", str(tmp_path / "par")]) == 0
    assert main(common + ["--workers", "1", "--out", str(tmp_path / "seq")]) == 0
    par = sorted((tmp_path / "par").iterdir())
    seq = sorted((tmp_path / "seq").iterdir())
    assert [p.name for p in par] == [s.name for s in seq] and len(par) == 4
    for a, b in zip(par, seq):
        assert a.read_bytes() == b.read_bytes()
    out = capsys.readouterr().out
    assert "4 spec(s)" in out


def test_sweep_command_uses_cache(tmp_path, capsys):
    args = [
        "sweep",
        "--systems", "sllm",
        "--models", "2",
        "--duration", "60",
        "--cache-dir", str(tmp_path / "cache"),
    ]
    assert main(args) == 0
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "1 from cache" in out


def test_sweep_streaming_metrics_mode(tmp_path, capsys):
    args = [
        "sweep",
        "--systems", "sllm",
        "--models", "2",
        "--duration", "60",
        "--metrics", "streaming",
        "--no-cache",
        "--out", str(tmp_path / "out"),
    ]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "metrics=streaming" in out
    written = list((tmp_path / "out").iterdir())
    assert len(written) == 1
    payload = json.loads(written[0].read_text(encoding="utf-8"))
    assert payload["spec"]["metrics"] == "streaming"
    assert payload["report"]["metrics_mode"] == "streaming"
    assert payload["report"]["requests"] == []


def test_sweep_rejects_unknown_metrics_mode():
    with pytest.raises(SystemExit):
        main(["sweep", "--metrics", "sketchy"])


def test_list_policies_shows_kinds_and_bundles(capsys):
    assert main(["list", "policies"]) == 0
    out = capsys.readouterr().out
    for expected in ("placement:", "reclaim:", "admission:", "work:", "bundles"):
        assert expected in out
    assert "placement=slinfer" in out
    assert "systems:" not in out  # scoped listing


def test_sweep_policy_cross_product(capsys):
    code = main(
        [
            "sweep",
            "--systems", "slinfer",
            "--models", "2",
            "--duration", "60",
            "--no-cache",
            "--policy", "placement=slinfer,sllm+c",
            "--policy", "reclaim=keepalive,never",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "4 spec(s)" in out
    assert "slinfer[placement=sllm+c,reclaim=never]" in out


def test_sweep_rejects_unknown_policy(capsys):
    assert main(["sweep", "--policy", "reclaim=no-such"]) == 2
    assert "unknown reclaim policy" in capsys.readouterr().err
    assert main(["sweep", "--policy", "badflag"]) == 2
    assert main(["sweep", "--policy", "placement=slinfer:x"]) == 2


def test_list_hardware_shows_specs_and_topologies(capsys):
    assert main(["list", "hardware"]) == 0
    out = capsys.readouterr().out
    for expected in ("hardware specs:", "a100-80gb", "v100-32gb", "no-AMX", "topologies"):
        assert expected in out
    for topology in ("uniform", "dedicated", "oversub-nic", "nvlink-islands"):
        assert topology in out
    assert "systems:" not in out  # scoped listing


def test_sweep_topology_axis(tmp_path, capsys):
    args = [
        "sweep",
        "--systems", "sllm",
        "--models", "2",
        "--duration", "60",
        "--clusters", "cpu0-gpu2",
        "--topology", "oversub-nic",
        "--no-cache",
        "--out", str(tmp_path / "out"),
    ]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "cpu0-gpu2/oversub-nic" in out
    written = list((tmp_path / "out").iterdir())
    assert len(written) == 1
    payload = json.loads(written[0].read_text(encoding="utf-8"))
    assert payload["spec"]["topology"] == "oversub-nic"
    assert "link_utilization" in payload["report"]


def test_sweep_rejects_unknown_topology(capsys):
    assert main(["sweep", "--topology", "no-such"]) == 2
    assert "unknown topology" in capsys.readouterr().err


def test_list_json_output(capsys):
    assert main(["list", "scenarios", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "azure" in payload["names"]
    assert any(p["form"] == "prefix-mix{P}" for p in payload["patterns"])


def test_list_json_all_covers_every_kind(capsys):
    assert main(["list", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {
        "systems", "scenarios", "kv-sharing", "engines",
        "clusters", "models", "hardware", "policies", "federations",
    }
    assert "wan4" in payload["federations"]["names"]
    assert "slinfer" in payload["systems"]["names"]
    assert any(p["form"] == "neo+{C}" for p in payload["systems"]["patterns"])
    assert payload["policies"]["bundles"]["slinfer"]["placement"] == "slinfer"


def test_list_singular_aliases(capsys):
    assert main(["list", "system"]) == 0
    singular = capsys.readouterr().out
    assert main(["list", "systems"]) == 0
    assert singular == capsys.readouterr().out


def test_list_unknown_kind_is_a_typed_usage_error(capsys):
    assert main(["list", "gadgets"]) == 2
    err = capsys.readouterr().err
    assert "unknown list kind 'gadgets'" in err
    assert "scenarios" in err  # the error names the valid kinds


def test_serve_parser_defaults():
    args = build_parser().parse_args(["serve"])
    assert args.system == "slinfer" and args.scenario == "azure"
    assert args.mode == "shadow" and args.port == 0 and args.pace_ratio == 1.0


def test_serve_rejects_multiple_policies_per_kind(capsys):
    assert main(["serve", "--policy", "reclaim=keepalive,never"]) == 2
    assert "one policy per kind" in capsys.readouterr().err


def test_serve_rejects_unknown_system(capsys):
    assert main(["serve", "--system", "no-such"]) == 2
    assert "unknown system" in capsys.readouterr().err


def test_parser_rejects_unknown_experiment():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["experiment", "nope"])


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])
