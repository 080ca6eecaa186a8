"""BenchConfig: the single env seam for scale/workers/protocol."""

import pytest

from repro.bench import BenchConfig


def test_env_resolution_single_seam(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "full")
    monkeypatch.setenv("REPRO_WORKERS", "4")
    monkeypatch.setenv("REPRO_BENCH_REPEATS", "7")
    monkeypatch.setenv("REPRO_BENCH_WARMUP", "2")
    config = BenchConfig.from_env()
    assert (config.scale, config.workers, config.repeats, config.warmup) == ("full", 4, 7, 2)


def test_env_defaults_are_lenient(monkeypatch):
    for name in ("REPRO_SCALE", "REPRO_WORKERS", "REPRO_BENCH_REPEATS", "REPRO_BENCH_WARMUP"):
        monkeypatch.delenv(name, raising=False)
    config = BenchConfig.from_env()
    assert config.scale == "quick"  # runner's REPRO_SCALE default
    assert config.workers == 1
    assert config.repeats >= 1


def test_explicit_overrides_beat_env(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "full")
    monkeypatch.setenv("REPRO_BENCH_REPEATS", "abc")  # never read: the override wins
    config = BenchConfig.from_env(scale="smoke", repeats=1, warmup=0)
    assert config.scale == "smoke"
    assert config.repeats == 1
    assert config.warmup == 0


def test_none_override_means_environment(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "smoke")
    assert BenchConfig.from_env(scale=None).scale == "smoke"


def test_unknown_scale_fails_fast():
    with pytest.raises(KeyError):
        BenchConfig(scale="warp10")


def test_invalid_protocol_rejected():
    with pytest.raises(ValueError):
        BenchConfig(repeats=0)
    with pytest.raises(ValueError):
        BenchConfig(warmup=-1)


@pytest.mark.parametrize("workers", [0, -3])
def test_workers_below_one_rejected(monkeypatch, workers):
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    with pytest.raises(ValueError, match="workers must be a positive integer"):
        BenchConfig(workers=workers)
    with pytest.raises(ValueError, match="workers must be a positive integer"):
        BenchConfig.from_env(workers=workers)


@pytest.mark.parametrize(
    "name, value, message",
    [
        ("REPRO_BENCH_REPEATS", "abc", "REPRO_BENCH_REPEATS='abc' is not an integer"),
        ("REPRO_BENCH_WARMUP", "1.5", "REPRO_BENCH_WARMUP='1.5' is not an integer"),
        ("REPRO_BENCH_REPEATS", "0", "repeats must be >= 1"),
        ("REPRO_BENCH_WARMUP", "-1", "warmup must be >= 0"),
    ],
)
def test_invalid_env_protocol_fails_like_the_flag(
    monkeypatch, tmp_path, capsys, name, value, message
):
    # Not replaced by the default or clamped into range: the run fails
    # the way --repeats 0 does, as a usage error before any case runs.
    from repro.cli import main

    monkeypatch.setenv(name, value)
    with pytest.raises(ValueError, match=message):
        BenchConfig.from_env()
    code = main(
        ["bench", "--scale", "smoke", "--only", "workload-synthesis", "--out", str(tmp_path)]
    )
    assert code == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_duration_follows_scale():
    assert BenchConfig(scale="smoke").duration == 180.0
    assert BenchConfig(scale="full").duration == 1800.0
