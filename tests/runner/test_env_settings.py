"""``REPRO_SCALE`` / ``REPRO_WORKERS``: unset or empty means the default,
anything else must parse or fail with an error naming the variable."""

import pytest

from repro.cli import main
from repro.runner import QUICK_SCALE, SMOKE_SCALE, current_scale, default_workers
from repro.runner.env import EnvSettingError


@pytest.mark.parametrize("value", [None, "", "  "])
def test_unset_or_empty_means_the_default(monkeypatch, value):
    for name in ("REPRO_SCALE", "REPRO_WORKERS"):
        if value is None:
            monkeypatch.delenv(name, raising=False)
        else:
            monkeypatch.setenv(name, value)
    assert current_scale() is QUICK_SCALE
    assert default_workers() == 1


def test_valid_values_parse(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "SMOKE")
    monkeypatch.setenv("REPRO_WORKERS", "3")
    assert current_scale() is SMOKE_SCALE
    assert default_workers() == 3


@pytest.mark.parametrize(
    "name, value, read",
    [
        ("REPRO_WORKERS", "abc", default_workers),
        ("REPRO_WORKERS", "0", default_workers),
        ("REPRO_WORKERS", "-1", default_workers),
        ("REPRO_WORKERS", "2.5", default_workers),
        ("REPRO_SCALE", "smok", current_scale),
    ],
)
def test_invalid_value_fails_naming_the_variable(monkeypatch, capsys, name, value, read):
    monkeypatch.setenv(name, value)
    with pytest.raises(EnvSettingError, match=f"{name}={value!r}"):
        read()
    # The CLI reports it as a usage error (the parser's --workers default
    # reads REPRO_WORKERS; experiment runners read REPRO_SCALE).
    argv = ["list", "systems"] if name == "REPRO_WORKERS" else ["experiment", "fig22"]
    assert main(argv) == 2
    assert f"{name}={value!r}" in capsys.readouterr().err
