"""The one parser for settings read from ``REPRO_*`` environment variables.

An unset or empty variable means the setting's default.  Any other value
must parse, or the read fails with an error naming the variable: a typo
in a CI file must not silently change a run's scale or worker count.
"""

from __future__ import annotations

import os
from typing import Callable, TypeVar

T = TypeVar("T")


class EnvSettingError(ValueError):
    """An environment variable holds a value its setting rejects."""


def env_setting(name: str, default: T, parse: Callable[[str], T], expected: str) -> T:
    """``parse`` applied to ``$name``, or ``default`` when it is unset or empty.

    ``parse`` rejects a value by raising ``ValueError`` or ``KeyError``;
    the error then reads ``NAME='value' is not <expected>``.
    """
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        return parse(raw)
    except (KeyError, ValueError):
        raise EnvSettingError(f"{name}={raw!r} is not {expected}") from None


def env_int(name: str, default: int) -> int:
    """An integer setting; range checks are the caller's."""
    return env_setting(name, default, int, "an integer")
