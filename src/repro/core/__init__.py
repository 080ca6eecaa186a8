"""Serving-system core: the composable loop and its configuration."""

from repro.core.config import SlinferConfig, SystemConfig
from repro.core.system import ServingSystem

__all__ = [
    "ServingSystem",
    "SlinferConfig",
    "SystemConfig",
]
