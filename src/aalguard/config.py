"""Flat key=value configuration for the CLI and serving mode.

Lookup order: explicit ``--config`` flag, the ``AALGUARD_CONFIG`` environment
variable, then built-in defaults.  Individual keys can be overridden per
invocation with ``--set KEY=VALUE``.  Priority-table entries use dotted keys
(``priority.cognitive=3``).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .behavior import DEFAULT_DISTANCE_FLOOR
from .pdp import (
    DEFAULT_ANOMALY_THRESHOLD,
    DEFAULT_AUTH_MEAN,
    DEFAULT_PRIORITY_TABLE,
    DEFAULT_TRUST_THRESHOLD,
)

ENV_VAR = "AALGUARD_CONFIG"


class ConfigError(ValueError):
    pass


@dataclass
class Config:
    facts: Optional[str] = None
    rules: List[str] = field(default_factory=list)
    events: Optional[str] = None
    credentials: Optional[str] = None
    audit: Optional[str] = None
    model: Optional[str] = None
    trust_threshold: float = DEFAULT_TRUST_THRESHOLD
    anomaly_threshold: float = DEFAULT_ANOMALY_THRESHOLD
    distance_floor: float = DEFAULT_DISTANCE_FLOOR
    default_auth_mean: str = DEFAULT_AUTH_MEAN
    priority_table: Dict[str, int] = field(
        default_factory=lambda: dict(DEFAULT_PRIORITY_TABLE))

    def validate(self) -> "Config":
        if not 0.0 <= self.trust_threshold <= 1.0:
            raise ConfigError("trust_threshold must be in [0, 1]")
        if not 0.0 <= self.anomaly_threshold <= 1.0:
            raise ConfigError("anomaly_threshold must be in [0, 1]")
        if not 0 < self.distance_floor < math.inf:  # NaN fails too
            raise ConfigError("distance_floor must be finite and positive")
        for capability, priority in self.priority_table.items():
            if priority < 0:
                raise ConfigError(
                    f"priority.{capability} must be non-negative")
        return self


def parse_config(text: str) -> Config:
    config = Config()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        try:
            apply_key(config, key, value)
        except ValueError as err:
            raise ConfigError(f"line {lineno}: {err}") from None
    return config.validate()


def apply_key(config: Config, key: str, value: str) -> None:
    """Apply one key=value override to a config in place."""
    if key == "rules":
        config.rules = [part.strip() for part in value.split(",") if part.strip()]
    elif key in ("facts", "events", "credentials", "audit", "model"):
        setattr(config, key, value or None)
    elif key in ("trust_threshold", "anomaly_threshold", "distance_floor"):
        setattr(config, key, float(value))
    elif key == "default_auth_mean":
        config.default_auth_mean = value
    elif key.startswith("priority."):
        config.priority_table[key[len("priority."):].lower()] = int(value)
    else:
        raise ValueError(f"unknown configuration key {key!r}")


def load_config(path: Optional[str] = None) -> Config:
    """Load configuration from a file, the environment, or defaults."""
    if path is None:
        path = os.environ.get(ENV_VAR)
    if path is None:
        return Config().validate()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
