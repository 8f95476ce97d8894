"""Flat key=value configuration for the CLI and serving mode.

``cli.main`` builds one :class:`Config` per run.  A setting comes from, in
order of precedence: its input flag (``--facts``, ``--rules``, ``--events``,
``--model``, ``--credentials``, ``--audit``, each setting the key of its
name), then ``--set KEY=VALUE``, then the config file (``--config``, else the
``AALGUARD_CONFIG`` environment variable), then the built-in defaults.
Priority-table entries use dotted keys (``priority.cognitive=3``).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from .behavior import DEFAULT_DISTANCE_FLOOR

ENV_VAR = "AALGUARD_CONFIG"

DEFAULT_TRUST_THRESHOLD = 0.5
DEFAULT_ANOMALY_THRESHOLD = 0.5
DEFAULT_AUTH_MEAN = "username/password"  # pdp.PASSWORD_MEAN

# Capability severity -> assistance priority.  Configurable; these defaults
# rank cognitive impairment highest.
DEFAULT_PRIORITY_TABLE = {
    "cognitive": 3,
    "visual": 2,
    "hearing": 2,
    "physical": 1,
    "no": 0,
    "none": 0,
}


class ConfigError(ValueError):
    pass


class Config:
    def __init__(self, facts: Optional[str] = None,
                 rules: Optional[List[str]] = None,
                 events: Optional[str] = None,
                 credentials: Optional[str] = None,
                 audit: Optional[str] = None,
                 model: Optional[str] = None,
                 trust_threshold: float = DEFAULT_TRUST_THRESHOLD,
                 anomaly_threshold: float = DEFAULT_ANOMALY_THRESHOLD,
                 distance_floor: float = DEFAULT_DISTANCE_FLOOR,
                 default_auth_mean: str = DEFAULT_AUTH_MEAN,
                 priority_table: Optional[Dict[str, int]] = None):
        self.facts = facts
        self.rules = [] if rules is None else rules
        self.events = events
        self.credentials = credentials
        self.audit = audit
        self.model = model
        self.trust_threshold = trust_threshold
        self.anomaly_threshold = anomaly_threshold
        self.distance_floor = distance_floor
        self.default_auth_mean = default_auth_mean
        self.priority_table = (dict(DEFAULT_PRIORITY_TABLE)
                               if priority_table is None else priority_table)

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

