"""Flat dotted-key configuration files.

Format: one ``section.key = value`` per line, ``#`` comments, blank lines
ignored. Example::

    rocket.weights = geometric(0.8)
    augment.k_neighbors = 5
    train.learning_rate = 0.001
    replay.budget_fraction = 0.5
"""

from __future__ import annotations

from pathlib import Path

from .errors import InputError


def parse_config(text: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise InputError(f"config line {lineno}: empty key")
        values[key] = value.strip()
    return values


class LookupLog(dict):
    """A config that records each key looked up in it with ``in`` or ``get``,
    so that a reader can reject the keys it never looked up."""

    def __init__(self, cfg: dict[str, str]):
        super().__init__(cfg)
        self.looked_up: set[str] = set()

    def __contains__(self, key) -> bool:
        self.looked_up.add(key)
        return super().__contains__(key)

    def get(self, key, default=None):
        self.looked_up.add(key)
        return super().get(key, default)


def load_config(path: str | Path) -> dict[str, str]:
    return parse_config(Path(path).read_text(encoding="utf-8"))


def get_float(cfg: dict[str, str], key: str, default: float) -> float:
    if key not in cfg:
        return default
    try:
        return float(cfg[key])
    except ValueError:
        raise InputError(f"config key {key}: expected a number, got {cfg[key]!r}") from None


def get_int(cfg: dict[str, str], key: str, default: int) -> int:
    if key not in cfg:
        return default
    try:
        return int(cfg[key])
    except ValueError:
        raise InputError(f"config key {key}: expected an integer, got {cfg[key]!r}") from None


def get_bool(cfg: dict[str, str], key: str, default: bool) -> bool:
    if key not in cfg:
        return default
    raw = cfg[key].lower()
    if raw in ("1", "true", "yes", "on"):
        return True
    if raw in ("0", "false", "no", "off"):
        return False
    raise InputError(f"config key {key}: expected a boolean, got {cfg[key]!r}")
