"""Analysis configuration: a small YAML file of key/value pairs and lists.

Every key is optional; absent keys fall back to defaults.  A missing file
means "all defaults", so a bare `tasklens analyze` needs no setup.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import NamedTuple

from .events import DEDUP_WINDOW_SECONDS
from .taskparse import DEFAULT_DIRECTIVE_KEYS, TaskParseError, composed


class BadConfig(ValueError):
    def __init__(self, key: str, message: str):
        super().__init__(f"config key {key!r}: {message}")
        self.key = key


# The report lists every day of the retention curve, so the horizon is capped
# at about a century: a larger one costs time and report bytes for days that
# no log can reach, and past year 9999 it overflows the date type.
MAX_RETENTION_HORIZON = 36_500


class _Settings(NamedTuple):
    directive_keys: tuple[str, ...] = DEFAULT_DIRECTIVE_KEYS
    similar_modules: tuple[frozenset[str], ...] = ()
    dedup_window_seconds: float = DEDUP_WINDOW_SECONDS
    minor_major_threshold: float = 0.5
    rename_match_floor: float = 0.3
    retention_horizon: int = 30


class Config(_Settings):
    """The analysis settings; every way of building one checks them."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):  # the builder of _replace
        return cls(*iterable)

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not 0.0 < self.minor_major_threshold < 1.0:
            raise BadConfig("minor_major_threshold", "must be strictly between 0 and 1")
        if not 0.0 <= self.rename_match_floor <= 1.0:
            raise BadConfig("rename_match_floor", "must be within [0, 1]")
        if self.dedup_window_seconds < 0:
            raise BadConfig("dedup_window_seconds", "must be non-negative")
        if not 1 <= self.retention_horizon <= MAX_RETENTION_HORIZON:
            raise BadConfig("retention_horizon", f"must be from 1 to {MAX_RETENTION_HORIZON} days")
        return self


_KNOWN_KEYS = frozenset(Config._fields)


def load_config(path: str | Path | None) -> Config:
    """Load a config file; a None path or absent file yields pure defaults."""
    if path is None:
        return Config()
    path = Path(path)
    if not path.exists():
        return Config()
    try:
        with composed(path.read_text(encoding="utf-8")) as (root, build):
            raw = None if root is None else build(root)
    except (TaskParseError, UnicodeDecodeError) as exc:
        raise BadConfig("<file>", f"not parseable: {exc}") from None
    if raw is None:
        return Config()
    if not isinstance(raw, dict):
        raise BadConfig("<file>", "top level must be a mapping")

    for key in raw:
        if not isinstance(key, str):
            raise BadConfig(str(key), "keys must be strings")
    unknown = set(raw) - _KNOWN_KEYS
    if unknown:
        raise BadConfig(sorted(unknown)[0], "unknown key")

    kwargs = {}
    if "directive_keys" in raw:
        kwargs["directive_keys"] = tuple(
            _str_list(raw["directive_keys"], "directive_keys")
        )
    if "similar_modules" in raw:
        classes = raw["similar_modules"]
        if not isinstance(classes, list):
            raise BadConfig("similar_modules", "must be a list of lists")
        kwargs["similar_modules"] = tuple(
            frozenset(_str_list(cls, f"similar_modules[{i}]")) for i, cls in enumerate(classes)
        )
    for key, kind in (
        ("dedup_window_seconds", float),
        ("minor_major_threshold", float),
        ("rename_match_floor", float),
        ("retention_horizon", int),
    ):
        if key in raw:
            value = raw[key]
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise BadConfig(key, "must be a number")
            try:
                finite = math.isfinite(value)
            except OverflowError:  # an integer too large for a float
                finite = False
            if not finite:
                raise BadConfig(key, "must be a finite number")
            if kind is int and int(value) != value:
                raise BadConfig(key, "must be an integer")
            kwargs[key] = kind(value)

    return Config(**kwargs)


def _str_list(value, key: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(v, str) and v for v in value):
        raise BadConfig(key, "must be a list of non-empty strings")
    return value
