"""Process-wide counters that make rare internal events observable in tests."""
from __future__ import annotations

from collections import Counter

_counters: Counter = Counter()


def bump(name: str) -> None:
    _counters[name] += 1


def value(name: str) -> int:
    return _counters[name]


def reset(name: str | None = None) -> None:
    if name is None:
        _counters.clear()
    else:
        _counters.pop(name, None)
