"""Unique, human-readable identifier generation.

Identifiers look like ``pilot.0003`` or ``unit.000124``: a dotted namespace
followed by a zero-padded per-namespace counter.  Counters are process-local
and monotonic; :func:`reset_id_counters` exists so tests and deterministic
simulations can start from a known state.
"""

from __future__ import annotations

import itertools
import threading

__all__ = ["generate_id", "reserve_id_block", "reset_id_counters"]

_lock = threading.Lock()
_counters: dict[str, itertools.count] = {}


def generate_id(namespace: str, width: int = 4) -> str:
    """Return the next identifier in *namespace*.

    Parameters
    ----------
    namespace:
        Dotted prefix, e.g. ``"unit"`` or ``"pipeline.stage"``.
    width:
        Minimum digits in the zero-padded counter suffix.
    """
    if not namespace:
        raise ValueError("namespace must be non-empty")
    with _lock:
        counter = _counters.setdefault(namespace, itertools.count())
        n = next(counter)
    return f"{namespace}.{n:0{width}d}"


def reserve_id_block(namespace: str, n: int) -> int:
    """Atomically reserve *n* consecutive counter values; return the first.

    The caller formats identifiers itself (``f"{namespace}.{serial:0{w}d}"``),
    which lets columnar stores keep one integer per entity instead of one
    formatted string — the serial sequence is exactly what interleaved
    :func:`generate_id` calls would have produced, so lazily formatted uids
    are indistinguishable from eagerly generated ones.
    """
    if not namespace:
        raise ValueError("namespace must be non-empty")
    if n < 1:
        raise ValueError("block size must be positive")
    with _lock:
        first = next(_counters.setdefault(namespace, itertools.count()))
        _counters[namespace] = itertools.count(first + n)
    return first


def reset_id_counters(namespace: str | None = None) -> None:
    """Reset the counter of *namespace*, or all counters when ``None``.

    Only intended for tests and for deterministic re-runs of simulations;
    production code never needs to call this.
    """
    with _lock:
        if namespace is None:
            _counters.clear()
        else:
            _counters.pop(namespace, None)
