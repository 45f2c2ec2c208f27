"""Cache replacement policies.

The paper's mini-simulator uses LRU ("although other schemes are
possible"); this module provides LRU plus FIFO, random and bit-PLRU so
that the replacement policy is an experimental knob, as the paper
suggests.
"""

from __future__ import annotations

import random
from typing import Dict, Sequence

from .lines import CacheLine


class ReplacementPolicy:
    """Strategy interface: pick a victim and observe accesses/fills.

    The hooks are the behavioural contract that
    :class:`~repro.memory.cache_reference.ReferenceCache` runs; the array
    engine (:class:`repro.memory.cache.Cache`) re-implements the built-in
    policies on its columns and is tested against it.
    """

    name = "abstract"

    def on_access(self, line: CacheLine, now: int) -> None:
        """Called on every hit to ``line``."""

    def on_fill(self, line: CacheLine, now: int) -> None:
        """Called when ``line`` is (re)inserted."""

    def victim(self, cache_set: Dict[int, CacheLine]) -> int:
        """Return the tag of the line to evict from a full set."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__}>"


class LRUPolicy(ReplacementPolicy):
    """Least-recently-used: evict the line with the oldest access stamp.

    The paper's analyzer "uses a counter to simulate time"; ``stamp``
    plays that role.
    """

    name = "lru"

    def on_access(self, line: CacheLine, now: int) -> None:
        line.stamp = now

    def on_fill(self, line: CacheLine, now: int) -> None:
        line.stamp = now

    def victim(self, cache_set: Dict[int, CacheLine]) -> int:
        return min(cache_set.values(), key=lambda ln: ln.stamp).tag


class FIFOPolicy(ReplacementPolicy):
    """First-in-first-out: evict the oldest *filled* line."""

    name = "fifo"

    def on_fill(self, line: CacheLine, now: int) -> None:
        line.stamp = now

    def victim(self, cache_set: Dict[int, CacheLine]) -> int:
        return min(cache_set.values(), key=lambda ln: ln.stamp).tag


class RandomPolicy(ReplacementPolicy):
    """Evict a (deterministically seeded) random line."""

    name = "random"

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)

    def choose(self, candidates: Sequence[int]) -> int:
        """Draw one of ``candidates`` (listed in fill order).

        The one RNG draw both cache implementations make: ``victim``
        passes the set's tags, the array engine its slots.
        """
        return self._rng.choice(candidates)

    def victim(self, cache_set: Dict[int, CacheLine]) -> int:
        return self.choose(list(cache_set))


class BitPLRUPolicy(ReplacementPolicy):
    """Bit pseudo-LRU: one MRU bit per line.

    A hit or fill sets the line's bit.  Bits are cleared lazily, at
    eviction: ``victim()`` picks among the lines whose bit is clear,
    and when every bit in the set is set it first clears them all.
    The victim is the lowest-stamped candidate, for determinism.  These
    hooks are the contract :class:`~repro.memory.cache_reference.
    ReferenceCache` runs; the array engine in :mod:`repro.memory.cache`
    mirrors them exactly on its stamp and MRU columns.
    """

    name = "plru"

    def on_access(self, line: CacheLine, now: int) -> None:
        line.mru = True
        line.stamp = now

    def on_fill(self, line: CacheLine, now: int) -> None:
        line.mru = True
        line.stamp = now

    def victim(self, cache_set: Dict[int, CacheLine]) -> int:
        candidates = [ln for ln in cache_set.values() if not ln.mru]
        if not candidates:
            # Every line is MRU: clear all bits, then any line qualifies.
            for ln in cache_set.values():
                ln.mru = False
            candidates = list(cache_set.values())
        return min(candidates, key=lambda ln: ln.stamp).tag


_POLICIES = {
    "lru": LRUPolicy,
    "fifo": FIFOPolicy,
    "random": RandomPolicy,
    "plru": BitPLRUPolicy,
}


def make_policy(name: str, seed: int = 0) -> ReplacementPolicy:
    """Construct a replacement policy by name ('lru', 'fifo', ...)."""
    try:
        cls = _POLICIES[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown replacement policy {name!r}; "
            f"choose from {sorted(_POLICIES)}"
        ) from None
    if cls is RandomPolicy:
        return cls(seed=seed)
    return cls()
