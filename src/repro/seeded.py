"""The seed discipline every simulated and chaos layer shares.

The reproduction swaps the hosted model for a seeded simulator, so each
claim it certifies rests on one rule: the same seed gives the same
answers, fault schedules and cut outcomes on every run and platform.
This leaf module is that rule's single home:

* :func:`fnv1a` — 64-bit FNV-1a over raw bytes (embedding buckets,
  routing jitter);
* :func:`stable_hash` — FNV-1a over ``"|"``-joined parts plus a
  murmur3-style finalizer (FNV-1a avalanches poorly on trailing-byte
  changes, and counters and candidate indexes land at the end of keys);
* :func:`pick_band` — map one uniform draw onto consecutive rate bands,
  the fault cascade of every injector.
"""

from __future__ import annotations

from typing import Iterable, Optional

__all__ = ["MASK", "fnv1a", "stable_hash", "pick_band"]

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
MASK = 0xFFFFFFFFFFFFFFFF


def fnv1a(data: bytes) -> int:
    """Process-independent 64-bit FNV-1a hash of ``data``."""
    value = _FNV_OFFSET
    for byte in data:
        value ^= byte
        value = (value * _FNV_PRIME) & MASK
    return value


def stable_hash(*parts: object) -> int:
    """FNV-1a of ``"|".join(map(str, parts))`` with a murmur finalizer."""
    value = fnv1a("|".join(map(str, parts)).encode())
    value ^= value >> 33
    value = (value * 0xFF51AFD7ED558CCD) & MASK
    value ^= value >> 33
    value = (value * 0xC4CEB9FE1A85EC53) & MASK
    value ^= value >> 33
    return value


def pick_band(draw: float, bands: Iterable[tuple[str, float]]) -> Optional[str]:
    """The first kind whose rate band holds ``draw``, or ``None``.

    Bands are laid end to end in order: kind *i* owns
    ``[sum(rates[:i]), sum(rates[:i + 1]))``; a zero rate owns nothing.
    """
    for kind, rate in bands:
        if draw < rate:
            return kind
        draw -= rate
    return None
