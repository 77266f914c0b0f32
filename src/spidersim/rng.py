"""Seeded randomness with named substreams.

Topology expansion and simulation each split one master seed into named
substreams so that adding a sampling stage never perturbs draws made by an
earlier stage. Substream derivation goes through SHA-256 rather than
``hash()`` so results do not depend on PYTHONHASHSEED or the platform.
"""

from __future__ import annotations

import hashlib
import random

MASK64 = (1 << 64) - 1


def derive_seed(seed: int, name: str) -> int:
    """Derive a 64-bit child seed for the named substream."""
    digest = hashlib.sha256(f"{seed & MASK64}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def substream(seed: int, name: str) -> random.Random:
    """A fresh generator for one named substream of the master seed."""
    return random.Random(derive_seed(seed, name))
