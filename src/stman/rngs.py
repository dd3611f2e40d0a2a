"""Named deterministic random streams.

All randomness in a run flows from one integer seed. Each consumer asks
for a stream by name ("init", "dropout", "shuffle", ...); the name is
hashed into the seed material, so streams are independent of each other
and of the order in which they are created. Negative seeds are folded
into the 64-bit ring so any Python int is accepted.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["stream"]


def stream(seed: int, name: str) -> np.random.Generator:
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    words = [int.from_bytes(digest[i : i + 8], "big") for i in range(0, 32, 8)]
    entropy = [int(seed) % 2**64] + words
    return np.random.default_rng(np.random.SeedSequence(entropy))
