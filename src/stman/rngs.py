"""Named deterministic random streams.

All randomness in a run flows from one integer seed. Each consumer asks
for a stream by name ("init", "dropout", "shuffle", ...); the name is
hashed into the seed material, so streams are independent of each other
and of the order in which they are created. Negative seeds are folded
into the 64-bit ring so any Python int is accepted.
"""

from __future__ import annotations

import numpy as np

__all__ = ["stream"]

# sha256 from the interpreter's own module (``_sha2`` from 3.12, ``_sha256``
# before), which, unlike ``hashlib``, does not load OpenSSL; the digests
# are the same
try:
    from _sha2 import sha256 as _sha256
except ImportError:
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:
        from hashlib import sha256 as _sha256


def stream(seed: int, name: str) -> np.random.Generator:
    digest = _sha256(name.encode("utf-8")).digest()
    words = [int.from_bytes(digest[i : i + 8], "big") for i in range(0, 32, 8)]
    entropy = [int(seed) % 2**64] + words
    return np.random.default_rng(np.random.SeedSequence(entropy))
