"""One PRNG family for the whole artifact.

Every seeded draw goes through PCG64 so that identical seeds reproduce
identical streams; outputs record the generator name in their metadata.
"""

from __future__ import annotations

import numpy as np

from .errors import UsageError

PRNG_NAME = "pcg64"


def rng_from_seed(seed: int) -> np.random.Generator:
    if seed < 0:
        raise UsageError(f"seed must be non-negative, got {seed}")
    return np.random.Generator(np.random.PCG64(seed))
