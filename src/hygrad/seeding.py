"""One PRNG family for the whole artifact.

Every seeded draw follows numpy's ``Generator(PCG64(seed))`` stream, seeded
through ``SeedSequence``, so that identical seeds reproduce identical
streams; outputs record the generator name in their metadata.

``rng_from_seed`` returns that generator, for the synthetic datasets. The
hyperparameter draw of every CLI run (``models.sample_y``) computes the
stream itself, in ``_pcg64_uniform``: it needs only a handful of doubles,
and ``numpy.random`` costs about 10 ms to import, which CLI commands
therefore never do. A test pins that draw bit for bit to numpy's. A seed
is an ``int`` or numpy integer, not a ``bool``, and is non-negative;
anything else is a UsageError.
"""

from __future__ import annotations

import numpy as np

from .errors import UsageError

PRNG_NAME = "pcg64"

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
# SeedSequence's pool and hash constants (O'Neill's seed_seq_fe).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _check_seed(seed) -> int:
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise UsageError(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise UsageError(f"seed must be non-negative, got {seed}")
    return int(seed)


def rng_from_seed(seed: int) -> np.random.Generator:
    seed = _check_seed(seed)
    return np.random.Generator(np.random.PCG64(seed))


def _seed_sequence_state(seed: int) -> list[int]:
    """``SeedSequence(seed).generate_state(8, uint32)``: the seed's 32-bit
    words mixed into a pool of four, then hashed out eight words."""
    entropy = [seed & _MASK32]
    while seed >> 32:
        seed >>= 32
        entropy.append(seed & _MASK32)
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    state, hash_b = [], _INIT_B
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ hash_b
        hash_b = hash_b * _MULT_B & _MASK32
        value = value * hash_b & _MASK32
        state.append(value ^ value >> 16)
    return state


def _pcg64_uniform(seed: int, low: float, high: float, n: int) -> list[float]:
    """``Generator(PCG64(seed)).uniform(low, high, n)`` as a list, bit for
    bit, without importing ``numpy.random``.

    The four 64-bit seed words (pairs of 32-bit ones, low word first) give
    PCG64's initial state (words 0, 1, high first) and stream (words 2, 3);
    each draw steps the 128-bit LCG and takes its XSL-RR output, whose top
    53 bits make a double in [0, 1).
    """
    w = _seed_sequence_state(_check_seed(seed))
    word = [w[2 * i] | w[2 * i + 1] << 32 for i in range(4)]
    inc = ((word[2] << 64 | word[3]) << 1 | 1) & _MASK128
    # From state 0: a step (giving inc), the initial state added, a step.
    state = ((inc + (word[0] << 64 | word[1])) * _PCG_MULT + inc) & _MASK128
    low, high = float(low), float(high)
    span = high - low
    out = []
    for _ in range(n):
        state = (state * _PCG_MULT + inc) & _MASK128
        xored = (state >> 64 ^ state) & _MASK64
        rot = state >> 122
        bits = (xored >> rot | xored << (64 - rot)) & _MASK64
        out.append(low + span * ((bits >> 11) * 2.0 ** -53))
    return out
