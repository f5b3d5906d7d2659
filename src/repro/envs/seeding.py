"""``np.random.default_rng(seed)``'s first draws for a whole wave of seeds.

An episode reset builds ``default_rng(seed)`` (about 17 µs) to take a
handful of ``random()``/``uniform()`` draws, and NumPy has no bulk
constructor.  :func:`first_doubles` repeats NumPy's steps on arrays, one
column per seed, so a lock-step wave's resets pay for NumPy calls once,
not once per episode:

1. ``SeedSequence(seed)``: the seed's little-endian 32-bit words are
   hashed into a 4-word pool (``hashmix``), every pool word is mixed
   with every other (``mix``), and ``generate_state(4, uint64)`` hashes
   the cycled pool into eight 32-bit words, paired little-endian into
   four 64-bit words.
2. ``PCG64``: ``srandom(initstate, initseq)`` from the two 128-bit
   halves of that state.
3. ``random()``: one 128-bit LCG step, the XSL-RR output of the new
   state, and ``(word >> 11) * 2**-53``.

128-bit values are ``(hi, lo)`` pairs of uint64 arrays, and a 64-bit
product's high word is built from 32-bit limbs; NumPy's unsigned
arrays wrap, as the C code does.  This is a second implementation of
NumPy's seeding: ``tests/envs/test_seeding.py`` pins its bits to
``default_rng(seed).random(k)`` on generated seeds, and the scalar
``Environment.reset(seed)`` stays the oracle.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["SEED_BOUND", "accepts", "first_doubles", "uniform"]

#: :func:`first_doubles` takes integer seeds in ``[0, SEED_BOUND)``: at
#: most two 32-bit words, which ``SeedSequence`` pads to its pool size
SEED_BOUND = 2**64

_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """The hash constant before each of ``count`` hashes, and after the
    last: ``SeedSequence`` multiplies it by ``mult`` at every hash."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)[:, None]


# SeedSequence's constants (numpy/random/bit_generator.pyx); its pool
# mixing takes 4 + 4 * 3 hashes, generate_state(4, uint64) eight
_MIX_HASH = _hash_constants(0x43B0D7E5, 0x931E8875, _POOL_SIZE * _POOL_SIZE)
_STATE_HASH = _hash_constants(0x8B51F9DD, 0x58F38DED, 2 * _POOL_SIZE)
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)

# PCG64's default 128-bit multiplier, and its 32-bit limbs
_MULT_HI = np.uint64(2549297995355413924)
_MULT_LO = np.uint64(4865540595714422341)
_MULT_LO_0 = _MULT_LO & np.uint64(_MASK32)
_MULT_LO_1 = _MULT_LO >> np.uint64(32)
_U32 = np.uint64(_MASK32)
_S32 = np.uint64(32)


def _hash(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """``hashmix``: row ``i`` of ``values`` under ``consts[i]``, which
    ``SeedSequence`` advances to ``consts[i + 1]`` before multiplying."""
    values = (values ^ consts[:-1]) * consts[1:]
    return values ^ (values >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def _step(
    hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray, inc_lo: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One PCG64 LCG step: ``state * multiplier + inc`` mod ``2**128``."""
    a0, a1 = lo & _U32, lo >> _S32
    p00, p01 = a0 * _MULT_LO_0, a0 * _MULT_LO_1
    p10, p11 = a1 * _MULT_LO_0, a1 * _MULT_LO_1
    mid = (p00 >> _S32) + (p01 & _U32) + (p10 & _U32)
    # high word of lo * _MULT_LO, plus the cross terms that reach it
    hi = (
        p11 + (p01 >> _S32) + (p10 >> _S32) + (mid >> _S32)
        + lo * _MULT_HI + hi * _MULT_LO
    )
    lo = lo * _MULT_LO
    new_lo = lo + inc_lo
    return hi + inc_hi + (new_lo < lo), new_lo


def accepts(seeds: Sequence) -> bool:
    """Whether :func:`first_doubles` takes every one of ``seeds``."""
    return all(
        (type(seed) is int or isinstance(seed, np.integer))
        and 0 <= seed < SEED_BOUND
        for seed in seeds
    )


def first_doubles(seeds: Sequence[int], k: int) -> np.ndarray:
    """The bits of ``np.random.default_rng(seed).random(k)`` per seed.

    Returns a float64 ``(len(seeds), k)`` array.  Each ``random()`` or
    ``uniform()`` call of a fresh generator takes one of these draws
    (``uniform(lo, hi)`` is ``lo + (hi - lo) * u``).  Raises
    ``ValueError`` unless every seed is an integer in
    ``[0, SEED_BOUND)``.
    """
    if not accepts(seeds):
        bad = next(seed for seed in seeds if not accepts([seed]))
        raise ValueError(
            f"first_doubles takes integer seeds in [0, 2**64), got {bad!r}"
        )
    words = np.array(seeds, dtype=np.uint64)
    entropy = np.zeros((_POOL_SIZE, len(words)), dtype=np.uint32)
    entropy[0] = words & _U32
    entropy[1] = words >> _S32
    pool = _hash(entropy, _MIX_HASH[: _POOL_SIZE + 1])
    consts = _POOL_SIZE
    for src in range(_POOL_SIZE):
        dst = [i for i in range(_POOL_SIZE) if i != src]
        hashed = _hash(pool[src], _MIX_HASH[consts : consts + len(dst) + 1])
        pool[dst] = _mix(pool[dst], hashed)
        consts += len(dst)
    state = _hash(np.concatenate([pool, pool]), _STATE_HASH).astype(np.uint64)
    init_hi, init_lo, seq_hi, seq_lo = state[0::2] | (state[1::2] << _S32)

    # srandom: inc = initseq << 1 | 1; state = inc + initstate, stepped
    inc_hi = (seq_hi << np.uint64(1)) | (seq_lo >> np.uint64(63))
    inc_lo = (seq_lo << np.uint64(1)) | np.uint64(1)
    lo = inc_lo + init_lo
    hi = inc_hi + init_hi + (lo < inc_lo)
    hi, lo = _step(hi, lo, inc_hi, inc_lo)

    draws = np.empty((len(words), k))
    for draw in range(k):
        hi, lo = _step(hi, lo, inc_hi, inc_lo)
        value, rot = hi ^ lo, hi >> np.uint64(58)
        word = (value >> rot) | (value << ((np.uint64(64) - rot) & np.uint64(63)))
        draws[:, draw] = (word >> np.uint64(11)) * (1.0 / 9007199254740992.0)
    return draws


def uniform(draws: np.ndarray, low: float, high: float) -> np.ndarray:
    """``Generator.uniform(low, high)`` from its ``random()`` draws,
    with NumPy's arithmetic: ``low + (high - low) * u``."""
    return low + (high - low) * draws
