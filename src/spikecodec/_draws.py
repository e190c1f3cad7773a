"""Window-indexed uniform draws, computed for many windows at once.

Window m of a run seeded with s draws the first double of
np.random.default_rng([s, m]). Building one generator per window costs
about 30 us, so this module restates the two steps numpy takes and
runs them on whole arrays of window indices:

- SeedSequence (entropy words -> 4-word pool -> generate_state(4,
  uint64)): a uint32 hash/mix, see numpy/random/bit_generator.pyx;
- PCG64 (O'Neill, "PCG: a family of simple fast space-efficient
  statistically good algorithms for random number generation", 2014):
  128-bit seeding, one LCG step, XSL-RR output, then the top 53 bits
  scaled by 2**-53 as Generator.random() does.

The 128-bit state is carried as 64-bit hi/lo limbs. The results are
bit-identical to numpy's; tests/test_simulate.py holds the per-window
default_rng loop as the reference.
"""

from __future__ import annotations

import operator

import numpy as np

# Windows per batch. Every intermediate is an array of this length, so
# the working set stays near 1 MiB however many windows are drawn.
CHUNK = 8192

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF

# SeedSequence constants (numpy.random.bit_generator).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715

# PCG64's 128-bit LCG multiplier, as hi/lo 64-bit limbs and the lo
# limb's 32-bit halves.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MULT_HI = _PCG_MULT >> 64
_MULT_LO = _PCG_MULT & _MASK64
_MULT_LO_0 = _MULT_LO & _MASK32
_MULT_LO_1 = _MULT_LO >> 32


def _uint32_words(n: int) -> list:
    """SeedSequence's little-endian uint32 words of a non-negative int."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _hashmix(value: np.ndarray, hash_const: int):
    """SeedSequence's hashmix: the hashed words and the next constant."""
    value = value ^ hash_const
    hash_const = (hash_const * _MULT_A) & _MASK32
    value = value * hash_const
    return value ^ (value >> 16), hash_const


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ (result >> 16)


def _seed_state(entropy: list) -> list:
    """SeedSequence(entropy).generate_state(4, uint64), one column per
    window: entropy is a list of uint32 arrays, one per entropy word."""
    hash_const = _INIT_A
    zero = np.zeros_like(entropy[0])
    pool = []
    for i in range(_POOL_SIZE):
        word, hash_const = _hashmix(entropy[i] if i < len(entropy) else zero, hash_const)
        pool.append(word)
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                hashed, hash_const = _hashmix(pool[i_src], hash_const)
                pool[i_dst] = _mix(pool[i_dst], hashed)
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            hashed, hash_const = _hashmix(word, hash_const)
            pool[i_dst] = _mix(pool[i_dst], hashed)

    hash_const = _INIT_B
    out32 = []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * hash_const
        out32.append((value ^ (value >> 16)).astype(np.uint64))
    return [out32[2 * i] | (out32[2 * i + 1] << 32) for i in range(4)]


def _mulhi64(a: np.ndarray) -> np.ndarray:
    """High 64 bits of the 128-bit product a * _MULT_LO."""
    a0, a1 = a & _MASK32, a >> 32
    p01, p10 = a0 * _MULT_LO_1, a1 * _MULT_LO_0
    mid = ((a0 * _MULT_LO_0) >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    return a1 * _MULT_LO_1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


def _lcg_step(hi, lo, inc_hi, inc_lo):
    """One PCG64 step, state * MULT + inc mod 2**128, on hi/lo limbs."""
    prod_lo = lo * _MULT_LO
    prod_hi = _mulhi64(lo) + hi * _MULT_LO + lo * _MULT_HI
    new_lo = prod_lo + inc_lo
    return prod_hi + inc_hi + (new_lo < prod_lo), new_lo


def _first_doubles(entropy: list) -> np.ndarray:
    """First Generator.random() of PCG64(SeedSequence(entropy)) per column."""
    seed_hi, seed_lo, seq_hi, seq_lo = _seed_state(entropy)
    # pcg64_set_seed: inc = seq << 1 | 1; state = 0 -> step -> + seed -> step
    inc_hi = (seq_hi << 1) | (seq_lo >> 63)
    inc_lo = (seq_lo << 1) | 1
    lo = inc_lo + seed_lo
    hi = inc_hi + seed_hi + (lo < inc_lo)
    hi, lo = _lcg_step(hi, lo, inc_hi, inc_lo)
    # the draw itself: step, then the XSL-RR output
    hi, lo = _lcg_step(hi, lo, inc_hi, inc_lo)
    x, rot = hi ^ lo, hi >> 58
    out = (x >> rot) | (x << ((64 - rot) & 63))
    return (out >> 11).astype(np.float64) * 2.0**-53


def window_doubles(seed: int, first: int, n: int) -> np.ndarray:
    """[np.random.default_rng([seed, m]).random() for m in first..first+n-1],
    computed in batches of CHUNK windows."""
    seed, first, n = operator.index(seed), operator.index(first), operator.index(n)
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    if first < 0 or first + n > 2**64:
        raise ValueError(f"window indices {first}..{first + n - 1} must lie in 0..2**64-1")
    seed_words = _uint32_words(seed)
    out = np.empty(n)
    pos = 0
    while pos < n:
        start = first + pos
        stop = pos + CHUNK
        if start < 2**32:  # m takes one entropy word below 2**32, two above
            stop = min(stop, 2**32 - first)
        stop = min(stop, n)
        m = np.uint64(start) + np.arange(stop - pos, dtype=np.uint64)
        m_words = [m & _MASK32] + ([m >> 32] if start >= 2**32 else [])
        words = [np.full(m.size, w, dtype=np.uint32) for w in seed_words]
        words += [w.astype(np.uint32) for w in m_words]
        out[pos:stop] = _first_doubles(words)
        pos = stop
    return out
