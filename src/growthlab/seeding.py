"""Deterministic derivation of independent RNG streams.

All randomness in the package flows through one convention: a stream is
identified by a base seed plus a tuple of integer indices (day number,
sweep cell, bootstrap replicate, ...) and is materialized as
``seed XOR mix(*indices)`` where ``mix`` chains the splitmix64 finalizer.
Streams are therefore a pure function of (seed, indices) and never depend
on evaluation order, thread schedule or call history.

generator() builds one stream's PCG64 generator the way numpy does.
generators() yields the streams (seed, stream, k) for k = 0, 1, ... from
one pass: it derives the seeds, runs numpy's SeedSequence hash and PCG64
seeding on all of them as array arithmetic, and moves a single generator
from stream to stream, so stream k is bit for bit generator(seed, stream,
k) without building a generator per stream.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .errors import DomainError

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

# Fixed stream tags. Distinct high-entropy constants keep e.g. the day-0
# activity stream and the replicate-0 bootstrap stream unrelated even for
# equal base seeds.
STREAM_DAY = 0x6772_6F77_7468_6C61
STREAM_SCHEDULE = 0x5343_4845_4455_4C45
STREAM_CELL = 0x5357_4545_5043_454C
STREAM_BOOTSTRAP = 0x424F_4F54_5354_5250

_MIX_START = 0x243F6A8885A308D3
_SPLITMIX = (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB)

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) and the PCG64
# multiplier (numpy/random/src/pcg64/pcg64.h).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def check_seed(seed) -> int:
    """`seed` as an int, if it is an integer in [0, 2^64); else DomainError.

    Python ints and numpy integers are accepted; bools, floats and strings
    are not, whatever their value.
    """
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise DomainError(f"seed must be an integer, got {seed!r}")
    if not 0 <= seed <= _MASK64:
        raise DomainError(f"seed must fit in 64 bits, got {seed}")
    return int(seed)


def splitmix64(value: int) -> int:
    """One splitmix64 step: a bijective 64-bit finalizer with good avalanche."""
    z = (value + _SPLITMIX[0]) & _MASK64
    z = ((z ^ (z >> 30)) * _SPLITMIX[1]) & _MASK64
    z = ((z ^ (z >> 27)) * _SPLITMIX[2]) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def mix(*indices: int) -> int:
    """Fold any number of integer indices into one 64-bit word."""
    acc = _MIX_START
    for index in indices:
        acc = splitmix64(acc ^ (index & _MASK64))
    return acc


def derive_seed(seed: int, *indices: int) -> int:
    """Seed for the sub-stream named by `indices`: seed XOR mix(*indices)."""
    if not indices:
        return seed & _MASK64
    return (seed ^ mix(*indices)) & _MASK64


def generator(seed: int, *indices: int) -> np.random.Generator:
    """A PCG64 generator positioned at the start of the named sub-stream."""
    return np.random.Generator(np.random.PCG64(derive_seed(seed, *indices)))


def _splitmix64_array(z: np.ndarray) -> np.ndarray:
    """splitmix64 on a uint64 array; array arithmetic wraps modulo 2^64."""
    z = z + np.uint64(_SPLITMIX[0])
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_SPLITMIX[1])
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_SPLITMIX[2])
    return z ^ (z >> np.uint64(31))


def _hash_constants(init: int, mult: int, calls: int):
    """The xor and multiply words of numpy's hashmix for `calls` successive
    calls, as uint32 columns: call i uses h_i and h_(i+1), where h_0 = init
    and h_(i+1) = h_i * mult mod 2^32, whatever the data."""
    h = [init]
    for _ in range(calls):
        h.append((h[-1] * mult) & _MASK32)
    column = np.array(h, dtype=np.uint32)[:, None]
    return column[:-1], column[1:]


# Mixing a pool of four words hashes four entropy words, then each word
# into the three others; generating eight state words hashes eight more.
_POOL_HASH = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE)
_STATE_HASH = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE)


def _hashmix(words: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    words = (words ^ xor) * mult
    return words ^ (words >> np.uint32(16))


def _mix_words(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> np.uint32(16))


def _pcg64_words(seeds: np.ndarray) -> list[list[int]]:
    """The four uint64 words PCG64(seed) asks SeedSequence(seed) for.

    A seed below 2^64 is at most two uint32 words of entropy; the pool of
    four hashes missing words as zeros, so every seed is (low, high, 0, 0).
    Each hashmix call of numpy's loops becomes one row of uint32 arithmetic
    over all the seeds.
    """
    xor, mult = _POOL_HASH
    entropy = np.zeros((_POOL_SIZE, len(seeds)), dtype=np.uint32)
    entropy[0] = seeds.astype(np.uint32)
    entropy[1] = (seeds >> np.uint64(32)).astype(np.uint32)
    pool = _hashmix(entropy, xor[:_POOL_SIZE], mult[:_POOL_SIZE])
    for src in range(_POOL_SIZE):
        calls = slice(_POOL_SIZE + 3 * src, _POOL_SIZE + 3 * src + 3)
        dst = [i for i in range(_POOL_SIZE) if i != src]
        pool[dst] = _mix_words(pool[dst], _hashmix(pool[src], xor[calls], mult[calls]))
    state = _hashmix(np.tile(pool, (2, 1)), *_STATE_HASH).astype(np.uint64)
    return (state[0::2] | (state[1::2] << np.uint64(32))).tolist()


def generators(seed: int, stream: int, count: int) -> Iterator[np.random.Generator]:
    """Generators for the streams (seed, stream, k), k = 0 .. count - 1.

    Stream k draws exactly what generator(seed, stream, k) draws. All
    `count` seeds are derived and hashed at once; each stream is then one
    state update of a single PCG64 generator, which is yielded again and
    again. So each yielded generator must be used before the next one is
    taken: taking the next one moves the generator already in hand.
    """
    first = splitmix64(_MIX_START ^ (stream & _MASK64))
    seeds = _splitmix64_array(np.arange(count, dtype=np.uint64) ^ np.uint64(first))
    seeds ^= np.uint64(seed & _MASK64)
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    for s_hi, s_lo, i_hi, i_lo in zip(*_pcg64_words(seeds)):
        # pcg64_set_seed: inc = 2 * initseq + 1, then two steps around
        # adding initstate to the state.
        inc = (((i_hi << 64) | i_lo) << 1 | 1) & _MASK128
        state = ((inc + ((s_hi << 64) | s_lo)) * _PCG_MULT + inc) & _MASK128
        bit_generator.state = {"bit_generator": "PCG64",
                               "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
        yield rng
