"""numpy's ``default_rng(row)`` seeding, bit for bit, for a table of rows:
``SeedSequence`` hashing in one uint32 numpy pass, then ``PCG64``'s state;
and each seeded stream's first standard normals as one block."""

from __future__ import annotations

import numpy as np

# SeedSequence's hash constants and PCG64's multiplier, as numpy has them
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _MASK32 = 0xCA01F9DD, 0x4973F715, 0xFFFFFFFF
_PCG_MULT, _MASK128 = 0x2360ED051FC65DA44385DF649FCCF645, (1 << 128) - 1


def _consts(c: int, mult: int, n: int) -> np.ndarray:
    """``n + 1`` successive hash constants, one per row: each ``hashmix``
    call xors with one and multiplies by the next."""
    return np.array([c] + [c := c * mult & _MASK32 for _ in range(n)], np.uint32)[:, None]


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """Successive ``hashmix`` calls, one per row of ``consts`` but its last."""
    v = (values ^ consts[:-1]) * consts[1:]
    return v ^ v >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * _MIX_L - y * _MIX_R
    return r ^ r >> 16


def seed_words(head: list[int], counters: np.ndarray) -> np.ndarray:
    """``SeedSequence(head + list(c)).generate_state(4, np.uint64)`` for
    each row ``c`` of the 2-D ``counters``, as a (rows, 4) uint64 array.
    An int enters the pool as its little-endian uint32 words, at least
    one, so each counter must lie in [0, 2^32)."""
    counters = np.asarray(counters)
    if counters.size and not 0 <= counters.min() <= counters.max() <= _MASK32:
        raise ValueError("stream counters must lie in [0, 2^32)")
    words = [n >> s & _MASK32 for n in head for s in range(0, max(n.bit_length(), 1), 32)]
    width = len(words) + counters.shape[1]
    # one entropy word per row, zero-padded to the 4-word pool
    entropy = np.zeros((max(width, 4), len(counters)), np.uint32)
    entropy[: len(words)] = np.array(words, np.uint32)[:, None]
    entropy[len(words) : width] = counters.T
    consts = _consts(_INIT_A, _MULT_A, 16 + 4 * (len(entropy) - 4))
    pool = _hashmix(entropy[:4], consts[:5])
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts[4 + 3 * src : 8 + 3 * src]))
    for k, extra in enumerate(entropy[4:]):
        pool = _mix(pool, _hashmix(extra, consts[16 + 4 * k : 21 + 4 * k]))
    state = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _consts(_INIT_B, _MULT_B, 8))
    return np.ascontiguousarray(state.T, "<u4").view("<u8").astype(np.uint64)


def pcg64_state(words: np.ndarray) -> dict:
    """The ``bit_generator.state`` of a ``PCG64`` seeded with one row of
    ``seed_words`` (numpy's ``pcg_setseq_128_srandom_r``)."""
    s_hi, s_lo, i_hi, i_lo = words.tolist()
    inc = (i_hi << 65 | i_lo << 1 | 1) & _MASK128
    state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


def normal_blocks(words: np.ndarray, pairs: int) -> np.ndarray:
    """Read-only (rows, pairs, 2) first standard normals of the stream each
    row of ``seed_words`` seeds: numpy's normal draws are prefix-consistent,
    so any run of ``standard_normal((n, 2))`` calls draws these in order."""
    out = np.empty((len(words), pairs, 2))
    rng = np.random.default_rng(0)  # one generator, its state loaded per row
    for block, w in zip(out, words):
        rng.bit_generator.state = pcg64_state(w)
        rng.standard_normal(out=block)
    out.flags.writeable = False
    return out
