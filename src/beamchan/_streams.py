"""The estimators' member streams, computed a chunk at a time.

Stream (member, purpose) of a seed is the generator that
``np.random.default_rng(np.random.SeedSequence(entropy=seed,
spawn_key=(member, purpose)))`` would be.  Building those two objects
costs about 19 us per stream (2.1 GHz Xeon, numpy 2.4), about as much as
an estimator spends on a member's correlation terms.  So ``MemberStreams``
takes the seed's pool of four 32-bit words from ``SeedSequence(seed)`` and
mixes in the member and purpose words for a run of members at once, giving
the words each stream's SeedSequence would hand numpy's PCG64, bit for bit.
"""
from __future__ import annotations

import numpy as np

_MASK32 = 0xFFFFFFFF
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _words(n: int) -> list[int]:
    """``n`` as little-endian 32-bit words, the way SeedSequence reads an int."""
    if n < 0:
        raise ValueError(f"a stream key must be non-negative, got {n}")
    out = [n & _MASK32]
    while n := n >> 32:
        out.append(n & _MASK32)
    return out


def _scramble(value, before, after):
    """SeedSequence's hashmix of ``value``, given the running hash constant
    before and after the step (ints, or uint32 arrays that broadcast)."""
    value = (value ^ before) * after & _MASK32
    return value ^ value >> 16


def _steps(const: int, count: int, mult: int):
    """``count`` steps of the hash constant from ``const``: the constants
    before and after each step, as uint32 columns, and the last one."""
    seq = [const]
    for _ in range(count):
        seq.append(seq[-1] * mult & _MASK32)
    col = np.array(seq, dtype=np.uint32)[:, None]
    return col[:-1], col[1:], seq[-1]


def _mix(x, y):
    r = (_MIX_L * x - _MIX_R * y) & _MASK32
    return r ^ r >> 16


def _seed_pool(seed: int):
    """Pool and hash constant of SeedSequence(entropy=seed, spawn_key=...) once the
    seed's words are mixed in.  The pool is numpy's own (a spawn key's zero padding
    mixes like a short seed's); the constant has taken 16 steps, 4 more per extra word."""
    steps = 16 + 4 * max(len(_words(seed)) - _POOL, 0)
    return ([int(w) for w in np.random.SeedSequence(seed).pool],
            _INIT_A * pow(_MULT_A, steps, 1 << 32) & _MASK32)


class _Words:
    """One stream's seed sequence: PCG64 asks it for ``generate_state(4,
    np.uint64)``, the words the stream's ``SeedSequence`` would return."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


class MemberStreams:
    """The member streams of one seed, for a run of members.

    Stream (member, purpose) is the generator that
    ``default_rng(SeedSequence(entropy=seed, spawn_key=(member, purpose)))``
    would be, bit for bit.  Its PCG64 seed words are computed for every
    member and purpose at once: the seed's part of the hash once, the key
    words as (pool word, stream) uint32 arrays.  ``get`` seeds a new PCG64.
    """

    def __init__(self, seed: int, members: range, purposes):
        # registered here, not at import, to keep numpy.random out of ``import beamchan``
        from numpy.random.bit_generator import ISeedSequence
        ISeedSequence.register(_Words)
        self.seed, self.start, self.stop = seed, members.start, members.start + len(members)
        pool, const = _seed_pool(seed)
        pool = np.array(pool, dtype=np.uint32)[:, None]
        # stream (member i, purpose j) is column i * len(purposes) + j; its
        # key is the member's words (two from 2^32 on), then the purpose
        keys = np.array(members, dtype=object)
        width = len(_words(max(members)))
        count = np.ones(len(keys), dtype=np.int64)
        for k in range(1, width):
            count += (keys >> 32 * k > 0).astype(bool)
        count = np.repeat(count, len(purposes))
        tail = np.tile(np.array(purposes, dtype=np.uint32), len(members))
        for k in range(width + 1):
            word = tail if k == width else np.where(
                count > k, np.repeat((keys >> 32 * k & _MASK32).astype(np.uint32),
                                     len(purposes)), tail)
            before, after, const = _steps(const, _POOL, _MULT_A)
            pool = np.where(count >= k, _mix(pool, _scramble(word, before, after)), pool)
        # generate_state(4, np.uint64): eight words from the cycled pool,
        # two per uint64, low first
        before, after, _ = _steps(_INIT_B, 8, _MULT_B)
        out = _scramble(np.tile(pool, (2, 1)), before, after).astype(np.uint64)
        # contiguous: PCG64 reads a stream's four words straight from memory
        words = np.ascontiguousarray((out[1::2] << np.uint64(32) | out[::2]).T)
        self._words = words.reshape(len(members), len(purposes), 4)
        self._column = {purpose: j for j, purpose in enumerate(purposes)}

    def get(self, member: int, purpose: int) -> np.random.Generator:
        if not self.start <= member < self.stop:
            raise ValueError(f"member {member} is outside this chunk's members "
                             f"{self.start} to {self.stop - 1}")
        words = self._words[member - self.start, self._column[purpose]]
        return np.random.Generator(np.random.PCG64(_Words(words)))
