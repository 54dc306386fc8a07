"""Deterministic random-number management.

Every stochastic component (weather, traffic, charging behaviour, NN init,
PPO exploration) draws from its own named stream derived from a single root
seed, so that experiments are reproducible end-to-end and perturbing one
component does not shift the random state of another.

A stream is the ``PCG64`` generator of the
:class:`numpy.random.SeedSequence` child ``SeedSequence(entropy=seed,
spawn_key=(h,))``, where ``h`` is the first 64 bits (little-endian) of the
SHA-256 of the stream name. The streams are derived in bulk:
:meth:`RngFactory.streams` hashes every name, runs ``SeedSequence``'s
entropy mixing and ``generate_state`` once, vectorized in uint32 over all
the names, and seeds each ``PCG64`` from its four generated state words.
No ``SeedSequence`` object is built, yet every stream is bit-identical to
the ``SeedSequence`` child (``tests/test_foundations.py`` holds the
derivation to numpy). :meth:`RngFactory.stream` is a one-name call of the
same pass.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import ConfigError

_MASK32 = 0xFFFFFFFF
# SeedSequence's hash constants (numpy/random/bit_generator.pyx).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_POOL_SIZE = 4
#: uint32 words ``PCG64`` asks its seed sequence for (four uint64 words).
_PCG64_WORDS = 8


def _name_key(name: str) -> bytes:
    """Stable 64-bit key of a stream name: 8 little-endian SHA-256 bytes."""
    return hashlib.sha256(name.encode("utf-8")).digest()[:8]


def _uint32_words(value: int) -> list[int]:
    """``value`` split into little-endian uint32 words, as ``SeedSequence``
    splits an int: as few words as it takes, and ``[0]`` for zero."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _hashmix(value: np.ndarray, hash_const: int) -> tuple[np.ndarray, int]:
    """``SeedSequence``'s ``hashmix`` over a uint32 array; returns the mixed
    words and the next hash constant."""
    value = value ^ hash_const
    hash_const = (hash_const * _MULT_A) & _MASK32
    value = value * hash_const
    return value ^ (value >> _XSHIFT), hash_const


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def _pcg64_seed_words(seed: int, keys: np.ndarray) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=(k,)).generate_state(4, np.uint64)``
    for every 64-bit spawn key ``k``, given as ``(n, 2)`` uint32 rows of
    (low, high) words; returns an ``(n, 4)`` uint64 table.

    The hash constants do not depend on the data, so every key with the
    same number of words runs the same uint32 operations: one vectorized
    pass per word count (``SeedSequence`` drops a zero high word, so a key
    below 2**32 mixes one word fewer).
    """
    run = _uint32_words(seed)
    # With a spawn key, SeedSequence pads the run entropy to the pool size.
    run += [0] * (_POOL_SIZE - len(run))
    run_columns = [np.array([word], dtype=np.uint32) for word in run]
    words = np.empty((len(keys), _PCG64_WORDS), dtype=np.uint32)
    one_word = keys[:, 1] == 0
    for rows, width in (
        (np.flatnonzero(~one_word), 2),
        (np.flatnonzero(one_word), 1),
    ):
        if not rows.size:
            continue
        entropy = run_columns + list(keys[rows, :width].T)

        # mix_entropy: the entropy is always longer than the pool.
        hash_const = _INIT_A
        pool = []
        for source in entropy[:_POOL_SIZE]:
            value, hash_const = _hashmix(source, hash_const)
            pool.append(value)
        for src in range(_POOL_SIZE):
            for dst in range(_POOL_SIZE):
                if src != dst:
                    value, hash_const = _hashmix(pool[src], hash_const)
                    pool[dst] = _mix(pool[dst], value)
        for source in entropy[_POOL_SIZE:]:
            for dst in range(_POOL_SIZE):
                value, hash_const = _hashmix(source, hash_const)
                pool[dst] = _mix(pool[dst], value)

        # generate_state: cycle the pool through the second hash.
        hash_const = _INIT_B
        for column in range(_PCG64_WORDS):
            value = pool[column % _POOL_SIZE] ^ hash_const
            hash_const = (hash_const * _MULT_B) & _MASK32
            value = value * hash_const
            words[rows, column] = value ^ (value >> _XSHIFT)
    return words.astype("<u4").view("<u8").astype(np.uint64)


class _SeedWords(ISeedSequence):
    """A seed sequence that hands ``PCG64`` its precomputed state words."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != len(self.words) or np.dtype(dtype) != self.words.dtype:
            raise ValueError("_SeedWords only seeds PCG64 (4 uint64 words)")
        return self.words


class RngFactory:
    """Produces independent, named :class:`numpy.random.Generator` streams.

    >>> factory = RngFactory(seed=7)
    >>> weather_rng, traffic_rng = factory.streams(["weather", "traffic"])

    Deriving the same name twice returns generators with identical state
    sequences, which keeps components reproducible even when construction
    order changes.
    """

    def __init__(self, seed: int = 0) -> None:
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
            raise ConfigError(f"seed must be an integer, got {type(seed).__name__}")
        if seed < 0:
            raise ConfigError(f"seed must be non-negative, got {seed}")
        self._seed = int(seed)

    @property
    def seed(self) -> int:
        """The root seed this factory was created with."""
        return self._seed

    def streams(self, names: Sequence[str]) -> list[np.random.Generator]:
        """One fresh generator per name, derived in one vectorized pass.

        ``streams(names)[i]`` is the stream :meth:`stream` gives for
        ``names[i]``; equal names give equal, independent generators.
        """
        if not all(isinstance(name, str) and name for name in names):
            raise ConfigError("stream name must be a non-empty string")
        keys = np.frombuffer(
            b"".join(_name_key(name) for name in names), dtype="<u4"
        ).reshape(-1, 2)
        return [
            np.random.Generator(np.random.PCG64(_SeedWords(words)))
            for words in _pcg64_seed_words(self._seed, keys)
        ]

    def stream(self, name: str) -> np.random.Generator:
        """A fresh generator for the named stream (same name ⇒ same stream)."""
        return self.streams([name])[0]

    def substreams(self, name: str, count: int) -> list[np.random.Generator]:
        """``count`` independent generators under one named family.

        Used for per-station / per-hub randomness: ``substreams("hub", 12)``
        gives one stream per hub that is stable under fleet-size changes.
        """
        if count < 0:
            raise ConfigError(f"count must be non-negative, got {count}")
        return self.streams([f"{name}/{index}" for index in range(count)])

    def child(self, name: str) -> "RngFactory":
        """A derived factory whose streams are disjoint from the parent's."""
        key = int.from_bytes(_name_key(name), "little")
        return RngFactory(seed=(key ^ self._seed) & 0x7FFFFFFFFFFFFFFF)
