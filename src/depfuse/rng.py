"""Deterministic 64-bit pseudorandom generator used everywhere in depfuse.

Every random decision in the package (dataset splits, weight init, batch
shuffling, synthetic generation) funnels through SplitMix64 so that a single
seed reproduces identical artifacts byte for byte. The generator is fully
specified here so a reimplementation in another language can match it:

    state <- (state + 0x9E3779B97F4A7C15) mod 2^64
    z <- state
    z <- ((z XOR (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
    z <- ((z XOR (z >> 27)) * 0x94D049BB133111EB) mod 2^64
    output: z XOR (z >> 31)

Derived values:
  * uniform():   top 53 bits of next_u64, scaled by 2^-53 -> [0, 1)
  * randrange(n): rejection sampling on next_u64 (no modulo bias)
  * shuffle:     Fisher-Yates from the back using randrange
  * normal():    Box-Muller on two uniforms (second value cached)

Block draws are the same stream. ``uniforms(n)`` and ``normals(n)`` return
numpy arrays equal, bit for bit, to n calls of ``uniform()`` or
``normal()``, and leave the generator in the same state: the same position
in the 64-bit sequence and the same cached second normal, which a block
uses first and may leave for the next draw. They run SplitMix64 in wrapping
numpy uint64 arithmetic and Box-Muller with numpy's sqrt, cos and sin, which
agree with the math module's bit for bit, but take each logarithm from
``math.log``: numpy's vectorized log differs from it in the last bit on
some inputs.

Sub-seed derivation for independent streams is ``derive_seed(seed, *tags)``
where each integer tag is folded in with the SplitMix64 finalizer:

    s <- mix64(seed); for each tag: s <- mix64(s XOR ((tag * 0x9E3779B97F4A7C15) mod 2^64))
"""

from __future__ import annotations

import math
from typing import MutableSequence, Sequence, TypeVar

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# Block draws work through this many 64-bit words at a time, so their
# temporaries stay a few hundred KiB however large the request.
_BLOCK_WORDS = 1 << 15

T = TypeVar("T")


def mix64(z: int) -> int:
    """SplitMix64 finalizer: a bijective avalanche mix of a 64-bit word."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(seed: int, *tags: int) -> int:
    """Derive an independent sub-seed from a root seed and integer tags."""
    s = mix64(seed)
    for tag in tags:
        s = mix64(s ^ ((tag * _GOLDEN) & _MASK64))
    return s


# Stream tags for the pipeline stages (documented constants, part of the
# reproducibility contract).
STREAM_SPLIT = 1
STREAM_INIT = 2
STREAM_TRAIN = 3
STREAM_SYNTH = 4


class SplitMix64:
    """Sequential SplitMix64 stream with float/integer helpers."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64
        self._cached_normal: float | None = None

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return mix64(self._state)

    def uniform(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * 2.0**-53

    def _next_u64s(self, n: int) -> np.ndarray:
        """The next n outputs of next_u64 as a uint64 array."""
        z = np.arange(1, n + 1, dtype=np.uint64)
        z *= np.uint64(_GOLDEN)
        z += np.uint64(self._state)
        self._state = (self._state + n * _GOLDEN) & _MASK64
        z ^= z >> np.uint64(30)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> np.uint64(27)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
        return z

    def uniforms(self, n: int) -> np.ndarray:
        """n uniform() draws as a float64 array."""
        out = np.empty(n)
        for start in range(0, n, _BLOCK_WORDS):
            stop = min(start + _BLOCK_WORDS, n)
            out[start:stop] = (self._next_u64s(stop - start) >> np.uint64(11)) * 2.0**-53
        return out

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n) via rejection sampling (unbiased)."""
        if n <= 0:
            raise ValueError(f"randrange needs n > 0, got {n}")
        threshold = _MASK64 - ((_MASK64 + 1) % n)
        while True:
            u = self.next_u64()
            if u <= threshold:
                return u % n

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] inclusive."""
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        return lo + self.randrange(hi - lo + 1)

    def bernoulli(self, p: float) -> bool:
        return self.uniform() < p

    def choice(self, seq: Sequence[T]) -> T:
        return seq[self.randrange(len(seq))]

    def shuffle(self, seq: MutableSequence) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(seq) - 1, 0, -1):
            j = self.randrange(i + 1)
            seq[i], seq[j] = seq[j], seq[i]

    def normal(self, mean: float = 0.0, std: float = 1.0) -> float:
        """Gaussian sample via Box-Muller; consumes two uniforms per pair."""
        if self._cached_normal is not None:
            z = self._cached_normal
            self._cached_normal = None
        else:
            # u1 in (0, 1] so log(u1) is finite.
            u1 = ((self.next_u64() >> 11) + 1) * 2.0**-53
            u2 = self.uniform()
            r = math.sqrt(-2.0 * math.log(u1))
            z = r * math.cos(2.0 * math.pi * u2)
            self._cached_normal = r * math.sin(2.0 * math.pi * u2)
        return mean + std * z

    def normals(self, n: int, mean: float = 0.0, std: float = 1.0) -> np.ndarray:
        """n normal(mean, std) draws as a float64 array."""
        out = np.empty(n)
        start = 0
        if n > 0 and self._cached_normal is not None:
            out[0] = mean + std * self._cached_normal
            self._cached_normal = None
            start = 1
        while start < n:
            count = min(n - start, _BLOCK_WORDS)
            pairs = (count + 1) // 2
            words = self._next_u64s(2 * pairs) >> np.uint64(11)
            u1 = (words[0::2] + np.uint64(1)) * 2.0**-53
            theta = (2.0 * math.pi) * (words[1::2] * 2.0**-53)
            logs = np.fromiter(map(math.log, u1.tolist()), dtype=np.float64, count=pairs)
            r = np.sqrt(-2.0 * logs)
            z = np.empty(2 * pairs)
            z[0::2] = r * np.cos(theta)
            z[1::2] = r * np.sin(theta)
            if count < 2 * pairs:
                self._cached_normal = float(z[-1])
            out[start : start + count] = mean + std * z[:count]
            start += count
        return out
