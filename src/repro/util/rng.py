"""Deterministic random number generation.

Every stochastic element of the simulator draws from a
:class:`numpy.random.Generator` seeded from a single root seed, so that
identical configurations reproduce identical runs bit-for-bit.  Substreams
are derived with :func:`make_rng` using a stable string salt, which keeps
the traffic stream independent of, say, arbitration tie-breaking.

Synthetic traffic draws through :class:`RawReplay`, which replays a
generator's ``random()``, ``random(n)`` and ``integers(low, high)``
from PCG64 raw words fetched in blocks of :data:`BLOCK_WORDS`.  Every
value equals what numpy returns for the same call sequence, so traffic
depends only on PCG64's raw output (which NumPy's NEP 19 keeps stable),
not on ``Generator`` method internals, and a Bernoulli sweep over many
nodes reduces to a search in a precomputed list of hit positions.
"""

from __future__ import annotations

import zlib
from bisect import bisect_left
from collections.abc import Sequence

import numpy as np


def make_rng(seed: int, salt: str = "") -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``(seed, salt)``.

    The salt is hashed with CRC32 so that distinct component names yield
    statistically independent substreams while remaining reproducible
    across processes and Python versions (unlike built-in ``hash``).

    Parameters
    ----------
    seed:
        Root seed of the simulation run.
    salt:
        Stable component name, e.g. ``"traffic"`` or ``"arbiter"``.
    """
    mixed = (int(seed) & 0xFFFFFFFF, zlib.crc32(salt.encode("utf-8")))
    return np.random.default_rng(np.random.SeedSequence(mixed))


#: raw 64-bit words fetched from the bit generator per refill.
BLOCK_WORDS = 4096

#: ``random()`` maps the top 53 bits of a raw word onto [0, 1).
_DOUBLE_UNIT = 2.0**-53

_MASK32 = 0xFFFFFFFF

#: past every real position; ends each hit list so scans need no bound.
_NO_HIT = 1 << 62


class RawReplay:
    """A PCG64 generator's draws, replayed from blocks of raw words.

    The replay takes ownership of ``generator``: it fetches raw words
    ahead with ``bit_generator.random_raw``, so any draw made on the
    generator afterwards would desynchronize the two.  Numpy's mapping
    from raw words to values, reproduced exactly:

    * ``random()`` takes one word ``w`` and returns ``(w >> 11) * 2**-53``;
      ``random(n)`` is ``n`` such draws;
    * ``integers(low, high)`` is Lemire's bounded rejection over 32-bit
      half-words: a half comes from the buffered upper half of the last
      split word if there is one, else a fresh word is split (lower half
      first, upper half buffered).  ``random()`` never touches the
      buffer, and a one-value range consumes nothing.

    :meth:`hits` is ``np.flatnonzero(random(n) < p)`` answered from a
    sorted list of the buffered words that fall below ``p``, computed
    once per block (and again when ``p`` changes), so a sweep without a
    hit costs a comparison against the next hit position.
    """

    __slots__ = ("_bitgen", "_half", "_raw", "_word_at", "_u", "_pos", "_len",
                 "_p", "_hits", "_hi")

    def __init__(self, generator: np.random.Generator) -> None:
        bitgen = generator.bit_generator
        state = bitgen.state
        if state["bit_generator"] != "PCG64":
            raise ValueError(
                f"RawReplay replays PCG64 only, not {state['bit_generator']}"
            )
        self._bitgen = bitgen
        #: buffered upper half-word, or -1 when none is pending.
        self._half = state["uinteger"] if state["has_uint32"] else -1
        self._raw = np.empty(0, dtype=np.uint64)
        #: ``_raw.item``: one word as a Python int (a whole-block
        #: ``tolist`` would cost more than the few scalar draws use).
        self._word_at = self._raw.item
        self._u = np.empty(0, dtype=np.float64)
        self._pos = 0
        self._len = 0
        self._p: float | None = None
        self._hits = [_NO_HIT]
        self._hi = 0

    # -- buffer --------------------------------------------------------
    def _refill(self, need: int) -> None:
        """Keep the unread words and fetch blocks until ``need`` are
        buffered; positions restart at 0."""
        raw = self._raw[self._pos:]
        while raw.size < need:
            raw = np.concatenate((raw, self._bitgen.random_raw(BLOCK_WORDS)))
        self._raw = raw
        self._word_at = raw.item
        self._u = (raw >> np.uint64(11)) * _DOUBLE_UNIT
        self._pos = 0
        self._len = raw.size
        if self._p is not None:
            self._threshold(self._p)

    def _threshold(self, p: float) -> None:
        """Hit positions (uniform < ``p``) among the unread words."""
        pos = self._pos
        hits = np.flatnonzero(self._u[pos:] < p)
        hits += pos
        self._hits = hits.tolist()
        self._hits.append(_NO_HIT)
        self._hi = 0
        self._p = p

    def _word(self) -> int:
        pos = self._pos
        if pos == self._len:
            self._refill(1)
            pos = 0
        self._pos = pos + 1
        return self._word_at(pos)

    def _next32(self) -> int:
        half = self._half
        if half >= 0:
            self._half = -1
            return half
        w = self._word()
        self._half = w >> 32
        return w & _MASK32

    # -- draws ---------------------------------------------------------
    def random(self, n: int | None = None):
        """``Generator.random()`` (a float) or ``random(n)`` (an array)."""
        if n is None:
            return (self._word() >> 11) * _DOUBLE_UNIT
        if self._pos + n > self._len:
            self._refill(n)
        pos = self._pos
        self._pos = pos + n
        return self._u[pos:pos + n].copy()

    def integers(self, low: int, high: int) -> int:
        """``int(Generator.integers(low, high))`` for a range of at most
        ``2**32`` values."""
        m = high - low
        if m <= 0:
            raise ValueError("high <= low")
        if m == 1:
            return low
        if m > _MASK32 + 1:
            raise ValueError("RawReplay.integers supports at most 2**32 values")
        if m == _MASK32 + 1:
            return low + self._next32()
        prod = self._next32() * m
        leftover = prod & _MASK32
        if leftover < m:
            threshold = (_MASK32 - (m - 1)) % m
            while leftover < threshold:
                prod = self._next32() * m
                leftover = prod & _MASK32
        return low + (prod >> 32)

    def hits(self, n: int, p: float) -> Sequence[int]:
        """Indices ``i < n`` whose uniform draw is below ``p``: the same
        draws and result as ``np.flatnonzero(random(n) < p)``."""
        if p != self._p:
            self._threshold(p)
        pos = self._pos
        end = pos + n
        if end > self._len:
            self._refill(n)
            pos = 0
            end = n
        self._pos = end
        hits = self._hits
        hi = self._hi
        if hits[hi] < pos:
            # skip hits among words consumed by scalar draws
            hi = bisect_left(hits, pos, hi)
        if hits[hi] >= end:
            self._hi = hi
            return ()
        out = []
        while hits[hi] < end:
            out.append(hits[hi] - pos)
            hi += 1
        self._hi = hi
        return out
