"""Matrix and vector clocks used by the Full-Track and OptP protocols.

Algorithm Full-Track (paper Section III-A) maintains at every site an
``n x n`` integer matrix ``Write`` where ``Write[j][k]`` is the number of
updates sent by application process ``ap_j`` to site ``s_k`` that causally
happened before under the |co| relation.  The crucial difference from a
Lamport-style clock is *when* merging happens: a clock piggybacked on an
update message is **not** merged at message receipt, but only when a later
read returns the value carried by that message (delayed merge = tracking
|co| instead of happened-before, which removes false causality).

The clocks here are plain state containers; the delayed-merge discipline is
enforced by the protocols that use them.  The matrix clock is numpy-backed:
its hot operations are whole-array (an ``n x n`` elementwise maximum, a
column read).  The vector clock is not: at 5-40 entries numpy's fixed
per-call cost exceeds the work, so its entries are packed into one Python
int and compared with plain integer arithmetic.

.. |co| replace:: ``~>co``
"""

from __future__ import annotations

import struct
from functools import lru_cache
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError

_DTYPE = np.int64


class MatrixClock:
    """An ``n x n`` Write matrix clock (Full-Track).

    Entry ``[j, k]`` counts writes by process ``j`` destined to site ``k``
    in the causal past under the |co| relation.
    """

    __slots__ = ("n", "m")

    def __init__(self, n: int, m: np.ndarray | None = None) -> None:
        if n <= 0:
            raise ConfigurationError(f"matrix clock needs n >= 1, got {n}")
        self.n = n
        if m is None:
            self.m = np.zeros((n, n), dtype=_DTYPE)
        else:
            if m.shape != (n, n):
                raise ConfigurationError(
                    f"matrix clock shape {m.shape} != ({n}, {n})"
                )
            self.m = m.astype(_DTYPE, copy=True)

    def increment(self, writer: int, dests: Iterable[int]) -> None:
        """Record one write by ``writer`` multicast to sites ``dests``.

        ``dests`` may be an integer index ndarray — callers on the write
        hot path cache one per variable to skip the per-call list build.
        """
        if isinstance(dests, np.ndarray):
            self.m[writer, dests] += 1
        else:
            self.m[writer, list(dests)] += 1

    def merge(self, other: "MatrixClock") -> None:
        """Entrywise maximum, in place (paper Alg. 1 lines 10 and 12)."""
        np.maximum(self.m, other.m, out=self.m)

    def copy(self) -> "MatrixClock":
        return MatrixClock(self.n, self.m)

    def frozen_copy(self) -> "MatrixClock":
        """A copy whose buffer is marked read-only (safe to piggyback on
        several messages without re-copying per destination)."""
        c = self.copy()
        c.m.setflags(write=False)
        return c

    def __getitem__(self, jk: tuple[int, int]) -> int:
        return int(self.m[jk])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MatrixClock):
            return NotImplemented
        return self.n == other.n and bool(np.array_equal(self.m, other.m))

    def __le__(self, other: "MatrixClock") -> bool:
        """Pointwise dominance: every entry of self <= other."""
        return bool(np.all(self.m <= other.m))

    def dominates(self, other: "MatrixClock") -> bool:
        return bool(np.all(self.m >= other.m))

    def column(self, k: int) -> np.ndarray:
        """Column ``k``: per-writer counts of updates destined to site
        ``k``.  Used by strict remote reads (only the serving site's column
        is needed, an O(n) vector rather than the O(n^2) matrix)."""
        return self.m[:, k].copy()

    def size_bytes(self, entry_bytes: int = 8) -> int:
        """Size of this clock when piggybacked on a message."""
        return self.n * self.n * entry_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MatrixClock(n={self.n},\n{self.m})"


#: A vector clock is one Python int of ``n`` fixed-width lanes, entry ``j``
#: in bits ``[64 j, 64 j + 63)`` under a *guard* bit ``64 j + 63`` that is
#: clear in every stored value.  A lane holds what an ``int64`` entry held.
#: With ``H`` the mask of all guards, ``(a | H) - b`` subtracts lane-wise
#: without borrowing across lanes, and the guard of lane ``j`` survives
#: exactly when ``a[j] >= b[j]`` — a whole-vector compare is three integer
#: operations with no per-call dispatch (docs/performance.md, "Clock state
#: without numpy", has the measurements against numpy and tuples).
_LANE_BITS = 64
_GUARD_SHIFT = _LANE_BITS - 1
_LANE_MAX = (1 << _GUARD_SHIFT) - 1


@lru_cache(maxsize=None)
def _guards(n: int) -> int:
    """The guard mask ``H`` of an ``n``-lane vector (cached: clocks of one
    width share one object, which keeps width checks cheap)."""
    return sum(1 << (_LANE_BITS * j + _GUARD_SHIFT) for j in range(n))


class VectorClock:
    """An ``n``-entry vector clock (OptP and Ahamad baselines).

    Entry ``[j]`` counts writes by process ``j`` in the causal past.  Under
    full replication every write goes to every site, so the Full-Track
    matrix degenerates into this vector (every column is identical).

    The entries live in one immutable int (see ``_LANE_BITS``), so
    :meth:`copy` and :meth:`frozen_copy` are O(1).  Entries are integers in
    ``[0, 2**63)``; one that would leave that range raises
    :class:`OverflowError` instead of carrying into its neighbour.
    """

    __slots__ = ("n", "_x", "_h", "_frozen")

    def __init__(self, n: int, v: Sequence[int] | None = None) -> None:
        if n <= 0:
            raise ConfigurationError(f"vector clock needs n >= 1, got {n}")
        self.n = n
        self._h = _guards(n)
        self._frozen = False
        if v is None:
            self._x = 0
            return
        if len(v) != n:
            raise ConfigurationError(
                f"vector clock of {n} entries built from {len(v)} values"
            )
        try:
            x = int.from_bytes(struct.pack(f"<{n}Q", *v), "little")
        except struct.error:  # negative, past 64 bits, or not an integer
            x = -1
        if x < 0 or x & self._h:
            raise OverflowError(
                f"vector clock entries must be integers in [0, 2**63): {list(v)}"
            )
        self._x = x

    def _derive(self, frozen: bool) -> "VectorClock":
        c = VectorClock.__new__(VectorClock)
        c.n = self.n
        c._x = self._x
        c._h = self._h
        c._frozen = frozen
        return c

    def _width_error(self, other: "VectorClock") -> ConfigurationError:
        # the binary operations compare guard masks inline: one shared
        # object per width (see _guards), so the test is an identity hit
        return ConfigurationError(
            f"vector clocks of {self.n} and {other.n} entries do not combine"
        )

    @property
    def v(self) -> Tuple[int, ...]:
        """The entries as a tuple of ints (a read-only view)."""
        n = self.n
        return struct.unpack(f"<{n}Q", self._x.to_bytes(8 * n, "little"))

    def increment(self, writer: int) -> None:
        if self._frozen:
            raise ValueError("frozen vector clock is read-only")
        if not 0 <= writer < self.n:
            raise IndexError(f"vector clock entry {writer} out of range")
        x = self._x + (1 << (_LANE_BITS * writer))
        if x & self._h:
            raise OverflowError(f"vector clock entry {writer} overflows its lane")
        self._x = x

    def merge(self, other: "VectorClock") -> None:
        """Entrywise maximum, in place."""
        if self._frozen:
            raise ValueError("frozen vector clock is read-only")
        h = self._h
        if other._h != h:
            raise self._width_error(other)
        b = self._x
        t = (other._x | h) - b
        d = t & h  # guards of the lanes where other >= self
        # d - (d >> 63) fills those lanes' value bits: add other - self there
        self._x = b + (t & (d - (d >> _GUARD_SHIFT)))

    def copy(self) -> "VectorClock":
        return self._derive(False)

    def frozen_copy(self) -> "VectorClock":
        """A read-only copy (safe to piggyback on several messages and to
        keep as ``LastWriteOn`` without re-copying)."""
        return self._derive(True)

    def __getitem__(self, j: int) -> int:
        if not 0 <= j < self.n:
            raise IndexError(f"vector clock entry {j} out of range")
        return (self._x >> (_LANE_BITS * j)) & _LANE_MAX

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VectorClock):
            return NotImplemented
        return self.n == other.n and self._x == other._x

    def __le__(self, other: "VectorClock") -> bool:
        h = self._h
        if other._h != h:
            raise self._width_error(other)
        return ((other._x | h) - self._x) & h == h

    def dominates(self, other: "VectorClock") -> bool:
        h = self._h
        if other._h != h:
            raise self._width_error(other)
        return ((self._x | h) - other._x) & h == h

    def admits(self, stamp: "VectorClock", sender: int) -> bool:
        """The optimal activation predicate over full vectors, with this
        clock as ``Apply``: ``stamp`` is exactly one ahead in slot
        ``sender`` and not ahead in any other slot — the one-slot-short
        test ``Apply[j] = W[j] - 1  and  Apply[k] >= W[k] for k != j``."""
        h = self._h
        if stamp._h != h:
            raise self._width_error(stamp)
        shift = _LANE_BITS * sender
        # lane k of d is 2**63 + Apply[k] - W[k], plus the credit of the
        # awaited update in the sender's lane: every guard must survive
        # (W covered everywhere) with nothing left over in that lane (met
        # exactly; were its credit to carry out, its own guard would clear)
        d = (self._x | h) - stamp._x + (1 << shift)
        return d & h == h and not (d >> shift) & _LANE_MAX

    def short_slots(self, other: "VectorClock") -> List[int]:
        """The slots where this clock is behind ``other``, ascending."""
        h = self._h
        if other._h != h:
            raise self._width_error(other)
        short = (((self._x | h) - other._x) & h) ^ h
        slots = []
        while short:
            low = short & -short
            slots.append(low.bit_length() // _LANE_BITS - 1)
            short ^= low
        return slots

    def size_bytes(self, entry_bytes: int = 8) -> int:
        return self.n * entry_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VectorClock({list(self.v)})"
