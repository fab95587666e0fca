"""Prime sieving and the arithmetic functions everything else consumes.

The central object is :class:`PrimeTables`: a smallest-prime-factor (spf)
table up to a fixed limit plus the ascending prime list.  All the number
theoretic helpers (factorization, largest prime factor, m-fold divisor
functions, squarefree counts) are pure reads against it, so one instance
can be shared freely between workers.

Memory: 4 bytes per integer for the spf table (uint32), 4 more for the
largest-factor table once a bulk sieve asks for it, plus an int64 prime
list; a limit of 10^8 needs about 0.85 GB.  ``MAX_LIMIT`` refuses anything
that would not fit comfortably.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np

#: Hard cap on table size: 8 bytes/integer (spf and largest-factor tables)
#: plus the prime list, about 1.7 GB in total.
MAX_LIMIT = 200_000_000


@dataclass(eq=False)
class PrimeTables:
    """Smallest-prime-factor table up to ``limit`` with the prime list.

    ``spf[n]`` is the smallest prime factor of n, with the sentinel
    ``spf[1] == 1`` (and ``spf[0] == 0``, never consulted).  The lazily built
    largest-factor table holds prime *indices* into ``primes``.  Instances
    are immutable by contract after construction.
    """

    limit: int
    spf: np.ndarray
    primes: np.ndarray
    _lpf: np.ndarray | None = field(default=None, repr=False)
    _lpf_lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def largest_factor_table(self) -> np.ndarray:
        """uint32 array ``idx`` with ``primes[idx[n]]`` = largest prime factor of n.

        A prime index, not the prime, so f(P(n)) is a single gather from the
        per-prime values.  n < 2 has no prime factor: ``idx[0]`` and ``idx[1]``
        hold the sentinel 0, which every caller must mask.  Built lazily and
        cached, once even when seed batches on several threads ask for it
        together; callers must not mutate it.
        """
        if self._lpf is None:
            with self._lpf_lock:
                if self._lpf is None:
                    self._lpf = _largest_factor_indices(self.spf, self.primes)
        return self._lpf

    def check(self, value: int, name: str = "n", lo: int = 1) -> None:
        """Raise ``ValueError`` unless lo <= value <= limit."""
        if not lo <= value <= self.limit:
            raise ValueError(f"{name}={value} outside [{lo}, {self.limit}]")

    def prime_count_upto(self, x: int) -> int:
        """Number of primes <= x."""
        return int(np.searchsorted(self.primes, x, side="right"))

    def primes_in(self, lo: int, hi: int) -> np.ndarray:
        """Primes p with lo < p <= hi, as an int64 slice of the prime list."""
        i0 = np.searchsorted(self.primes, lo, side="right")
        i1 = np.searchsorted(self.primes, hi, side="right")
        return self.primes[i0:i1]


def _largest_factor_indices(spf: np.ndarray, primes: np.ndarray) -> np.ndarray:
    """The table of :meth:`PrimeTables.largest_factor_table`, from spf and primes."""
    limit = len(spf) - 1
    lpf = np.zeros(limit + 1, dtype=np.uint32)
    lpf[primes] = np.arange(len(primes))
    # A composite n has P(n) = P(n / spf(n)), and n / spf(n) <= n/2 < lo for
    # every n in [lo, 2*lo), so each block reads finished entries.
    lo = 4
    while lo <= limit:
        hi = min(2 * lo, lo + (1 << 20), limit + 1)
        cof = np.arange(lo, hi) // spf[lo:hi]
        lpf[lo:hi] = np.where(cof > 1, lpf[cof], lpf[lo:hi])
        lo = hi
    return lpf


def build_tables(limit: int) -> PrimeTables:
    """Sieve the smallest prime factor of every integer up to ``limit``."""
    if limit < 2:
        raise ValueError(f"limit must be >= 2, got {limit}")
    if limit > MAX_LIMIT:
        raise MemoryError(
            f"limit {limit} exceeds the supported cap {MAX_LIMIT}"
        )
    spf = np.zeros(limit + 1, dtype=np.uint32)
    spf[1] = 1
    for i in range(2, math.isqrt(limit) + 1):
        if spf[i] == 0:
            block = spf[i * i :: i]
            block[block == 0] = i
    # The loop never writes a prime's own entry, so the zeros are 0 and
    # exactly the primes.
    primes = np.flatnonzero(spf == 0)[1:].astype(np.int64)
    spf[primes] = primes
    return PrimeTables(limit=limit, spf=spf, primes=primes)


def factorize(n: int, tables: PrimeTables) -> tuple[tuple[int, int], ...]:
    """The ``(p, e)`` pairs of ``n = prod p^e``, primes strictly increasing.

    Walks the spf table; ``factorize(1)`` is the empty product ``()``.
    """
    tables.check(n)
    m = n
    out: list[tuple[int, int]] = []
    spf = tables.spf
    while m > 1:
        p = int(spf[m])
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        out.append((p, e))
    return tuple(out)


def largest_prime_factor(n: int, tables: PrimeTables) -> int:
    """Largest prime factor of n >= 2 (undefined, and an error, for n = 1)."""
    tables.check(n, lo=2)
    m = n
    spf = tables.spf
    p = 0
    while m > 1:
        p = int(spf[m])
        while m % p == 0:
            m //= p
    return p


def divisor_m(n: int, m: int, tables: PrimeTables) -> int:
    """m-fold divisor function: number of ordered m-tuples with product n.

    Computed as the product of binomial(e + m - 1, m - 1) over the prime
    exponents e of n.  Python integers are unbounded, so no overflow can
    occur silently.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    out = 1
    for _, e in factorize(n, tables):
        out *= math.comb(e + m - 1, m - 1)
    return out


def squarefree_indicator(x: int, tables: PrimeTables) -> np.ndarray:
    """Boolean array ``sq`` of length x+1 with ``sq[n]`` true iff n is squarefree.

    ``sq[0]`` is false by convention.
    """
    tables.check(x)
    sq = np.ones(x + 1, dtype=bool)
    sq[0] = False
    for p in tables.primes:
        p = int(p)
        if p * p > x:
            break
        sq[p * p :: p * p] = False
    return sq


def squarefree_count(x: int, tables: PrimeTables) -> int:
    """Number of squarefree integers n <= x (counting n = 1)."""
    return int(np.count_nonzero(squarefree_indicator(x, tables)))
