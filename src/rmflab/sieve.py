"""Prime sieving and the arithmetic functions everything else consumes.

The central object is :class:`PrimeTables`: the ascending prime list up to a
fixed limit plus a largest-prime-factor table that indexes it.  All the
number theoretic helpers (factorization, largest prime factor, m-fold
divisor functions, squarefree counts) are pure reads against it, so one
instance can be shared freely between workers.

Memory: 4 bytes per integer for the table (uint32) plus an int64 prime list;
a limit of 10^8 holds about 0.45 GB.  ``MAX_LIMIT`` refuses anything that
would not fit comfortably.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

#: Hard cap on table size: 4 bytes/integer plus the prime list, about 0.9 GB
#: in total.
MAX_LIMIT = 200_000_000


@dataclass(eq=False)
class PrimeTables:
    """The primes up to ``limit`` and the largest prime factor of each n.

    The table holds prime *indices* into ``primes``.  Instances are
    immutable by contract after construction.
    """

    limit: int
    primes: np.ndarray
    _lpi: np.ndarray = field(repr=False)

    def largest_factor_table(self) -> np.ndarray:
        """uint32 array ``idx`` with ``primes[idx[n]]`` = largest prime factor of n.

        A prime index, not the prime, so f(P(n)) is a single gather from the
        per-prime values.  n < 2 has no prime factor: ``idx[0]`` and ``idx[1]``
        hold the sentinel 0, which every caller must mask.  Callers must not
        mutate it.
        """
        return self._lpi

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


def build_tables(limit: int) -> PrimeTables:
    """Sieve the largest prime factor of every integer up to ``limit``."""
    if limit < 2:
        raise ValueError(f"limit must be >= 2, got {limit}")
    if limit > MAX_LIMIT:
        raise MemoryError(
            f"limit {limit} exceeds the supported cap {MAX_LIMIT}"
        )
    r = math.isqrt(limit)
    # The primes <= max(r, 2): at limits 2 and 3, r = 1 would lose the prime 2.
    is_prime = np.ones(max(r, 2) + 1, dtype=bool)
    is_prime[:2] = False
    for i in range(2, math.isqrt(is_prime.size - 1) + 1):
        if is_prime[i]:
            is_prime[i * i :: i] = False
    small = np.flatnonzero(is_prime)
    lpi = np.zeros(limit + 1, dtype=np.uint32)
    # In ascending order a larger prime overwrites a smaller one, so each
    # entry ends at the index of its largest prime factor <= r.
    for i, p in enumerate(small.tolist()):
        lpi[p::p] = i
    # Only 2 has index 0, so an odd n >= 3 still at 0 has no prime factor
    # <= r; as n < (r + 1)^2, it is a prime above r.
    big = np.flatnonzero(lpi[3::2] == 0)
    big *= 2
    big += 3
    primes = np.concatenate((small, big), dtype=np.int64)
    big = primes[small.size :]  # a view, so the flatnonzero copy is freed
    # An n <= limit has at most one prime factor q > r, and then n = m * q
    # with m <= r < q, so q's index is final over whatever the loop wrote.
    for m in range(1, limit // (r + 1) + 1):
        j = np.searchsorted(big, limit // m, side="right")
        lpi[m * big[:j]] = np.arange(small.size, small.size + j)
    return PrimeTables(limit=limit, primes=primes, _lpi=lpi)


def factorize(n: int, tables: PrimeTables) -> tuple[tuple[int, int], ...]:
    """The ``(p, e)`` pairs of ``n = prod p^e``, primes strictly increasing.

    Walks the largest-factor table down from P(n); ``factorize(1)`` is the
    empty product ``()``.
    """
    tables.check(n)
    m = n
    out: list[tuple[int, int]] = []
    lpi = tables.largest_factor_table()
    primes = tables.primes
    while m > 1:
        p = primes.item(lpi.item(m))
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        out.append((p, e))
    return tuple(reversed(out))


def largest_prime_factor(n: int, tables: PrimeTables) -> int:
    """Largest prime factor of n >= 2 (undefined, and an error, for n = 1)."""
    tables.check(n, lo=2)
    return tables.primes.item(tables.largest_factor_table().item(n))


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
