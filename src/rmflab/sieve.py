"""Prime sieving and the arithmetic functions everything else consumes.

The central object is :class:`PrimeTables`: a smallest-prime-factor (spf)
table up to a fixed limit plus the ascending prime list.  All the number
theoretic helpers (factorization, largest prime factor, Mobius, m-fold
divisor functions, squarefree counts, prime reciprocal sums) are pure
reads against it, so one instance can be shared freely between workers.

Memory: 4 bytes per integer for the spf table (uint32), 4 more for the
largest-factor table once a bulk sieve asks for it, plus an int64 prime
list; a limit of 10^8 needs about 0.85 GB.  ``MAX_LIMIT`` refuses anything
that would not fit comfortably.
"""

from __future__ import annotations

import math
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

    def largest_factor_table(self) -> np.ndarray:
        """uint32 array ``idx`` with ``primes[idx[n]]`` = largest prime factor of n.

        A prime index, not the prime, so f(P(n)) is a single gather from the
        per-prime values.  n < 2 has no prime factor: ``idx[0]`` and ``idx[1]``
        hold the sentinel 0, which every caller must mask.  Built lazily and
        cached; callers must not mutate it.
        """
        if self._lpf is None:
            lpf = np.zeros(self.limit + 1, dtype=np.uint32)
            lpf[self.primes] = np.arange(len(self.primes))
            # A composite n has P(n) = P(n / spf(n)), and n / spf(n) <= n/2 <
            # lo for every n in [lo, 2*lo), so each block reads finished entries.
            lo = 4
            while lo <= self.limit:
                hi = min(2 * lo, lo + (1 << 20), self.limit + 1)
                cof = np.arange(lo, hi) // self.spf[lo:hi]
                lpf[lo:hi] = np.where(cof > 1, lpf[cof], lpf[lo:hi])
                lo = hi
            self._lpf = lpf
        return self._lpf

    def prime_count_upto(self, x: int) -> int:
        """Number of primes <= x."""
        return int(np.searchsorted(self.primes, x, side="right"))

    def primes_in(self, lo: int, hi: int) -> np.ndarray:
        """Primes p with lo < p <= hi, as an int64 slice of the prime list."""
        i0 = np.searchsorted(self.primes, lo, side="right")
        i1 = np.searchsorted(self.primes, hi, side="right")
        return self.primes[i0:i1]


@dataclass(frozen=True)
class Factorization:
    """Prime factorization ``n = prod p^e`` with primes strictly increasing."""

    n: int
    factors: tuple[tuple[int, int], ...]


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
    # Remaining zeros above 1 are exactly the primes with p^2 > limit.
    rest = np.flatnonzero(spf == 0)
    rest = rest[rest >= 2]
    spf[rest] = rest
    ns = np.arange(limit + 1, dtype=np.uint32)
    primes = np.flatnonzero(spf == ns)
    primes = primes[primes >= 2].astype(np.int64)
    return PrimeTables(limit=limit, spf=spf, primes=primes)


def _check_range(n: int, tables: PrimeTables, lo: int = 1) -> None:
    if not lo <= n <= tables.limit:
        raise ValueError(f"n={n} outside [{lo}, {tables.limit}]")


def factorize(n: int, tables: PrimeTables) -> Factorization:
    """Factor n by walking the spf table; ``factorize(1)`` is the empty product."""
    _check_range(n, tables)
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
    return Factorization(n=n, factors=tuple(out))


def largest_prime_factor(n: int, tables: PrimeTables) -> int:
    """Largest prime factor of n >= 2 (undefined, and an error, for n = 1)."""
    _check_range(n, tables, lo=2)
    m = n
    spf = tables.spf
    p = 0
    while m > 1:
        p = int(spf[m])
        while m % p == 0:
            m //= p
    return p


def mobius(n: int, tables: PrimeTables) -> int:
    """Mobius function: 0 on non-squarefree n, else (-1)^(#prime factors)."""
    _check_range(n, tables)
    m = n
    spf = tables.spf
    sign = 1
    while m > 1:
        p = int(spf[m])
        m //= p
        if m % p == 0:
            return 0
        sign = -sign
    return sign


def divisor_m(n: int, m: int, tables: PrimeTables) -> int:
    """m-fold divisor function: number of ordered m-tuples with product n.

    Computed as the product of binomial(e + m - 1, m - 1) over the prime
    exponents e of n.  Python integers are unbounded, so no overflow can
    occur silently.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    fac = factorize(n, tables)
    out = 1
    for _, e in fac.factors:
        out *= math.comb(e + m - 1, m - 1)
    return out


def divisor_partial_sum(x: int, m: int, tables: PrimeTables) -> int:
    """Exact sum of the m-fold divisor function over n <= x.

    One spf walk per integer, memoized on the cofactor, so the cost is
    O(x log log x) integer operations.  Exact (unbounded integers).
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    _check_range(x, tables)
    spf = tables.spf
    vals = [0] * (x + 1)
    vals[1] = 1
    total = 1
    for n in range(2, x + 1):
        p = int(spf[n])
        rest = n // p
        e = 1
        while rest % p == 0:
            rest //= p
            e += 1
        v = vals[rest] * math.comb(e + m - 1, m - 1)
        vals[n] = v
        total += v
    return total


def squarefree_indicator(x: int, tables: PrimeTables) -> np.ndarray:
    """Boolean array ``sq`` of length x+1 with ``sq[n]`` true iff n is squarefree.

    ``sq[0]`` is false by convention.
    """
    _check_range(x, tables)
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


def mertens_reciprocal_sum(a: int, b: int, tables: PrimeTables) -> float:
    """Sum of 1/p over primes a < p <= b, exactly rounded (math.fsum)."""
    if b > tables.limit:
        raise ValueError(f"b={b} exceeds table limit {tables.limit}")
    ps = tables.primes_in(a, b)
    return math.fsum(1.0 / p for p in ps.tolist())


def mertens_log_sum(a: int, b: int, tables: PrimeTables) -> float:
    """Sum of log(p)/p over primes a < p <= b, exactly rounded."""
    if b > tables.limit:
        raise ValueError(f"b={b} exceeds table limit {tables.limit}")
    ps = tables.primes_in(a, b)
    return math.fsum(math.log(p) / p for p in ps.tolist())
