"""Reproducible Rademacher and Steinhaus random multiplicative functions.

Per-prime values come from a counter-style hash of (seed, p), not from a
sequential stream, so evaluation order, laziness and parallelism cannot
change a realization.  Rademacher values are the integers +-1 (and f is
supported on the squarefree integers); Steinhaus values are complex of
modulus 1 and f is completely multiplicative.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .sieve import PrimeTables


class Model(str, Enum):
    RADEMACHER = "rademacher"
    STEINHAUS = "steinhaus"


#: Cells (seeds x primes x t-points, or seeds x integers) of one seed batch
#: of :func:`over_seeds`: each batch's temporaries stay a few tens of MB.
BATCH_CELLS = 4_000_000

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_OFFSET = np.uint64(0x85EBCA6B27D4EB4F)


def _mix64(x: np.ndarray) -> np.ndarray:
    """murmur3 fmix64 finalizer, in place on uint64 ``x`` (wrapping arithmetic)."""
    x ^= x >> np.uint64(33)
    x *= np.uint64(0xFF51AFD7ED558CCD)
    x ^= x >> np.uint64(33)
    x *= np.uint64(0xC4CEB9FE1A85EC53)
    x ^= x >> np.uint64(33)
    return x


def _uniform_bits(seeds, primes) -> np.ndarray:
    """64 uniform bits per (seed, prime) pair, shape (len(seeds), len(primes))."""
    s = np.asarray(seeds, dtype=np.int64).astype(np.uint64).reshape(-1, 1)
    p = np.asarray(primes, dtype=np.int64).astype(np.uint64).reshape(1, -1)
    return _mix64(_mix64(p * _GOLDEN + _OFFSET) ^ s)


def prime_value_matrix(model: Model, seeds, primes) -> np.ndarray:
    """f(p) for every (seed, prime) pair; int8 for Rademacher, complex128 else.

    The Steinhaus angle is 2*pi*u/2^64 for the 64 hashed bits u, i.e. exactly
    uniform on the circle up to the 2^-64 discretization.
    """
    if Model(model) is Model.RADEMACHER:
        return 1 - 2 * (~_uniform_bits(seeds, primes) >> np.uint64(63)).astype(np.int8)
    theta = _uniform_bits(seeds, primes).astype(np.float64)
    theta *= 2.0 ** -64 * (2.0 * np.pi)
    out = np.empty(theta.shape, dtype=np.complex128)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    return out


def over_seeds(fn, seeds, cells_per_seed: int) -> np.ndarray:
    """``fn(batch)`` over consecutive batches of ``seeds``, joined on the first axis.

    A batch holds at most BATCH_CELLS cells (and one seed at least), so peak
    memory follows the batch, not the seed count.  ``fn`` gives one row per
    seed, which must not depend on the batch it falls in.
    """
    step = max(1, BATCH_CELLS // max(1, cells_per_seed))
    return np.concatenate([fn(seeds[i:i + step]) for i in range(0, len(seeds), step)])


class SampledFunction:
    """One seeded realization of a random multiplicative function.

    All prime values up to ``tables.limit`` are materialized at construction
    (counter-based, so the same (model, seed) always yields the same values)
    and the instance is immutable afterwards; concurrent reads are safe.
    """

    def __init__(self, model, seed: int, tables: PrimeTables):
        self.model = Model(model)
        self.seed = int(seed)
        self.tables = tables
        self._values = prime_value_matrix(self.model, [self.seed], tables.primes)[0]

    # -- point evaluation ----------------------------------------------------

    def _prime_index(self, p: int) -> int:
        idx = int(np.searchsorted(self.tables.primes, p))
        if idx >= len(self.tables.primes) or self.tables.primes[idx] != p:
            raise ValueError(f"{p} is not a prime <= {self.tables.limit}")
        return idx

    def prime_value(self, p: int):
        """f(p); an int in {+1,-1} for Rademacher, a unit complex for Steinhaus."""
        v = self._values[self._prime_index(p)]
        return int(v) if self.model is Model.RADEMACHER else complex(v)

    def value_at(self, n: int):
        """f(n) from the prime factorization; f(1) = 1.

        Rademacher vanishes on non-squarefree n; Steinhaus is completely
        multiplicative.
        """
        if not 1 <= n <= self.tables.limit:
            raise ValueError(f"n={n} outside [1, {self.tables.limit}]")
        spf = self.tables.spf
        m = n
        if self.model is Model.RADEMACHER:
            out = 1
            while m > 1:
                p = int(spf[m])
                m //= p
                if m % p == 0:
                    return 0
                out *= int(self._values[self._prime_index(p)])
            return out
        out = complex(1.0)
        while m > 1:
            p = int(spf[m])
            v = complex(self._values[self._prime_index(p)])
            while m % p == 0:
                m //= p
                out *= v
        return out

    # -- bulk evaluation -----------------------------------------------------

    def values_up_to(self, y: int) -> np.ndarray:
        """Array ``fv`` of length y+1 with ``fv[n] = f(n)`` (``fv[0] = 0``).

        Rademacher output is int8 (exact), Steinhaus complex128.
        """
        if not 1 <= y <= self.tables.limit:
            raise ValueError(f"y={y} outside [1, {self.tables.limit}]")
        k = self.tables.prime_count_upto(y)
        return _sieve(self.model, self._values[None, :k], y, self.tables)[0]

    def prefix_sums(self, y: int) -> np.ndarray:
        """A[k] = sum of f(m) for m <= k, 0 <= k <= y, with A[0] = 0.

        Rademacher sums are exact int64; Steinhaus sums are complex128
        (sequential cumulation, deterministic).
        """
        return cumulate(self.values_up_to(y))


def _sieve(model: Model, pv: np.ndarray, y: int, tables: PrimeTables) -> np.ndarray:
    """f(n) for n = 0..y, one row per row of prime values ``pv`` (rows, pi(y)).

    The primes p <= sqrt(y) are sieved with one strided operation per prime
    power: Rademacher zeroes the multiples of p^2 (f lives on the squarefree
    integers), Steinhaus multiplies by f(p) once per power.  What is left of
    each n is its largest prime P(n) > sqrt(y), to the first power, so f(P(n))
    is applied to all those n in one gather.  The work runs on (n, row)
    planes, so every operation spans contiguous rows.
    """
    rows = pv.shape[0]
    if model is Model.RADEMACHER:
        planes = [np.ones((y + 1, rows), dtype=np.int8)]
        vals = [np.ascontiguousarray(pv.T)]
    else:
        planes = [np.ones((y + 1, rows)), np.zeros((y + 1, rows))]
        vals = [np.ascontiguousarray(pv.real.T), np.ascontiguousarray(pv.imag.T)]
    k = tables.prime_count_upto(math.isqrt(y))
    for i, p in enumerate(tables.primes[:k].tolist()):
        q = p
        while q <= y:
            if model is Model.RADEMACHER and q > p:
                planes[0][q::q] = 0
                break
            _imul([a[q::q] for a in planes], [v[i] for v in vals])
            q *= p
    lpi = tables.largest_factor_table()[: y + 1]
    n = np.flatnonzero(lpi[2:] >= k) + 2  # n < 2 has no prime factor
    big = [a[n] for a in planes]
    _imul(big, [v[lpi[n]] for v in vals])
    for a, b in zip(planes, big):
        a[n] = b
    if model is Model.RADEMACHER:
        fv = np.ascontiguousarray(planes[0].T)
    else:
        fv = np.empty((rows, y + 1), dtype=np.complex128)
        fv.real, fv.imag = planes[0].T, planes[1].T
    fv[:, 0] = 0
    return fv


def _imul(a: list[np.ndarray], v: list[np.ndarray]) -> None:
    """a *= v in place, for planes [re] (Rademacher) or [re, im] (Steinhaus).

    numpy's complex multiply may fuse multiply-adds in its vector lanes but
    not in its scalar tail, so a row's rounding would depend on the batch;
    separate correctly rounded real operations make every row reproducible.
    """
    if len(a) == 1:
        a[0] *= v[0]
        return
    (re, im), (vr, vi) = a, v
    t = re * vi
    re *= vr
    re -= im * vi
    im *= vr
    im += t


def cumulate(fv: np.ndarray) -> np.ndarray:
    """Prefix sums A[..., k] = fv[..., 1] + ... + fv[..., k] on the last axis; A[..., 0] = 0.

    Integer (Rademacher) input sums exactly in int64, complex input in order.
    """
    A = np.zeros(fv.shape, dtype=np.int64 if fv.dtype.kind in "iu" else fv.dtype)
    np.cumsum(fv[..., 1:], axis=-1, dtype=A.dtype, out=A[..., 1:])
    return A


def abs2(z: np.ndarray) -> np.ndarray:
    """|z|^2 elementwise; integer (Rademacher) input stays exact in its dtype."""
    if np.iscomplexobj(z):
        return z.real * z.real + z.imag * z.imag
    return z * z


def value_matrix(model: Model, seeds, y: int, tables: PrimeTables) -> np.ndarray:
    """f(n) for n = 0..y per seed, shape (len(seeds), y+1).

    The same sieve as :meth:`SampledFunction.values_up_to`, so each row is
    bit-identical to that seed's single-realization values.
    """
    model = Model(model)
    k = tables.prime_count_upto(y)
    pv = prime_value_matrix(model, np.asarray(seeds, dtype=np.int64), tables.primes[:k])
    return _sieve(model, pv, y, tables)


def partial_sum_matrix(model: Model, seeds, y: int, tables: PrimeTables) -> np.ndarray:
    """Full partial sums A_f(y) = sum_{m<=y} f(m), one per seed."""
    return cumulate(value_matrix(model, seeds, y, tables))[:, -1]
