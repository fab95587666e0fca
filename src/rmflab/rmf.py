"""Reproducible Rademacher and Steinhaus random multiplicative functions.

Per-prime values come from a counter-style hash of (seed, p), not from a
sequential stream, so evaluation order, laziness and parallelism cannot
change a realization.  Rademacher values are the integers +-1 (and f is
supported on the squarefree integers); Steinhaus values are complex of
modulus 1 and f is completely multiplicative.
"""

from __future__ import annotations

import math
import os
import threading
from enum import Enum

import numpy as np

from .sieve import PrimeTables, factorize


class Model(str, Enum):
    RADEMACHER = "rademacher"
    STEINHAUS = "steinhaus"


#: Cells (seeds x primes x t-points, or seeds x integers) of all the seed
#: batches of :func:`over_seeds` in flight together: their temporaries stay
#: a few tens of MB, however many workers share them.
BATCH_CELLS = 1_000_000

#: Threads :func:`over_seeds` runs its batches on: the CPUs in this
#: process's affinity mask (all of them where it cannot be read), up to
#: two, the only count measured.  More workers would split the budget
#: into smaller batches, and small batches are lock-bound (many small numpy
#: calls): at 50,000 cells two workers ran sigma-event twice as slowly as one.
WORKERS = min(len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count() or 1, 2)

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


#: The executor made by :func:`_pool`, and the lock that makes it once.  A
#: forked child has none of its threads, so it forgets it.
_POOL = None
_POOL_LOCK = threading.Lock()


def _forget_pool() -> None:
    global _POOL, _POOL_LOCK
    _POOL = None
    _POOL_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _pool():
    """The executor of :data:`WORKERS` threads: made on first use, then kept.

    Kept, so that the batches of every call run on the same threads, and so
    allocate from the same malloc arenas.  Threads made afresh for each call
    took arenas in whatever order the old threads happened to exit, each
    arena keeping the memory of the batches it had served, and the peak RSS
    of the same run varied by tens of MB from one run to the next.
    """
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            # Imported here: loading concurrent.futures would add to every import.
            from concurrent.futures import ThreadPoolExecutor

            _POOL = ThreadPoolExecutor(WORKERS)
        return _POOL


def _run_batches(fill, starts: range) -> None:
    """``fill(i)`` for each of ``starts``, taken in order by up to :data:`WORKERS` threads.

    With one worker or one batch every call runs inline on the calling
    thread and no pool is made.  Otherwise each of the pool's threads takes
    the next batch until none is left, so the calls waiting to start cost
    nothing per batch.  An exception from ``fill`` is raised once the
    running batches have finished; the batches not yet started never run,
    nor do they when the caller is interrupted while it waits.
    """
    if WORKERS == 1 or len(starts) == 1:
        for i in starts:
            fill(i)
        return
    todo = iter(starts)
    take = threading.Lock()

    def stop():
        nonlocal todo
        with take:
            todo = iter(())

    def work():
        while True:
            with take:
                i = next(todo, None)
            if i is None:
                return
            try:
                fill(i)
            except BaseException:
                stop()
                raise

    futures = [_pool().submit(work) for _ in range(min(WORKERS, len(starts)))]
    try:
        for f in futures:
            f.exception()  # waits for it to finish
    finally:
        stop()
    for f in futures:
        f.result()


def over_seeds(fn, seeds, cells_per_seed: int) -> np.ndarray:
    """``fn(batch)`` over consecutive batches of ``seeds``, joined on the first axis.

    The batches run on :data:`WORKERS` threads, and together hold at most
    BATCH_CELLS cells: a batch gets BATCH_CELLS // WORKERS of them (and one
    seed at least), but no more than its share of the seeds, so even a call
    of one budget's worth of seeds keeps every worker busy.  Peak memory
    follows the budget, not the seed count.  ``cells_per_seed`` is the
    caller's estimate of its largest arrays per seed, not an exact bound.
    ``fn`` gives one row per seed, in one shape and dtype, which must not
    depend on the batch it falls in, nor on the thread it runs on.  The
    thread that ran a batch writes its rows into one array, at the batch's
    seeds, so every batch array is freed by the thread that made it before
    that thread starts another.  A ``range`` of seeds is never materialized
    whole, so the seeds and the result add 8 B per seed and the result's row.
    """
    if len(seeds) == 0:
        raise ValueError("need at least one seed")
    step = max(1, min(BATCH_CELLS // WORKERS // max(1, cells_per_seed),
                      -(-len(seeds) // WORKERS)))
    out = None
    made = threading.Lock()

    def fill(i):
        nonlocal out
        rows = fn(seeds[i:i + step])
        with made:
            if out is None:
                out = np.empty((len(seeds),) + rows.shape[1:], dtype=rows.dtype)
        out[i:i + step] = rows

    _run_batches(fill, range(0, len(seeds), step))
    return out


class SampledFunction:
    """One seeded realization of a random multiplicative function.

    A plain (model, seed, tables) record: building it hashes nothing, and
    every method evaluates through the seed-batch functions with a batch of
    this one seed, so each value is bit-identical to that seed's row of
    :func:`prime_value_matrix` or :func:`value_matrix`.
    """

    def __init__(self, model, seed: int, tables: PrimeTables):
        self.model = Model(model)
        self.seed = int(seed)
        self.tables = tables

    def prime_values(self, primes) -> np.ndarray:
        """f(p) for each of ``primes``; int8 for Rademacher, complex128 else."""
        return prime_value_matrix(self.model, [self.seed], primes)[0]

    # -- point evaluation ----------------------------------------------------

    def prime_value(self, p: int):
        """f(p); an int in {+1,-1} for Rademacher, a unit complex for Steinhaus."""
        idx = int(np.searchsorted(self.tables.primes, p))
        if idx >= len(self.tables.primes) or self.tables.primes[idx] != p:
            raise ValueError(f"{p} is not a prime <= {self.tables.limit}")
        v = self.prime_values([p])[0]
        return int(v) if self.model is Model.RADEMACHER else complex(v)

    def value_at(self, n: int):
        """f(n) from the prime factorization; f(1) = 1.

        Rademacher vanishes on non-squarefree n; Steinhaus is completely
        multiplicative.
        """
        pe = factorize(n, self.tables)
        vals = self.prime_values([p for p, _ in pe]).tolist()
        if self.model is Model.RADEMACHER:
            return 0 if any(e > 1 for _, e in pe) else math.prod(vals)
        out = complex(1.0)
        for v, (_, e) in zip(vals, pe):
            for _ in range(e):
                out *= v
        return out

    # -- bulk evaluation -----------------------------------------------------

    def values_up_to(self, y: int) -> np.ndarray:
        """Array ``fv`` of length y+1 with ``fv[n] = f(n)`` (``fv[0] = 0``).

        Rademacher output is int8 (exact), Steinhaus complex128.
        """
        return value_matrix(self.model, [self.seed], y, self.tables)[0]

    def prefix_sums(self, y: int) -> np.ndarray:
        """A[k] = sum of f(m) for m <= k, 0 <= k <= y, with A[0] = 0.

        Rademacher sums are exact int64; Steinhaus sums are complex128
        (sequential cumulation, deterministic).
        """
        return cumulate(self.values_up_to(y))


def value_matrix(model: Model, seeds, y: int, tables: PrimeTables) -> np.ndarray:
    """f(n) for n = 0..y per seed, shape (len(seeds), y+1); int8 for
    Rademacher (exact), complex128 for Steinhaus.

    y is checked against the table before any prime is hashed.  The primes
    p <= sqrt(y) are sieved with one strided operation per prime power:
    Rademacher zeroes the multiples of p^2 (f lives on the squarefree
    integers), Steinhaus multiplies by f(p) once per power.  What is left of
    each n is its largest prime P(n) > sqrt(y), to the first power, so
    f(P(n)) is applied to all those n in one gather.  The work runs on
    (n, seed) planes, so every operation spans contiguous rows, and a seed's
    row does not depend on the batch it is in.
    """
    model = Model(model)
    if not 1 <= y <= tables.limit:
        raise ValueError(f"y={y} outside [1, {tables.limit}]")
    pv = prime_value_matrix(model, seeds, tables.primes[:tables.prime_count_upto(y)])
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


def partial_sum_matrix(model: Model, seeds, y: int, tables: PrimeTables) -> np.ndarray:
    """Full partial sums A_f(y) = sum_{m<=y} f(m), one per seed."""
    return cumulate(value_matrix(model, seeds, y, tables))[:, -1]
