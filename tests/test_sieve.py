import math
import threading
import tracemalloc

import numpy as np
import pytest

from rmflab import (Model, SampledFunction, build_tables, conditional_variance, divisor_m,
                    factorize, grid_plan, large_prime_sum, largest_prime_factor, value_matrix)
from rmflab.sieve import MAX_LIMIT, squarefree_count, squarefree_indicator


def _trial_division_primes(n):
    out = []
    for k in range(2, n + 1):
        if all(k % d for d in range(2, math.isqrt(k) + 1)):
            out.append(k)
    return out


def _trial_division_factors(n):
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def test_prime_list_matches_trial_division(tables_small):
    ref = _trial_division_primes(2000)
    got = tables_small.primes[tables_small.primes <= 2000]
    assert got.tolist() == ref


def test_largest_factor_table_matches_trial_division(tables_small):
    idx = tables_small.largest_factor_table()
    assert idx[0] == 0 and idx[1] == 0  # the sentinel
    for n in range(2, tables_small.limit + 1):
        assert tables_small.primes[idx[n]] == _trial_division_factors(n)[-1][0], n


def test_factorize_matches_trial_division(tables_small):
    for n in range(1, tables_small.limit + 1):
        assert factorize(n, tables_small) == _trial_division_factors(n), n


def test_factorize_recomposes(tables_small):
    for n in range(1, 400):
        prod = 1
        prev = 0
        for p, e in factorize(n, tables_small):
            assert p > prev  # strictly increasing primes
            prev = p
            prod *= p**e
        assert prod == n


def test_largest_prime_factor(tables_small):
    assert largest_prime_factor(2, tables_small) == 2
    assert largest_prime_factor(12, tables_small) == 3
    assert largest_prime_factor(97 * 89, tables_small) == 97
    idx = tables_small.largest_factor_table()
    assert idx.dtype == np.uint32 and idx.shape == (tables_small.limit + 1,)
    for n in range(2, tables_small.limit + 1):
        assert largest_prime_factor(n, tables_small) == _trial_division_factors(n)[-1][0], n
    with pytest.raises(ValueError):
        largest_prime_factor(1, tables_small)


def _brute_divisor_m(n, m):
    if m == 1:
        return 1
    return sum(_brute_divisor_m(n // d, m - 1) for d in range(1, n + 1) if n % d == 0)


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_divisor_m_counts_tuples(tables_small, m):
    for n in range(1, 40):
        assert divisor_m(n, m, tables_small) == _brute_divisor_m(n, m)


def test_squarefree_count(tables_small):
    sq = squarefree_indicator(100, tables_small)
    brute = [n for n in range(1, 101)
             if all(n % (p * p) for p in range(2, 11))]
    assert np.flatnonzero(sq).tolist() == brute
    assert squarefree_count(100, tables_small) == len(brute)
    # density approaches 6/pi^2
    assert abs(squarefree_count(10_000, tables_small) / 10_000 - 6 / math.pi**2) < 0.01


def test_primes_in_boundaries(tables_small):
    got = tables_small.primes_in(10, 31)
    assert got.tolist() == [11, 13, 17, 19, 23, 29, 31]
    assert tables_small.primes_in(31, 31).size == 0
    assert tables_small.prime_count_upto(31) == 11
    assert tables_small.prime_count_upto(1) == 0


def test_build_tables_rejects_bad_limits():
    with pytest.raises(ValueError):
        build_tables(1)
    with pytest.raises(MemoryError):
        build_tables(MAX_LIMIT + 1)


@pytest.mark.parametrize("call,message", [
    (lambda t: factorize(0, t), "n=0 outside [1, 10000]"),
    (lambda t: factorize(10_001, t), "n=10001 outside [1, 10000]"),
    (lambda t: largest_prime_factor(1, t), "n=1 outside [2, 10000]"),
    (lambda t: squarefree_indicator(10_001, t), "n=10001 outside [1, 10000]"),
    (lambda t: large_prime_sum(SampledFunction(Model.RADEMACHER, 0, t), 10_001),
     "x=10001 outside [1, 10000]"),
    (lambda t: conditional_variance(SampledFunction(Model.STEINHAUS, 0, t), 0),
     "x=0 outside [1, 10000]"),
    (lambda t: grid_plan(t, [10_001]), "x=10001 outside [1, 10000]"),
    (lambda t: value_matrix(Model.RADEMACHER, [0], 10_001, t), "y=10001 outside [1, 10000]"),
], ids=["factorize-0", "factorize-past", "largest_prime_factor-1", "squarefree-past",
        "large_prime_sum-past", "conditional_variance-0", "grid_plan-past", "value_matrix-past"])
def test_table_bounds_messages(tables_small, call, message):
    with pytest.raises(ValueError) as exc:
        call(tables_small)
    assert str(exc.value) == message



def test_largest_factor_table_is_one_array_for_every_caller():
    # Seed batches on several threads read the table at once.
    tables = build_tables(5000)
    start = threading.Barrier(4)
    got = []

    def call():
        start.wait(timeout=10)
        got.append(tables.largest_factor_table())

    threads = [threading.Thread(target=call) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    assert len(got) == 4
    assert all(idx is got[0] for idx in got)
    assert got[0] is tables.largest_factor_table()
    assert tables.primes[got[0][5000]] == largest_prime_factor(5000, tables) == 5


def test_tables_hold_4_bytes_per_integer():
    # One uint32 table and the int64 prime list, with all that the kernels
    # read; the build's transients stay small beside them.
    limit = 10**6
    tracemalloc.start()
    try:
        tables = build_tables(limit)
        tables.largest_factor_table()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tables.primes.size == 78_498
    assert held < 5 * limit, held / limit
    assert peak < 7 * limit, peak / limit


@pytest.mark.parametrize("limit", [2, 3, 4, 8, 9, 24, 25, 26, 48, 49, 97, 120, 121])
def test_small_tables_match_trial_division(limit):
    # Squares of primes and primes at the limit bound the sieve loop.
    t = build_tables(limit)
    assert t.primes.dtype == np.int64
    assert t.primes.tolist() == _trial_division_primes(limit)
    idx = t.largest_factor_table()
    assert idx[:2].tolist() == [0, 0]
    assert t.primes[idx[2:]].tolist() == [_trial_division_factors(n)[-1][0]
                                          for n in range(2, limit + 1)]
