import math
import sys
import threading
import time

import numpy as np
import pytest

from rmflab import build_tables, divisor_m, factorize, largest_prime_factor
from rmflab import sieve
from rmflab.sieve import MAX_LIMIT, squarefree_count, squarefree_indicator


def _trial_division_primes(n):
    out = []
    for k in range(2, n + 1):
        if all(k % d for d in range(2, math.isqrt(k) + 1)):
            out.append(k)
    return out


def test_prime_list_matches_trial_division(tables_small):
    ref = _trial_division_primes(2000)
    got = tables_small.primes[tables_small.primes <= 2000]
    assert got.tolist() == ref


def test_spf_is_smallest_factor(tables_small):
    for n in range(2, 500):
        p = int(tables_small.spf[n])
        assert n % p == 0
        assert all(n % d for d in range(2, p))


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
        assert tables_small.primes[idx[n]] == largest_prime_factor(n, tables_small)
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



def test_largest_factor_table_is_built_once_by_concurrent_callers(monkeypatch):
    # Seed batches on several threads may ask a fresh table for it at once.
    tables = build_tables(5000)
    builds = []

    def slow_build(spf, primes):
        builds.append(threading.get_ident())
        time.sleep(0.05)  # widen the window in which a second build could start
        return real(spf, primes)

    real = sieve._largest_factor_indices
    monkeypatch.setattr(sieve, "_largest_factor_indices", slow_build)
    start = threading.Barrier(4)
    got = []

    def call():
        start.wait(timeout=10)
        got.append(tables.largest_factor_table())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=call) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(builds) == 1 and len(got) == 4
    assert all(idx is got[0] for idx in got)
    assert tables.primes[got[0][5000]] == largest_prime_factor(5000, tables)
