import math

import numpy as np
import pytest

from rmflab import build_tables, divisor_m, factorize, largest_prime_factor, mobius
from rmflab.sieve import (
    MAX_LIMIT,
    divisor_partial_sum,
    mertens_log_sum,
    mertens_reciprocal_sum,
    squarefree_count,
    squarefree_indicator,
)


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
        fac = factorize(n, tables_small)
        prod = 1
        prev = 0
        for p, e in fac.factors:
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


def test_mobius_small_values(tables_small):
    expected = {1: 1, 2: -1, 3: -1, 4: 0, 5: -1, 6: 1, 7: -1, 8: 0, 9: 0,
                10: 1, 30: -1, 12: 0}
    for n, mu in expected.items():
        assert mobius(n, tables_small) == mu


def test_mobius_sum_is_one(tables_small):
    # sum_{n<=x} mu(n) * floor(x/n) == 1 for every x
    for x in (10, 100, 999):
        assert sum(mobius(n, tables_small) * (x // n) for n in range(1, x + 1)) == 1


def _brute_divisor_m(n, m):
    if m == 1:
        return 1
    return sum(_brute_divisor_m(n // d, m - 1) for d in range(1, n + 1) if n % d == 0)


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_divisor_m_counts_tuples(tables_small, m):
    for n in range(1, 40):
        assert divisor_m(n, m, tables_small) == _brute_divisor_m(n, m)


def test_divisor_partial_sum_matches_pointwise(tables_small):
    for m in (1, 2, 3):
        direct = sum(divisor_m(n, m, tables_small) for n in range(1, 201))
        assert divisor_partial_sum(200, m, tables_small) == direct


def test_squarefree_count(tables_small):
    sq = squarefree_indicator(100, tables_small)
    brute = [n for n in range(1, 101)
             if all(n % (p * p) for p in range(2, 11))]
    assert np.flatnonzero(sq).tolist() == brute
    assert squarefree_count(100, tables_small) == len(brute)
    # density approaches 6/pi^2
    assert abs(squarefree_count(10_000, tables_small) / 10_000 - 6 / math.pi**2) < 0.01


def test_mertens_sums(tables_small):
    ps = _trial_division_primes(1000)
    assert mertens_reciprocal_sum(0, 1000, tables_small) == pytest.approx(
        sum(1 / p for p in ps), rel=1e-14
    )
    assert mertens_log_sum(10, 1000, tables_small) == pytest.approx(
        sum(math.log(p) / p for p in ps if p > 10), rel=1e-14
    )


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

