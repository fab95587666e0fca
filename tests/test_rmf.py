import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmflab import Model, SampledFunction, partial_sum_matrix, prime_value_matrix, value_matrix


def test_rademacher_values_are_signs(tables_small):
    F = SampledFunction(Model.RADEMACHER, 0, tables_small)
    for p in (2, 3, 5, 7, 101, 997):
        assert F.prime_value(p) in (1, -1)


def test_steinhaus_values_on_unit_circle(tables_small):
    G = SampledFunction(Model.STEINHAUS, 0, tables_small)
    for p in (2, 3, 5, 101):
        assert abs(abs(G.prime_value(p)) - 1.0) < 1e-12


def test_same_seed_reproduces(tables_small):
    a = SampledFunction(Model.RADEMACHER, 42, tables_small)
    b = SampledFunction(Model.RADEMACHER, 42, tables_small)
    assert np.array_equal(a._values, b._values)
    c = SampledFunction(Model.RADEMACHER, 43, tables_small)
    assert not np.array_equal(a._values, c._values)


def test_counter_based_order_independence(tables_small):
    # Hashing (seed, p) directly means querying a subset of primes gives
    # the same values as querying all of them.
    ps = tables_small.primes
    full = prime_value_matrix(Model.STEINHAUS, [5], ps)[0]
    subset = prime_value_matrix(Model.STEINHAUS, [5], ps[100:110])[0]
    assert np.array_equal(full[100:110], subset)


_M64 = (1 << 64) - 1


def _fmix64(x: int) -> int:
    x ^= x >> 33
    x = x * 0xFF51AFD7ED558CCD & _M64
    x ^= x >> 33
    x = x * 0xC4CEB9FE1A85EC53 & _M64
    return x ^ x >> 33


def _reference_prime_value(model, seed: int, p: int):
    """f(p) from the counter hash, one (seed, prime) pair in Python integers."""
    u = _fmix64(_fmix64((p * 0x9E3779B97F4A7C15 + 0x85EBCA6B27D4EB4F) & _M64)
                ^ (seed & _M64))
    if model is Model.RADEMACHER:
        return 1 if u >> 63 else -1
    theta = float(u) * 2.0 ** -64 * (2.0 * math.pi)
    return complex(math.cos(theta), math.sin(theta))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(list(Model)),
       st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=4),
       st.integers(0, 1200), st.integers(1, 25))
def test_prime_value_matrix_matches_scalar_reference(tables_small, model, seeds, lo,
                                                     width):
    ps = tables_small.primes[lo:lo + width]
    got = prime_value_matrix(model, seeds, ps)
    assert got.shape == (len(seeds), ps.size)
    assert got.dtype == (np.int8 if model is Model.RADEMACHER else np.complex128)
    for i, s in enumerate(seeds):
        for j, p in enumerate(ps.tolist()):
            want = _reference_prime_value(model, s, p)
            if model is Model.RADEMACHER:
                assert got[i, j] == want
            else:
                # numpy's vectorized cos/sin may differ from libm's in the last bit.
                assert abs(got[i, j] - want) <= 4e-16


def test_steinhaus_prime_values_peak_below_twice_the_result(tables_small):
    tracemalloc.start()
    try:
        got = prime_value_matrix(Model.STEINHAUS, np.arange(300), tables_small.primes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * got.nbytes


def test_prime_value_rejects_composites(tables_small):
    F = SampledFunction(Model.RADEMACHER, 0, tables_small)
    with pytest.raises(ValueError):
        F.prime_value(4)
    with pytest.raises(ValueError):
        F.prime_value(1)


def test_rademacher_multiplicative_and_squarefree_supported(tables_small):
    F = SampledFunction(Model.RADEMACHER, 7, tables_small)
    assert F.value_at(1) == 1
    assert F.value_at(6) == F.prime_value(2) * F.prime_value(3)
    assert F.value_at(4) == 0
    assert F.value_at(12) == 0
    assert F.value_at(30) == (
        F.prime_value(2) * F.prime_value(3) * F.prime_value(5)
    )


def test_steinhaus_completely_multiplicative(tables_small):
    G = SampledFunction(Model.STEINHAUS, 7, tables_small)
    assert G.value_at(4) == pytest.approx(G.prime_value(2) ** 2)
    assert G.value_at(12) == pytest.approx(G.prime_value(2) ** 2 * G.prime_value(3))
    assert abs(G.value_at(9973 * 1)) == pytest.approx(1.0)


@pytest.mark.parametrize("model", list(Model))
def test_values_up_to_matches_pointwise(tables_small, model):
    F = SampledFunction(model, 3, tables_small)
    fv = F.values_up_to(300)
    assert fv[0] == 0
    for n in range(1, 301):
        assert fv[n] == pytest.approx(F.value_at(n))


@pytest.mark.parametrize("model", list(Model))
def test_prefix_sums(tables_small, model):
    F = SampledFunction(model, 9, tables_small)
    A = F.prefix_sums(50)
    assert A[0] == 0
    acc = 0
    for n in range(1, 51):
        acc += F.value_at(n)
        assert A[n] == pytest.approx(acc)


@pytest.mark.parametrize("model", list(Model))
def test_value_matrix_rows_match_single_sampler(tables_small, model):
    seeds = [0, 5, 17]
    M = value_matrix(model, seeds, 200, tables_small)
    for i, s in enumerate(seeds):
        F = SampledFunction(model, s, tables_small)
        assert np.array_equal(M[i], F.values_up_to(200))


def test_partial_sum_matrix(tables_small):
    seeds = [0, 1, 2]
    A = partial_sum_matrix(Model.RADEMACHER, seeds, 100, tables_small)
    for i, s in enumerate(seeds):
        F = SampledFunction(Model.RADEMACHER, s, tables_small)
        assert A[i] == F.prefix_sums(100)[100]


def test_prime_values_look_balanced(tables_small):
    # Crude uniformity sanity check on the hash, not a statistical test.
    F = SampledFunction(Model.RADEMACHER, 123, tables_small)
    vals = F._values.astype(np.float64)
    n = len(vals)
    assert abs(vals.mean()) < 4.0 / math.sqrt(n)
    G = SampledFunction(Model.STEINHAUS, 123, tables_small)
    assert abs(np.mean(G._values)) < 4.0 / math.sqrt(n)
