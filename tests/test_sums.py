import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmflab import (
    Model,
    SampledFunction,
    conditional_variance,
    exact_expected_variance,
    grid_plan,
    grid_statistics,
    increment_decomposition_check,
    interval_sum_pconstraint,
    large_prime_sum,
    large_prime_sum_bruteforce,
    quotient_sums,
)
from rmflab.rmf import cumulate, value_matrix
from rmflab.sums import ORACLE_CAP, GridCarry, variance_sum


@pytest.mark.parametrize("model", list(Model))
@pytest.mark.parametrize("x", [2, 3, 4, 10, 31, 100, 101, 997, 1000, 2500])
def test_fast_sum_matches_bruteforce(tables_small, model, x):
    F = SampledFunction(model, 11, tables_small)
    fast = large_prime_sum(F, x)
    brute = large_prime_sum_bruteforce(F, x)
    if model is Model.RADEMACHER:
        assert fast == brute
    else:
        assert fast == pytest.approx(brute, abs=1e-9)


def test_sum_at_tiny_x(tables_small):
    F = SampledFunction(Model.RADEMACHER, 0, tables_small)
    assert large_prime_sum(F, 1) == 0
    # x = 2: only n = 2, P(2) = 2 > sqrt(2)
    assert large_prime_sum(F, 2) == F.prime_value(2)


def test_bruteforce_cap(tables_small):
    F = SampledFunction(Model.RADEMACHER, 0, tables_small)
    with pytest.raises(ValueError):
        large_prime_sum_bruteforce(F, ORACLE_CAP + 1)


def test_conditional_variance_definition(tables_small):
    F = SampledFunction(Model.STEINHAUS, 4, tables_small)
    for x in (10, 100, 1234):
        s = math.isqrt(x)
        direct = 0.0
        for p in tables_small.primes_in(s, x).tolist():
            A = cumulate(F.values_up_to(x // p))[x // p]
            direct += abs(A) ** 2
        assert conditional_variance(F, x) == pytest.approx(direct, rel=1e-12)


def test_exact_expected_variance_small_case(tables_small):
    # x = 10: primes 5 and 7 contribute E|A(2)|^2 = 2, prime... floor(10/5)=2,
    # floor(10/7)=1, so the mean is 2 + 1 = 3 for both models.
    assert exact_expected_variance(10, Model.RADEMACHER, tables_small) == 3.0
    assert exact_expected_variance(10, Model.STEINHAUS, tables_small) == 3.0


def test_exact_expected_variance_brute(tables_small):
    from rmflab.sieve import squarefree_count

    for x in (50, 400):
        s = math.isqrt(x)
        ps = tables_small.primes_in(s, x).tolist()
        stein = sum(x // p for p in ps)
        rade = sum(squarefree_count(x // p, tables_small) for p in ps)
        assert exact_expected_variance(x, Model.STEINHAUS, tables_small) == stein
        assert exact_expected_variance(x, Model.RADEMACHER, tables_small) == rade


def test_interval_sum_pconstraint_brute(tables_small):
    F = SampledFunction(Model.RADEMACHER, 21, tables_small)
    lpf = tables_small.primes[tables_small.largest_factor_table()]
    n_lo, n_hi, p_lo, p_hi = 10, 500, 7, 100
    direct = sum(
        F.value_at(n)
        for n in range(n_lo + 1, n_hi + 1)
        if p_lo < lpf[n] <= p_hi
    )
    assert interval_sum_pconstraint(F, n_lo, n_hi, p_lo, p_hi) == direct


@pytest.mark.parametrize("model", list(Model))
def test_increment_decomposition_sums_exactly(tables_small, model):
    F = SampledFunction(model, 2, tables_small)
    for x_prev, x in [(100, 120), (120, 121), (997, 1500), (50, 50)]:
        t1, t2, t3 = increment_decomposition_check(F, x_prev, x)
        total = t1 + t2 + t3
        target = large_prime_sum(F, x)
        if model is Model.RADEMACHER:
            assert total == target
        else:
            assert total == pytest.approx(target, abs=1e-9)


@pytest.mark.parametrize("model", list(Model))
def test_grid_statistics_match_pointwise(tables_small, model):
    F = SampledFunction(model, 6, tables_small)
    xs = np.array([3, 4, 5, 9, 10, 25, 26, 100, 121, 500, 1000, 4999])
    m_vals, v_vals = grid_statistics(F, grid_plan(tables_small, xs))
    for j, x in enumerate(xs.tolist()):
        if model is Model.RADEMACHER:
            assert m_vals[j] == large_prime_sum(F, x)
            assert v_vals[j] == conditional_variance(F, x)
        else:
            assert m_vals[j] == pytest.approx(large_prime_sum(F, x), abs=1e-9)
            assert v_vals[j] == pytest.approx(conditional_variance(F, x), abs=1e-6)


@pytest.mark.parametrize("model", list(Model))
@pytest.mark.parametrize("segment", [7, 1000])
def test_segment_walk_matches_the_pointwise_oracles(tables_small, model, segment):
    # Checked against the per-x evaluators, which share no code with the
    # plan and its gathers.  The walk has segments that start at the prime
    # squares 49 and 121, and a grid with duplicates, among them 49 and 121.
    top = 5000
    xs = np.unique(np.geomspace(2, top, 400).astype(np.int64))
    xs = np.sort(np.concatenate((xs, [2, 48, 49, 49, 50, 120, 121, 121, 122, 999, 999, top])))
    starts = sorted(set(range(0, top + 1, segment)) | {49, 121})
    F = SampledFunction(model, 23, tables_small)
    carry = GridCarry(top)
    m_vals, v_vals = [], []
    for lo, hi in zip(starts, starts[1:] + [top + 1]):
        plan = grid_plan(tables_small, xs[(xs >= lo) & (xs < hi)], lo, hi)
        assert ([plan.prime_index.dtype, plan.quotient.dtype, plan.kept.dtype, plan.squares.dtype]
                == [np.int32, np.int16, np.int32, np.int16])
        m, v = grid_statistics(F, plan, carry)
        m_vals += m.tolist()
        v_vals += v.tolist()
    assert len(m_vals) == len(v_vals) == xs.size
    for x, m, v in zip(xs.tolist(), m_vals, v_vals):
        if model is Model.RADEMACHER:
            assert (m, v) == (large_prime_sum(F, x), conditional_variance(F, x)), x
        else:
            assert m == pytest.approx(large_prime_sum(F, x), abs=1e-9), x
            assert v == pytest.approx(conditional_variance(F, x), rel=1e-12, abs=1e-9), x


@pytest.mark.parametrize("model", list(Model))
def test_a_broken_carry_trips_the_negative_variance_guard(tables, model):
    # With the carried V zeroed half-way through a walk to 10^5, the next
    # segment's prime-square corrections outweigh its running sum.
    top, segment = 100_000, 1 << 15
    xs = np.arange(2, top + 1)
    F = SampledFunction(model, 3, tables)
    carry = GridCarry(top)
    starts = range(0, top + 1, segment)
    with pytest.raises(RuntimeError, match="negative conditional variance -"):
        for lo in starts:
            hi = min(lo + segment, top + 1)
            if lo >= top // 2:
                carry.v = 0
            grid_statistics(F, grid_plan(tables, xs[(xs >= lo) & (xs < hi)], lo, hi), carry)
    assert lo == 2 * segment < starts[-1]  # the first segment with a broken carry


def test_grid_statistics_tolerates_duplicates(tables_small):
    F = SampledFunction(Model.RADEMACHER, 6, tables_small)
    xs = np.array([10, 100, 100, 500])
    m_vals, v_vals = grid_statistics(F, grid_plan(tables_small, xs))
    assert m_vals[1] == m_vals[2]
    assert v_vals[1] == v_vals[2]


def test_grid_statistics_rejects_descending(tables_small):
    with pytest.raises(ValueError):
        grid_plan(tables_small, [10, 5])


@pytest.mark.parametrize("xs", [[0, 5], [5, 10_001]])
def test_grid_plan_rejects_x_outside_the_tables(tables_small, xs):
    with pytest.raises(ValueError):
        grid_plan(tables_small, xs)


def test_grid_statistics_rejects_a_plan_beyond_its_tables(tables, tables_small):
    plan = grid_plan(tables, [100, 20_000])
    with pytest.raises(ValueError):
        grid_statistics(SampledFunction(Model.RADEMACHER, 0, tables_small), plan)


@pytest.mark.parametrize("model", list(Model))
def test_grid_statistics_on_an_empty_grid(tables_small, model):
    m_vals, v_vals = grid_statistics(SampledFunction(model, 0, tables_small),
                                     grid_plan(tables_small, []))
    assert m_vals.size == v_vals.size == 0
    assert m_vals.dtype == (np.int64 if model is Model.RADEMACHER else np.complex128)
    assert v_vals.dtype == np.float64


def test_one_plan_serves_every_trial(tables_small):
    xs = np.unique(np.geomspace(1, tables_small.limit, 300).astype(np.int64))
    plan = grid_plan(tables_small, xs)
    for model in Model:
        for seed in range(5):
            F = SampledFunction(model, seed, tables_small)
            got = grid_statistics(F, plan)
            fresh = grid_statistics(F, grid_plan(tables_small, xs))
            assert [a.tobytes() for a in got] == [a.tobytes() for a in fresh]


def test_out_of_range_rejected(tables_small):
    F = SampledFunction(Model.RADEMACHER, 0, tables_small)
    with pytest.raises(ValueError):
        large_prime_sum(F, tables_small.limit + 1)
    with pytest.raises(ValueError):
        conditional_variance(F, 0)


@st.composite
def _model_seed_grid(draw):
    """(model, seed, ascending grid in [1, 9500]) with x = p^2 - 1, p^2, p^2 + 1."""
    model = draw(st.sampled_from(list(Model)))
    seed = draw(st.integers(0, 2**31))
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 31, 47, 97]))
    xs = draw(st.lists(st.integers(1, 9500), min_size=1, max_size=12))
    return model, seed, sorted(xs + [p * p - 1, p * p, p * p + 1])


@settings(max_examples=40, deadline=None)
@given(_model_seed_grid())
def test_grid_statistics_match_oracles(tables_small, case):
    model, seed, xs = case
    F = SampledFunction(model, seed, tables_small)
    m_vals, v_vals = grid_statistics(F, grid_plan(tables_small, xs))
    for x, m, v in zip(xs, m_vals.tolist(), v_vals.tolist()):
        brute = large_prime_sum_bruteforce(F, x)
        cv = conditional_variance(F, x)
        if model is Model.RADEMACHER:
            assert m == brute and v == cv
        else:
            assert m == pytest.approx(brute, abs=1e-9)
            assert v == pytest.approx(cv, rel=1e-12, abs=1e-9)


def test_quotient_sums_batches_over_seeds(tables_small):
    seeds = [1, 2, 3]
    A = np.stack([cumulate(SampledFunction(Model.STEINHAUS, s, tables_small).values_up_to(31))
                  for s in seeds])
    ks, Aq = quotient_sums(A, 1000, tables_small)
    assert tables_small.primes[ks].tolist() == tables_small.primes_in(31, 1000).tolist()
    assert Aq.shape == (3, ks.stop - ks.start)
    for i in range(3):
        assert np.array_equal(Aq[i], quotient_sums(A[i], 1000, tables_small)[1])


@pytest.mark.parametrize("model", list(Model))
@pytest.mark.parametrize("x", [10, 1000, 10_000])
def test_variance_sum_is_the_left_fold_bit_for_bit(tables_small, model, x):
    # The reference adds |A(x // p)|^2 one prime at a time, in ascending order,
    # for each seed on its own; the batch and every single row must match it.
    A = cumulate(value_matrix(model, range(5, 12), math.isqrt(x), tables_small))
    _, Aq = quotient_sums(A, x, tables_small)
    want = []
    for row in Aq:
        v = 0
        for a in row.tolist():
            v += a.real * a.real + a.imag * a.imag
        want.append(float(v))
    before = Aq.copy()
    assert variance_sum(Aq).tolist() == want
    assert [variance_sum(row) for row in Aq] == want
    assert np.array_equal(Aq, before)  # the cumsum overwrites only its own |Aq|^2
