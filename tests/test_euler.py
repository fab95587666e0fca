import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmflab import (
    Model,
    ParsevalCheckResult,
    SampledFunction,
    euler_product,
    expected_product_identity_check,
    parseval_identity_check,
    prime_value_matrix,
)
from rmflab.euler import (
    GRID_PANELS,
    GRID_T,
    grid_quadrature,
    integral_on_grid,
    log_factor_matrix,
    log_factor_sum,
    parseval_grid,
    parseval_integral,
    simpson_grid,
)


@pytest.mark.parametrize("model", list(Model))
@pytest.mark.parametrize("t", [0.0, 0.5, -2.0])
def test_euler_product_matches_direct(tables_small, model, t):
    F = SampledFunction(model, 3, tables_small)
    x = 100
    direct = complex(1.0)
    for p in tables_small.primes_in(1, x).tolist():
        z = F.prime_value(p) * p**-0.5 * cmath.exp(-1j * t * math.log(p))
        if model is Model.RADEMACHER:
            direct *= 1 + z
        else:
            direct /= 1 - z
    got = euler_product(F, x, t)
    assert got == pytest.approx(direct, rel=1e-12)


def test_euler_product_diagnostic_mode():
    assert euler_product(None, 1000, 3.7) == pytest.approx(1.0)


def test_grid_diagnostic_is_2pi():
    # The f = 0 product is identically 1: the grid sum of 1/(1/4+t^2) plus
    # its exact tail beyond GRID_T is 2*pi.
    for model in Model:
        ts, w = parseval_grid(model is Model.RADEMACHER)
        (value,) = integral_on_grid(model, np.zeros(0), np.zeros(0, dtype=np.int64), ts, w,
                                    [0])
        tail = 2.0 * (math.pi - 2.0 * math.atan(2.0 * GRID_T))
        assert value + tail == pytest.approx(2 * math.pi, rel=1e-9)


def test_parseval_grid_layouts_agree():
    # An even integrand sums alike on both layouts, and the check's coarse
    # grid is every other node of its fine one.
    (te, we), (tf, wf) = parseval_grid(True), parseval_grid(False)
    assert float(we @ (1.0 / (0.25 + te * te))) == pytest.approx(
        float(wf @ (1.0 / (0.25 + tf * tf))), rel=1e-13)
    tc, _ = parseval_grid(False, GRID_T, GRID_PANELS // 2)
    assert np.array_equal(tc, tf[::2])


def test_parseval_identity_single_coefficient():
    res = parseval_identity_check([1.0], 0.5)
    assert res.lhs == pytest.approx(1.0)
    assert abs(res.rhs - res.lhs) <= res.error_bound + 1e-6


def test_parseval_identity_two_ones():
    res = parseval_identity_check([1.0, 1.0], 0.5)
    # |S|^2 is 1 on [1,2) and 4 on [2,inf): integral = (1 - 1/2) + 4/2.
    assert res.lhs == pytest.approx(2.5)
    assert abs(res.rhs - res.lhs) <= res.error_bound + 1e-5


@pytest.mark.parametrize("sigma", [0.4, 0.5, 0.9, 2.0])
def test_parseval_identity_random_sequences(sigma):
    rng = np.random.default_rng(int(sigma * 100))
    for _ in range(3):
        n = int(rng.integers(2, 20))
        a = rng.normal(size=n) + 1j * rng.normal(size=n)
        res = parseval_identity_check(a, sigma)
        assert abs(res.rhs - res.lhs) <= res.error_bound + 1e-5 * abs(res.lhs)


def test_parseval_identity_rejects_bad_sigma():
    with pytest.raises(ValueError):
        parseval_identity_check([1.0], 0.0)


def test_parseval_identity_zero_sequence():
    res = parseval_identity_check([0.0, 0.0], 0.5)
    assert res.lhs == res.rhs == 0.0


@pytest.mark.parametrize("model", list(Model))
def test_expected_product_identity(tables_small, model):
    rep = expected_product_identity_check(model, 10, 200, 0.5, 4000, tables_small)
    assert not rep.violated
    ps = tables_small.primes_in(10, 200)
    if model is Model.RADEMACHER:
        target = float(np.prod(1.0 + 1.0 / ps))
    else:
        target = float(np.prod(1.0 / (1.0 - 1.0 / ps)))
    assert rep.bound == pytest.approx(target)


@pytest.mark.parametrize("model", list(Model))
def test_expected_product_identity_flags_a_wrong_prime_value(tables_small, model,
                                                             monkeypatch):
    args = (model, 10, 100, 0.0, 10000, tables_small)
    assert not expected_product_identity_check(*args).violated

    def f11_is_one(model, seeds, primes):
        fp = prime_value_matrix(model, seeds, primes)
        fp[:, np.asarray(primes) == 11] = 1
        return fp

    monkeypatch.setattr("rmflab.euler.prime_value_matrix", f11_is_one)
    assert expected_product_identity_check(*args).violated


def test_expected_product_requires_trials(tables_small):
    with pytest.raises(ValueError):
        expected_product_identity_check(Model.RADEMACHER, 10, 100, 0.0, 10,
                                        tables_small)


def test_simpson_grid_exact_on_cubics():
    ts, w = simpson_grid(0.0, 2.0, 10)
    assert float(w @ ts**3) == pytest.approx(4.0, rel=1e-12)
    assert float(w @ np.ones_like(ts)) == pytest.approx(2.0, rel=1e-12)


def _cli_cases(seeds):
    """The coefficient sequences ``euler --check parseval --trials 20`` draws at ``seeds``."""
    for seed in seeds:
        rng = np.random.default_rng(seed)
        for _ in range(20):
            n = int(rng.integers(1, 30))
            yield rng.normal(size=n) + 1j * rng.normal(size=n)


def test_parseval_identity_matches_on_the_cli_cases():
    results = [parseval_identity_check(a, 0.5) for a in _cli_cases(range(5))]
    assert all(r.match for r in results)
    # The bound is not vacuous: a few percent of the closed-form side.
    assert max(r.error_bound / r.lhs for r in results) < 0.1


def test_parseval_identity_catches_a_dropped_coefficient():
    # The quadrature side of a sequence without its first coefficient
    # against the closed-form side of the whole one: of the 100 CLI cases
    # at seeds 0-4, all but 4 give match false.
    caught = 0
    for a in _cli_cases(range(5)):
        rhs, err = parseval_integral(np.concatenate(([0.0], a[1:])), 0.5)
        res = ParsevalCheckResult(parseval_identity_check(a, 0.5).lhs, rhs, err)
        caught += not res.match
    assert caught >= 95


def _rademacher_support(fp, ps):
    """The sorted n whose primes are all in ``ps``, each squarefree, and f(n)."""
    n, a = np.array([1]), np.array([1])
    for f, p in zip(fp.tolist(), ps.tolist()):
        n, a = np.concatenate((n, n * p)), np.concatenate((a, a * f))
    order = np.argsort(n)
    return n[order].astype(np.float64), a[order].astype(np.float64)


@pytest.mark.parametrize("x", [13, 29])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_integral_on_grid_against_the_exact_rademacher_integral(tables_small, x, seed):
    # The truncated Rademacher product is the finite Dirichlet series
    # sum f(n) n^-s over the squarefree n with P(n) <= x, so its integral
    # (1/2pi) int |F(1/2+it)|^2 / |1/2+it|^2 dt is int_1^inf |S(u)|^2 u^-2 du
    # exactly, a sum over the sorted support.  The suites' grid plus the
    # exact diagonal tail beyond GRID_T must land within the bound on the
    # off-diagonal tail over the support pairs.
    k = tables_small.prime_count_upto(x)
    ps = tables_small.primes[:k]
    fp = SampledFunction(Model.RADEMACHER, seed, tables_small).prime_values(ps)
    n, a = _rademacher_support(fp, ps)
    S = np.cumsum(a)
    exact = float(np.sum(S[:-1] ** 2 * (1.0 / n[:-1] - 1.0 / n[1:])) + S[-1] ** 2 / n[-1])
    diag = float(np.sum(1.0 / n)) * 2.0 * (math.pi - 2.0 * math.atan(2.0 * GRID_T))
    logn = np.log(n)
    w = np.abs(logn[:, None] - logn[None, :])
    off = np.outer(n ** -0.5, n ** -0.5)
    bound = float(np.sum(4.0 * off[w > 0] / (w[w > 0] * (0.25 + GRID_T ** 2)))) / (2 * math.pi)
    ts, wts = parseval_grid(True)

    def grid(fp):
        (value,) = integral_on_grid(Model.RADEMACHER, fp, ps, ts, wts, [k])
        return (value + diag) / (2 * math.pi)

    assert abs(grid(fp) - exact) <= bound
    if x == 13:
        # A wrong f(p), any p <= x, lands outside the bound.
        for j in range(k):
            flipped = fp.copy()
            flipped[j] = -flipped[j]
            assert abs(grid(flipped) - exact) > bound, j


@pytest.mark.parametrize("x", [13, 29])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_integral_on_grid_against_euler_product_sums(tables_small, x, seed):
    # Steinhaus: Simpson sums of the definition-level euler_product, node by
    # node, without log_factor_sum.
    F = SampledFunction(Model.STEINHAUS, seed, tables_small)
    k = tables_small.prime_count_upto(x)
    ps = tables_small.primes[:k]
    ts, wts = parseval_grid(False)
    want = sum(wt * abs(euler_product(F, x, t)) ** 2 / (0.25 + t * t)
               for t, wt in zip(ts.tolist(), wts.tolist()))
    (got,) = integral_on_grid(Model.STEINHAUS, F.prime_values(ps), ps, ts, wts, [k])
    assert got == pytest.approx(want, rel=1e-12)


def test_log_factor_matrix_shape(tables_small):
    ps = tables_small.primes[:5]
    F = SampledFunction(Model.RADEMACHER, 0, tables_small)
    ts = np.linspace(-1, 1, 7)
    M = log_factor_matrix(Model.RADEMACHER, F.prime_values(ps), ps, ts)
    assert M.shape == (5, 7) and M.dtype == np.float64
    # exp of twice the column sums is the squared modulus of the product
    sq = np.exp(2.0 * M.sum(axis=0))
    for j, t in enumerate(ts.tolist()):
        assert sq[j] == pytest.approx(abs(euler_product(F, 11, t)) ** 2, rel=1e-12)


@pytest.mark.parametrize("model", list(Model))
def test_log_factor_matrix_broadcasts_over_seeds(tables_small, model):
    ps = tables_small.primes[10:20]
    fp = prime_value_matrix(model, [3, 4, 5], ps)
    ts = np.linspace(-5, 5, 11)
    M = log_factor_matrix(model, fp, ps, ts)
    assert M.shape == (3, 10, 11)
    for i in range(3):
        assert np.array_equal(M[i], log_factor_matrix(model, fp[i], ps, ts))


def _complex_log_factors(model, fp, ps, ts):
    """The local-factor logs as complex numbers, straight from the definition."""
    pf = ps.astype(np.float64)
    z = (np.asarray(fp, dtype=np.complex128) / np.sqrt(pf))[..., None] * np.exp(
        -1j * np.outer(np.log(pf), ts))
    return np.log1p(z) if model is Model.RADEMACHER else -np.log1p(-z)


_ts = st.lists(st.floats(-1e4, 1e4, allow_nan=False), min_size=1, max_size=6)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(list(Model)), st.lists(st.integers(0, 2**40), min_size=1,
                                              max_size=4),
       st.integers(0, 1200), st.integers(1, 30), _ts)
def test_log_factor_matrix_is_the_real_part_of_the_complex_log(
        tables_small, model, seeds, lo, width, ts):
    ps = tables_small.primes[lo:lo + width]
    ts = np.array([0.0] + ts)
    fp = prime_value_matrix(model, seeds, ps)
    M = log_factor_matrix(model, fp, ps, ts)
    assert M.dtype == np.float64 and M.shape == (len(seeds), ps.size, ts.size)
    want = _complex_log_factors(model, fp, ps, ts).real
    assert np.max(np.abs(M - want)) <= 1e-13
    for i in range(len(seeds)):
        assert np.array_equal(M[i], log_factor_matrix(model, fp[i], ps, ts))


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(list(Model)), st.lists(st.integers(0, 2**40), min_size=1,
                                              max_size=5),
       st.lists(st.integers(0, 60), min_size=1, max_size=4), st.integers(5, 60),
       st.none() | st.integers(0, 30), st.integers(0, 2**40))
def test_integral_on_grid_batches_over_seeds(tables_small, model, seeds, ends, panels,
                                             n_frozen, frozen_seed):
    # n_frozen None stands for no base; else the first n_frozen primes are
    # frozen from frozen_seed and the seeds draw the next max(ends) primes.
    ends = sorted(ends)
    ts, w = simpson_grid(-20.0, 20.0, panels)
    frozen = tables_small.primes[:n_frozen or 0]
    ps = tables_small.primes[frozen.size:frozen.size + ends[-1]]
    f0 = prime_value_matrix(model, [frozen_seed], frozen)[0]
    base = None if n_frozen is None else log_factor_sum(model, f0, frozen, ts)
    fp = prime_value_matrix(model, seeds, ps)
    got = integral_on_grid(model, fp, ps, ts, w, ends, base)
    assert got.shape == (len(seeds), len(ends))
    for i, row in enumerate(got):
        assert np.array_equal(integral_on_grid(model, fp[i], ps, ts, w, ends, base), row)
    for j, e in enumerate(ends):
        assert np.array_equal(integral_on_grid(model, fp, ps, ts, w, [e], base)[:, 0],
                              got[:, j])
        logs = log_factor_sum(model, fp[:, :e], ps[:e], ts)
        logs = logs if base is None else base + logs
        assert np.array_equal(grid_quadrature(logs, ts, w), got[:, j])
        logs = (_complex_log_factors(model, fp[:, :e], ps[:e], ts).sum(axis=-2)
                + _complex_log_factors(model, f0, frozen, ts).sum(axis=0))
        want = (np.abs(np.exp(logs)) ** 2 / (0.25 + ts * ts)) @ w
        assert got[:, j] == pytest.approx(want, rel=1e-12)
    if len(set(ends)) > 1:
        with pytest.raises(ValueError, match="ascend"):
            integral_on_grid(model, fp, ps, ts, w, ends[::-1], base)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(list(Model)), st.integers(0, 2**40), st.integers(0, 6),
       st.integers(0, 1100), st.integers(0, 120), st.integers(1, 40), st.data())
def test_log_factor_sum_is_the_summed_cube_bit_for_bit(tables_small, model, seed, seeds,
                                                       lo, k, panels, data):
    # seeds == 0 stands for a single realization, a 1-D fp.
    ps = tables_small.primes[lo:lo + k]
    ts, _ = simpson_grid(-20.0, 20.0, panels)
    fp = prime_value_matrix(model, seed + np.arange(max(seeds, 1)), ps)
    if seeds == 0:
        fp = fp[0]
    want = log_factor_matrix(model, fp, ps, ts).sum(axis=-2)
    got = log_factor_sum(model, fp, ps, ts)
    assert got.shape == want.shape and np.array_equal(got, want)
    # A running total over two consecutive prime ranges is the same sum.
    j = data.draw(st.integers(0, ps.size))
    part = log_factor_sum(model, fp[..., :j], ps[:j], ts)
    assert log_factor_sum(model, fp[..., j:], ps[j:], ts, out=part) is part
    assert np.array_equal(part, want)
