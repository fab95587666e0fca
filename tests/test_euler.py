import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmflab import (
    Model,
    QuadratureConfig,
    SampledFunction,
    euler_product,
    expected_product_identity_check,
    parseval_identity_check,
    parseval_integral,
    prime_value_matrix,
)
from rmflab.euler import (
    _adaptive_simpson,
    integral_on_grid,
    log_factor_matrix,
    product_magnitude_bound,
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


def test_product_magnitude_bound_holds(tables_small):
    F = SampledFunction(Model.STEINHAUS, 8, tables_small)
    bound = product_magnitude_bound(F, 200)
    for t in np.linspace(-30, 30, 41):
        assert abs(euler_product(F, 200, float(t))) <= bound * (1 + 1e-12)


def test_adaptive_simpson_known_integrals():
    val, err = _adaptive_simpson(np.sin, 0.0, math.pi, 1e-10, 30, 8)
    assert abs(val - 2.0) <= max(err, 1e-9)
    val, err = _adaptive_simpson(lambda t: 1.0 / (0.25 + t * t), 0.0, 1000.0,
                                 1e-9, 40, 64)
    exact = 2.0 * math.atan(2000.0)
    assert abs(val - exact) < 1e-7


def test_parseval_integral_diagnostic_is_2pi():
    est = parseval_integral(None, 100)
    # The f = 0 product is identically 1; the missing tail is exactly the
    # reported tail bound in this case.
    assert est.value + est.tail_bound == pytest.approx(2 * math.pi, rel=1e-6)
    assert est.quadrature_error_bound < 1e-4


def test_parseval_identity_single_coefficient():
    res = parseval_identity_check([1.0], 0.5)
    assert res.lhs == pytest.approx(1.0)
    assert abs(res.rhs - res.lhs) <= res.error_bound + 1e-6


def test_parseval_identity_two_ones():
    res = parseval_identity_check([1.0, 1.0], 0.5)
    # |S|^2 is 1 on [1,2) and 4 on [2,inf): integral = (1 - 1/2) + 4/2.
    assert res.lhs == pytest.approx(2.5)
    assert abs(res.rhs - res.lhs) <= res.error_bound + 1e-5


@pytest.mark.parametrize("sigma", [0.4, 0.5, 0.9])
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


@pytest.mark.parametrize("model", list(Model))
def test_integral_on_grid_tracks_adaptive(tables_small, model):
    F = SampledFunction(model, 5, tables_small)
    x = 50
    est = parseval_integral(F, x, QuadratureConfig(t_cut=40.0))
    k = tables_small.prime_count_upto(x)
    if model is Model.RADEMACHER:
        ts, w = simpson_grid(0.0, 40.0, 800)
        w = 2.0 * w
    else:
        ts, w = simpson_grid(-40.0, 40.0, 1600)
    fixed = integral_on_grid(model, F._values[:k], tables_small.primes[:k], ts, w)
    assert fixed == pytest.approx(est.value, rel=1e-4)


def test_log_factor_matrix_shape(tables_small):
    ps = tables_small.primes[:5]
    F = SampledFunction(Model.RADEMACHER, 0, tables_small)
    ts = np.linspace(-1, 1, 7)
    M = log_factor_matrix(Model.RADEMACHER, F._values[:5], ps, ts)
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
       st.integers(1, 60), st.integers(5, 60))
def test_integral_on_grid_batches_over_seeds(tables_small, model, seeds, k, panels):
    ps = tables_small.primes[:k]
    ts, w = simpson_grid(-20.0, 20.0, panels)
    fp = prime_value_matrix(model, seeds, ps)
    got = integral_on_grid(model, fp, ps, ts, w)
    assert got.shape == (len(seeds),)
    for i in range(len(seeds)):
        one = integral_on_grid(model, fp[i], ps, ts, w)
        assert isinstance(one, float) and one == got[i]
        logs = _complex_log_factors(model, fp[i], ps, ts).sum(axis=0)
        want = float(w @ (np.abs(np.exp(logs)) ** 2 / (0.25 + ts * ts)))
        assert one == pytest.approx(want, rel=1e-12)
