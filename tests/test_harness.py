import itertools
import math
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmflab import (
    Model,
    SampledFunction,
    build_tables,
    conditional_variance,
    divisor_m,
    doob_check,
    exact_expected_variance,
    expected_product_identity_check,
    fluctuation_scale,
    grid_plan,
    harness,
    hoeffding_tail_check,
    hypercontractive_check,
    interval_sum_pconstraint,
    large_prime_sum,
    partial_sum_second_moment_check,
    prime_value_matrix,
    rmf,
    run_trial,
    sigma_event_statistic,
    submartingale_z_check,
    test_points as grid_points,
    value_matrix,
    variance_ratio_ensemble,
    y_submartingale_check,
)
from rmflab.euler import log_factor_matrix, simpson_grid
from rmflab.harness import (
    RESAMPLE_STREAM,
    _revealed_prime_sums,
    _y_trajectories,
    _z_trajectories,
)
from rmflab.rmf import abs2, cumulate
from rmflab.sums import GridCarry, grid_statistics


def _brute_test_points(epsilon, x_max):
    seen = []
    i = 1
    while True:
        x = math.floor(math.exp(i**epsilon))
        if x > x_max:
            break
        if x >= 3 and (not seen or x != seen[-1]):
            seen.append(x)
        i += 1
    return sorted(set(seen))


@pytest.mark.parametrize("epsilon,x_max",
                         [(0.2, 2000), (0.24, 500), (0.1, 40), (0.1, 3), (0.2, 4)])
def test_test_points_match_direct_enumeration(epsilon, x_max):
    assert grid_points(epsilon, x_max).tolist() == _brute_test_points(epsilon, x_max)


@pytest.mark.parametrize("epsilon", [0.001, 0.002])
def test_test_points_keep_every_x_where_the_power_overflows(epsilon):
    # (log x)^(1/eps) overflows float64 above x = 7 (eps 0.001) or x = 62
    # (eps 0.002); every integer x >= 3 is a test point at such an eps.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert grid_points(epsilon, 1000).tolist() == list(range(3, 1001))


def _old_test_points(epsilon, x_max, x_min=3):
    """test_points as it was written before it dropped the max(ceil, 1) and
    the arange: the reference for the shorter expression."""
    x_min = max(x_min, 3)
    if x_max < x_min:
        return np.zeros(0, dtype=np.int64)
    xs = np.arange(x_min, x_max + 1, dtype=np.int64)
    with np.errstate(over="ignore"):
        L = np.log(np.arange(x_min, x_max + 2, dtype=np.float64)) ** (1.0 / epsilon)
    lo, hi = L[:-1], L[1:]
    first = np.maximum(np.ceil(lo), 1.0)
    return xs[(first < hi) | np.isinf(lo)]


@pytest.mark.parametrize("epsilon", [0.01, 0.1, 0.2, 0.24])
def test_test_points_equal_the_old_expression_on_segments(epsilon):
    for lo, hi in ((0, 1), (0, 3), (0, 120), (3, 4), (97, 103), (0, 1 << 15),
                   (1 << 15, 1 << 16), (999_000, 1_000_001)):
        got = grid_points(epsilon, hi - 1, lo)
        want = _old_test_points(epsilon, hi - 1, lo)
        assert got.dtype == want.dtype == np.int64
        assert got.tolist() == want.tolist(), (epsilon, lo, hi)


def test_100_is_a_test_point_for_every_epsilon():
    # run_trial counts the sup from SUP_X_MIN = 100 exactly when the walk's top
    # reaches it, which needs 100 on every grid.
    for epsilon in [1e-9, *np.linspace(0.0, 0.25, 4001)[1:-1].tolist(), 0.24999999999]:
        assert harness.SUP_X_MIN in grid_points(epsilon, 120, 90).tolist(), epsilon


def test_test_points_validation():
    with pytest.raises(ValueError):
        grid_points(0.3, 100)
    assert grid_points(0.1, 2).size == 0


def test_fluctuation_scale():
    assert fluctuation_scale(math.exp(math.e), 0.1) == pytest.approx(1.0)
    arr = fluctuation_scale(np.array([100, 10_000]), 0.1)
    assert arr[1] > arr[0] > 0
    with pytest.raises(ValueError):
        fluctuation_scale(2, 0.1)


def test_run_trial_consistent_with_pointwise(tables_small):
    grid = grid_points(0.1, 3000)
    scale = np.sqrt(grid.astype(np.float64)) * fluctuation_scale(grid, 0.1)
    plan = grid_plan(tables_small, grid)
    F = SampledFunction(Model.STEINHAUS, 5, tables_small)
    carry = harness.TrialCarry(F, 3000)
    m, v, normalized = run_trial(carry, plan, harness.SegmentScale(grid, 0.1))
    sup = carry.sup
    j = len(grid) // 2
    x = int(grid[j])
    assert m[j] == pytest.approx(large_prime_sum(F, x), abs=1e-9)
    assert v[j] == pytest.approx(conditional_variance(F, x), abs=1e-6)
    assert normalized[j] == abs(m[j]) / scale[j]
    assert sup == normalized[grid >= 100].max() >= normalized[j]


@pytest.mark.parametrize("model", list(Model))
def test_run_trial_on_an_empty_grid(tables_small, model):
    grid = grid_points(0.1, 2)
    carry = harness.TrialCarry(SampledFunction(model, 5, tables_small), 2)
    m, v, normalized = run_trial(carry, grid_plan(tables_small, grid),
                                 harness.SegmentScale(grid, 0.1))
    assert m.size == v.size == normalized.size == 0 and carry.sup == 0.0


def _hypot_max(m, scale, initial):
    """The sup as np.hypot at every point gives it: the reference."""
    return float((np.hypot(m.real, m.imag) / scale).max(initial=initial))


def _bits(x) -> bytes:
    return np.asarray(x).tobytes()


#: Two values with scale 1 whose order by |m|^2 is the reverse of their
#: order by np.hypot.
_NEAR_TIE = np.array([
    complex(float.fromhex("0x1.0377ec8f0a9adp-2"), float.fromhex("-0x1.8b54f62b8a1a2p+0")),
    complex(float.fromhex("0x1.5600b7784a693p+0"), float.fromhex("0x1.a145ced20f5eap-1")),
])


def _sup_cases():
    rng = np.random.default_rng(2022)
    for n in (1, 2, 7, 1000, 1 << 15):
        scale = rng.uniform(1.0, 1e4, n)
        yield f"complex-{n}", rng.normal(size=n) * 300 + 1j * rng.normal(size=n) * 300, scale
        yield f"int64-{n}", rng.integers(-2**52, 2**52, n, endpoint=True), scale
    yield "int64-ends", np.array([2**52, -2**52, 3, -(2**52 - 1)]), np.ones(4)
    for dtype in (np.complex128, np.int64):
        yield f"zero-{dtype.__name__}", np.zeros(50, dtype=dtype), rng.uniform(1.0, 10.0, 50)
        yield f"empty-{dtype.__name__}", np.zeros(0, dtype=dtype), np.zeros(0)
    yield "near-tie", np.concatenate((_NEAR_TIE, 0.5 * _NEAR_TIE)), np.ones(4)


@pytest.mark.parametrize("initial", [0.0, -math.inf, 1.25])
@pytest.mark.parametrize("m,scale", [c[1:] for c in _sup_cases()],
                         ids=[c[0] for c in _sup_cases()])
def test_the_sup_from_abs2_is_the_hypot_max_bit_for_bit(m, scale, initial):
    # run_trial's sup, the max of _normalized, against np.hypot at every point.
    got = float(harness._normalized(m, scale).max(initial=initial))
    assert _bits(got) == _bits(_hypot_max(m, scale, initial))


def test_the_near_tie_is_ranked_apart_by_abs2():
    # The segment bound compares a max |m|^2 with the square of a np.hypot
    # sup; this pair is why it needs the _NEAR_MAX margin.
    r, h = abs2(_NEAR_TIE), np.hypot(_NEAR_TIE.real, _NEAR_TIE.imag)
    assert r[0] > r[1] and h[0] < h[1]


@pytest.mark.parametrize("model", list(Model))
def test_run_trial_matches_the_definition_of_its_rows_and_sup(tables_small, model):
    # Segments below, across and above SUP_X_MIN = 100, the whole grid as one
    # segment, and a walk whose grid never reaches 100.  The reference takes
    # M and V from a plain GridCarry, np.hypot at every point, and the max over
    # the points x >= 100 of the walk so far, or over all of them when the
    # walk's top is below 100.
    grid = grid_points(0.1, 3000)
    for starts, top in (([0, 64, 99, 101, 150, 1000], 3000), ([0], 3000), ([0, 7, 50], 99)):
        for seed in range(10):
            F = SampledFunction(model, seed, tables_small)
            ref_carry = GridCarry(F, top)
            carries = {"some": harness.TrialCarry(F, top), "every": harness.TrialCarry(F, top)}
            seen_x, seen_m, seen_scale = [], [], []
            for lo, hi in zip(starts, starts[1:] + [top + 1]):
                xs = grid[(grid >= lo) & (grid < hi)]
                scale = np.sqrt(xs.astype(np.float64)) * fluctuation_scale(xs, 0.1)
                plan = grid_plan(tables_small, xs, lo, hi)
                m, v = grid_statistics(plan, ref_carry)
                seen_x.append(xs)
                seen_m.append(m)
                seen_scale.append(scale)
                all_x, all_m, all_scale = map(np.concatenate, (seen_x, seen_m, seen_scale))
                sel = all_x >= 100 if top >= 100 else slice(None)
                ref_sup = _hypot_max(all_m[sel], all_scale[sel], 0.0)
                for name, at in (("some", np.arange(0, xs.size, 7)), ("every", slice(None))):
                    got = run_trial(carries[name], plan, harness.SegmentScale(xs, 0.1), at)
                    ref = (m[at], v[at], np.hypot(m.real, m.imag)[at] / scale[at])
                    assert [_bits(a) for a in got] == [_bits(a) for a in ref], name
                    assert _bits(carries[name].sup) == _bits(ref_sup), (starts, seed, lo, name)
            # The walk reaches SUP_X_MIN exactly when its top does.
            assert np.any(all_x >= 100) == (top >= 100)


def _sup_walk(tables, model, seed, starts, top, near_tie=None):
    """run_trial's sup after each segment of a walk over [0, top] whose
    segments begin at ``starts``, and the reference: the max of
    _normalized(m, scale) over every point x >= 100 so far, or over every
    point so far when top < 100.

    With ``near_tie`` = -1, 0 or 1, each segment after the sup turns
    positive first sets the carried sup, in the carry and the reference,
    to one float below, at or above the segment's own max over x >= 100.
    """
    grid = grid_points(0.1, top)
    F = SampledFunction(model, seed, tables)
    carry, ref = harness.TrialCarry(F, top), GridCarry(F, top)
    sup = 0.0
    got, want = [], []
    for lo, hi in zip(starts, [*starts[1:], top + 1]):
        xs = grid[(grid >= lo) & (grid < hi)]
        plan = grid_plan(tables, xs, lo, hi)
        m, _ = grid_statistics(plan, ref)
        scale = np.sqrt(xs.astype(np.float64)) * fluctuation_scale(xs, 0.1)
        normalized = harness._normalized(m, scale)
        counted = xs >= (100 if top >= 100 else 0)
        if near_tie is not None and np.any(counted) and carry.sup > 0:
            best = normalized[counted].max()
            sup = carry.sup = float(np.nextafter(best, near_tie * math.inf)
                                    if near_tie else best)
        sup = normalized[counted].max(initial=sup)
        run_trial(carry, plan, harness.SegmentScale(xs, 0.1), np.zeros(0, dtype=np.intp))
        got.append(carry.sup)
        want.append(sup)
    return got, want


def _check_sup_walks(tables):
    """Every walk's sups equal the reference's, bit for bit; returns how
    many walks' sup moved after their first segment."""
    moved = 0
    for model in Model:
        # Segments of 1000, of 7 below 100, and of one integer each from 100.
        for top, starts, near_tie in ((30_000, range(0, 30_001, 1000), None),
                                      (99, range(0, 100, 7), None),
                                      *((299, [0, *range(100, 300)], t) for t in (-1, 0, 1))):
            for seed in range(8 if near_tie is None else 4):
                got, want = _sup_walk(tables, model, seed, list(starts), top, near_tie)
                assert [_bits(g) for g in got] == [_bits(w) for w in want], (
                    model, top, near_tie, seed)
                moved += near_tie is None and len(set(got[1:])) > 1
    return moved


def test_the_walked_sup_is_the_max_over_every_point(tables):
    # Sups that move in later segments, near-ties at the carried sup, and a
    # grid that stops below SUP_X_MIN = 100.
    assert _check_sup_walks(tables) > 8


def test_a_bound_from_the_segments_last_point_breaks_the_walked_sup(tables, monkeypatch):
    # The scale at the last point overstates the scale at the others, so the
    # bound skips a segment that moves the sup.
    floor = harness.SegmentScale.floor
    monkeypatch.setattr(harness.SegmentScale, "floor",
                        lambda self, i: floor(self, len(self.xs) - 1))
    with pytest.raises(AssertionError):
        _check_sup_walks(tables)


@pytest.mark.parametrize("model", list(Model))
def test_hypercontractive_never_violated_here(tables_small, model):
    w = {n: 1.0 / n for n in range(1, 201)}
    reps = hypercontractive_check(w, (1, 2, 3), 2000, model, tables_small)
    assert [r.label.split()[1] for r in reps] == ["m=1", "m=2", "m=3"]
    for rep in reps:
        assert not rep.violated
        assert rep.bound > 0


def test_hypercontractive_m1_matches_orthogonality(tables_small):
    # m = 1 the bound is an identity: E|sum|^2 == sum |a_n|^2 over squarefree n.
    w = {1: 1.0, 2: 2.0, 3: -1.0, 4: 1.0, 6: 0.5}
    (rep,) = hypercontractive_check(w, (1,), 4000, Model.RADEMACHER, tables_small)
    sq_target = 1 + 4 + 1 + 0.25  # n = 4 contributes 0: f(4) = 0
    assert rep.estimate == pytest.approx(sq_target, abs=4 * rep.std_error)


@pytest.mark.parametrize("model", list(Model))
@pytest.mark.parametrize("m", [1, 2])
def test_hypercontractive_flags_a_halved_divisor_bound(tables_small, model, m,
                                                       monkeypatch):
    # m = 3 is left out: its bound sits about 20x above the estimate, so
    # halving d_5 (the bound / 8) still leaves it above.
    w = {n: 1.0 / n for n in range(1, 201)}

    def violated():
        (rep,) = hypercontractive_check(w, (m,), 2000, model, tables_small)
        return rep.violated

    assert not violated()
    monkeypatch.setattr("rmflab.harness.divisor_m",
                        lambda n, k, tables: 0.5 * divisor_m(n, k, tables))
    assert violated()


def test_hypercontractive_validation(tables_small):
    with pytest.raises(ValueError):
        hypercontractive_check({1: 1.0}, (4,), 2000, Model.RADEMACHER, tables_small)
    with pytest.raises(ValueError):
        hypercontractive_check({1: 1.0}, (1,), 10, Model.RADEMACHER, tables_small)


@pytest.mark.parametrize("model", list(Model))
def test_hoeffding_tail(tables_small, model):
    (rep,) = hoeffding_tail_check(model, [1000], 0.1, 3, 2000, tables_small)
    assert not rep.violated
    # v0 must equal the conditional variance of the frozen realization.
    F = SampledFunction(model, 3, tables_small)
    assert rep.aux["v0"] == pytest.approx(conditional_variance(F, 1000), rel=1e-9)
    assert rep.aux["threshold"] == pytest.approx(
        2.0 * math.sqrt(1000) * fluctuation_scale(1000, 0.1)
    )
    assert "literature_bound" in rep.aux


@pytest.mark.parametrize("model", list(Model))
def test_hoeffding_points_share_one_hashing_and_report_as_single_calls(tables_small,
                                                                        model):
    # Unsorted and repeated points, over overlapping prime ranges.
    xs = [10_000, 1000, 3000, 1000]
    reps = hoeffding_tail_check(model, xs, 0.1, 5, 1000, tables_small)
    assert [r.label for r in reps] == [
        f"hoeffding x={x} seed=5 {model.value}" for x in xs]
    for x, rep in zip(xs, reps):
        assert rep == hoeffding_tail_check(model, [x], 0.1, 5, 1000, tables_small)[0]


@pytest.mark.parametrize("model", list(Model))
def test_hypercontractive_moments_report_as_single_calls(tables_small, model):
    w = {int(n): complex(c) for n, c in zip(range(3, 400, 7), np.linspace(-1, 2, 57))}
    ms = (3, 1, 2, 1)
    reps = hypercontractive_check(w, ms, 1000, model, tables_small, seed_base=9)
    assert [r.label.split()[1] for r in reps] == [f"m={m}" for m in ms]
    for m, rep in zip(ms, reps):
        assert rep == hypercontractive_check(w, (m,), 1000, model, tables_small,
                                             seed_base=9)[0]


def _hashed_primes(monkeypatch):
    """Record the primes of every prime-value hash made from here on, keyed
    by whether its first seed lies in the resample stream."""
    seen = []

    def spy(model, seeds, primes):
        seen.append((int(np.asarray(seeds)[0]) >= RESAMPLE_STREAM,
                     np.asarray(primes).tolist()))
        return prime_value_matrix(model, seeds, primes)

    monkeypatch.setattr("rmflab.rmf.prime_value_matrix", spy)
    monkeypatch.setattr("rmflab.harness.prime_value_matrix", spy)
    return seen


@pytest.mark.parametrize("model", list(Model))
def test_list_apis_reject_bad_input_before_any_hashing(tables_small, model, monkeypatch):
    seen = _hashed_primes(monkeypatch)
    w = {n: 1.0 for n in range(1, 50)}
    for call in (
        lambda: hoeffding_tail_check(model, [], 0.1, 3, 1000, tables_small),
        lambda: hoeffding_tail_check(model, [1000, 15], 0.1, 3, 1000, tables_small),
        lambda: hoeffding_tail_check(model, [1000], 0.1, 3, 999, tables_small),
        lambda: hoeffding_tail_check(model, [1000], 0.3, 3, 1000, tables_small),
        lambda: hoeffding_tail_check(model, [1000], math.nan, 3, 1000, tables_small),
        lambda: hypercontractive_check(w, (), 1000, model, tables_small),
        lambda: hypercontractive_check(w, (1, 4), 1000, model, tables_small),
        lambda: hypercontractive_check(w, (0, 2), 1000, model, tables_small),
    ):
        with pytest.raises(ValueError):
            call()
    assert seen == []
    # isqrt(10^8) = 10^4 is the table limit: no prime of the table lies in
    # (sqrt(x), x], so V0 = 0.  That shows once the small primes are frozen,
    # before any resample seed is hashed.
    with pytest.raises(ValueError, match="V0 = 0 at x=100000000"):
        hoeffding_tail_check(model, [1000, 10**8], 0.1, 3, 1000, tables_small)
    assert seen and not any(drawn for drawn, _ in seen)


@pytest.mark.parametrize("model", list(Model))
def test_value_matrix_rejects_y_past_the_table_before_any_hashing(tables_small, model,
                                                                  monkeypatch):
    # Past the limit the table holds no primes, so every f(p) there would read 1.
    seen = _hashed_primes(monkeypatch)
    y = tables_small.limit + 1
    for call in (
        lambda: value_matrix(model, [0], y, tables_small),
        lambda: partial_sum_second_moment_check(model, y, 100, tables_small),
    ):
        with pytest.raises(ValueError, match="outside"):
            call()
    assert seen == []


def test_submartingale_z_targets(tables_small):
    # Crossing k = 1369 = 37^2 reveals the prime 37 for x_base = 1000.
    reps = submartingale_z_check(Model.RADEMACHER, 1000, 1368, 1370, 1500, 2,
                                 tables_small)
    rep = reps[0]
    assert rep.aux["new_prime"] == 37
    F = SampledFunction(Model.RADEMACHER, 2, tables_small)
    a = cumulate(F.values_up_to(1000 // 37))[1000 // 37]
    assert rep.aux["target"] == pytest.approx(abs(a) ** 2)
    assert not rep.violated


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(list(Model)), st.integers(0, 2**31), st.integers(16, 3000),
       st.integers(0, 150))
def test_revealed_prime_sums_match_definition(tables_small, model, seed, x_base, width):
    s0 = math.isqrt(x_base)
    seeds = [seed, seed + 1]
    ps, G = _revealed_prime_sums(model, seeds, x_base, s0 + width, tables_small)
    assert ps.tolist() == tables_small.primes_in(s0, min(s0 + width, x_base)).tolist()
    for i, s in enumerate(seeds):
        F = SampledFunction(model, s, tables_small)
        for j, p in enumerate(ps.tolist()):
            want = interval_sum_pconstraint(F, 0, x_base, p - 1, p)
            if model is Model.RADEMACHER:
                assert G[i, j] == want
            else:
                assert G[i, j] == pytest.approx(want, abs=1e-9)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(list(Model)), st.integers(0, 2**31), st.integers(16, 3000),
       st.integers(1, 12))
def test_submartingale_z_frozen_sums_match_definition(tables_small, model, seed,
                                                      x_base, nth):
    # Steps k = p^2 - 2, p^2 - 1, p^2: only the middle one reveals p.
    s0 = math.isqrt(x_base)
    cands = tables_small.primes_in(s0, x_base)
    p = int(cands[min(nth, len(cands)) - 1])
    R = 101
    reps = submartingale_z_check(model, x_base, p * p - 2, p * p + 1, R, seed,
                                 tables_small)
    assert [r.aux["new_prime"] for r in reps] == [0, p, 0]
    F = SampledFunction(model, seed, tables_small)
    S = complex(interval_sum_pconstraint(F, 0, x_base, s0, p - 1))
    c = complex(interval_sum_pconstraint(F, 0, x_base, p - 1, p)) / F.prime_value(p)
    fp = prime_value_matrix(model, seed + RESAMPLE_STREAM + np.arange(R), [p])[:, 0]
    want = float(np.mean(np.abs(S + fp * c) ** 2 - abs(S) ** 2))
    rep = reps[1]
    if model is Model.RADEMACHER:
        assert rep.aux["target"] == abs(c) ** 2
        assert rep.estimate == want
    else:
        assert rep.aux["target"] == pytest.approx(abs(c) ** 2, rel=1e-12, abs=1e-9)
        assert rep.estimate == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_submartingale_z_rademacher_large_frozen_sum_matches_complex_form(tables_small):
    # Seed 0 at x_base = 10^4 has frozen sum S = -198 before p = 7687, so
    # (S +- c)^2 fits neither int8 nor int16; the integer path must not wrap.
    x_base, p, seed, R = 10_000, 7687, 0, 301
    rep = submartingale_z_check(Model.RADEMACHER, x_base, p * p - 1, p * p, R, seed,
                                tables_small)[0]
    assert rep.aux["new_prime"] == p
    F = SampledFunction(Model.RADEMACHER, seed, tables_small)
    S = complex(interval_sum_pconstraint(F, 0, x_base, math.isqrt(x_base), p - 1))
    c = complex(interval_sum_pconstraint(F, 0, x_base, p - 1, p)) / F.prime_value(p)
    assert abs(S) > 181
    fp = prime_value_matrix(Model.RADEMACHER, seed + RESAMPLE_STREAM + np.arange(R),
                            [p])[:, 0].astype(np.complex128)
    d = np.abs(S + fp * c) ** 2 - abs(S) ** 2
    assert rep.estimate == float(np.mean(d))
    assert rep.std_error == float(np.std(d, ddof=1) / math.sqrt(R))


def test_submartingale_z_no_prime_step(tables_small):
    reps = submartingale_z_check(Model.STEINHAUS, 1000, 1370, 1372, 500, 2,
                                 tables_small)
    assert all(r.estimate == 0.0 for r in reps)


@pytest.mark.parametrize("model", list(Model))
def test_submartingale_z_flags_a_revealed_value_that_shrinks_the_sum(tables_small,
                                                                     model,
                                                                     monkeypatch):
    # At seed 0 the step k = 97^2 - 1 reveals p = 97 with 0 < |c| < 2|S|, so
    # f(p) = -S conj(c) / |S c| gives |S + f(p) c| = ||S| - |c|| < |S| every time.
    x_base, p, seed = 1000, 97, 0
    F = SampledFunction(model, seed, tables_small)
    S = complex(interval_sum_pconstraint(F, 0, x_base, math.isqrt(x_base), p - 1))
    c = complex(interval_sum_pconstraint(F, 0, x_base, p - 1, p)) / F.prime_value(p)
    assert 0 < abs(c) < 2 * abs(S)
    shrink = -S * c.conjugate() / abs(S * c)

    def violated():
        (rep,) = submartingale_z_check(model, x_base, p * p - 1, p * p, 1000, seed,
                                       tables_small)
        assert rep.aux["new_prime"] == p
        return rep.violated

    def forced(model, seeds, primes):
        pv = prime_value_matrix(model, seeds, primes)
        if np.asarray(seeds)[0] < RESAMPLE_STREAM:  # the frozen realization
            return pv
        return np.full(pv.shape, shrink if np.iscomplexobj(pv) else shrink.real,
                       dtype=pv.dtype)

    assert not violated()
    monkeypatch.setattr("rmflab.harness.prime_value_matrix", forced)
    assert violated()


@pytest.mark.parametrize("model", list(Model))
def test_y_submartingale_increment(tables_small, model):
    rep = y_submartingale_check(model, 100, 140, 300, 4, tables_small)
    assert not rep.violated
    assert rep.aux["y_prev"] > 0


@pytest.mark.parametrize("model", list(Model))
def test_y_submartingale_flags_a_halved_next_step(tables_small, model, monkeypatch):
    def violated():
        return y_submartingale_check(model, 100, 140, 300, 4, tables_small).violated

    assert not violated()
    # Only the resampled next step; the frozen y_prev stays.
    real = harness._grid_integrals
    monkeypatch.setattr(harness, "_grid_integrals", lambda *a: 0.5 * real(*a))
    assert violated()


def test_z_trajectories_nonnegative_and_growing_mean(tables_small):
    X = _z_trajectories(Model.RADEMACHER, np.arange(500), 1000, 100, tables_small)
    assert np.all(X >= 0)
    means = X.mean(axis=0)
    # submartingale: the mean trajectory should not trend down;
    # allow MC noise of a few SE on each comparison
    se = X.std(axis=0, ddof=1) / math.sqrt(X.shape[0])
    assert np.all(np.diff(means) >= -4 * (se[1:] + se[:-1]))


def test_y_trajectories_shape(tables_small):
    X = _y_trajectories(Model.STEINHAUS, np.arange(10), (50, 100, 150),
                        tables_small, 30.0, 200)
    assert X.shape == (10, 3)
    assert np.all(X > 0)


@pytest.mark.parametrize("model", list(Model))
@pytest.mark.parametrize("spec", ["z", "y"])
def test_doob_inequalities(tables_small, model, spec):
    kwargs = dict(trials=400) if spec == "z" else dict(trials=60, panels=150,
                                                       T=30.0,
                                                       truncations=(50, 100, 150))
    reports = doob_check(spec, 30.0, model=model, tables=tables_small, **kwargs)
    assert [r.label.split()[0] for r in reports] == ["doob-max", "doob-l2"]
    assert not any(r.violated for r in reports)


@pytest.mark.parametrize("spec,builder", [("z", "_z_trajectories"),
                                          ("y", "_y_trajectories")])
def test_doob_check_builds_its_sequence_once_for_both_forms(tables_small, spec,
                                                           builder, monkeypatch):
    calls = []
    real = getattr(harness, builder)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(harness, builder, spy)
    kwargs = dict(truncations=(50, 100), T=20.0, panels=60) if spec == "y" else {}
    reports = doob_check(spec, 30.0, 40, Model.RADEMACHER, tables_small, **kwargs)
    assert len(calls) == 1 and len(reports) == 2


def test_doob_check_gives_two_zero_rows_on_an_empty_sequence(tables_small, monkeypatch):
    monkeypatch.setattr(harness, "_z_trajectories",
                        lambda model, seeds, *args: np.zeros((len(seeds), 0)))
    reports = doob_check("z", 30.0, 40, Model.RADEMACHER, tables_small)
    assert len(reports) == 2
    for r in reports:
        assert (r.estimate, r.std_error, r.bound, r.violated) == (0.0, 0.0, 0.0, False)
        assert r.label == "doob z (empty sequence)"


@pytest.mark.parametrize("model", list(Model))
def test_doob_maximal_flags_a_time_reversed_sequence(tables_small, model, monkeypatch):
    # Reversed, the last step is the first revealed sum |G_37|^2, whose mean
    # (about 17 or 27) is far below lambda * P(max > lambda) at lambda = 100.
    def violated():
        return doob_check("z", 100.0, 1000, model, tables_small)[0].violated

    assert not violated()
    monkeypatch.setattr("rmflab.harness._z_trajectories",
                        lambda *args: _z_trajectories(*args)[:, ::-1])
    assert violated()


@pytest.mark.parametrize("model", list(Model))
def test_doob_l2_flags_a_non_submartingale(tables_small, model, monkeypatch):
    # One spike of height 1 per trial, at step (trial mod steps): E[max^2] = 1,
    # while each E[X_k^2] is about 1/13 over the 13 steps.
    def spikes(model, seeds, *args):
        X = np.zeros_like(_z_trajectories(model, seeds, *args))
        X[np.arange(len(seeds)), np.arange(len(seeds)) % X.shape[1]] = 1.0
        return X

    def violated():
        return doob_check("z", 30.0, 400, model, tables_small)[1].violated

    assert not violated()
    monkeypatch.setattr("rmflab.harness._z_trajectories", spikes)
    assert violated()


def test_doob_y_gives_two_zero_rows_without_truncations(tables_small):
    reports = doob_check("y", 30.0, 40, Model.RADEMACHER, tables_small, truncations=())
    assert len(reports) == 2
    for r in reports:
        assert (r.estimate, r.std_error, r.bound, r.violated) == (0.0, 0.0, 0.0, False)
        assert r.label == "doob y (empty sequence)"


@pytest.mark.parametrize("truncations", [(50, 2000), (1, 50)])
def test_doob_y_rejects_a_truncation_off_the_table_before_any_hashing(truncations,
                                                                      monkeypatch):
    # 2000 lies past a 1000 table, whose primes would silently cut the
    # sequence; a truncation below 2 has no log to normalize by.
    tables = build_tables(1000)
    seen = _hashed_primes(monkeypatch)
    with pytest.raises(ValueError, match=r"truncations must lie in \[2, 1000\]"):
        doob_check("y", 30.0, 40, Model.RADEMACHER, tables, truncations=truncations)
    assert seen == []


def test_doob_rejects_unknown_spec(tables_small):
    with pytest.raises(ValueError):
        doob_check("w", 1.0, 100, Model.RADEMACHER, tables_small)
    with pytest.raises(ValueError, match="ascend"):
        doob_check("y", 1.0, 100, Model.RADEMACHER, tables_small,
                   truncations=(100, 50, 150))


@pytest.mark.parametrize("t_param", [0.0, -1.0, math.nan])
def test_sigma_event_statistic_rejects_a_nonpositive_t_param(tables_small, t_param):
    with pytest.raises(ValueError, match="t_param must be positive"):
        sigma_event_statistic(Model.RADEMACHER, 500, 10, t_param, tables_small)


def test_sigma_event_statistic_shape(tables_small):
    stat = sigma_event_statistic(Model.RADEMACHER, 500, 100, 10.0, tables_small,
                                 panels=200)
    assert list(stat) == ["x_prev", "trials", "threshold", "exceed_fraction",
                          "budget_shape", "mean_sqrt_ratio", "q0.0", "q0.1", "q0.25",
                          "q0.5", "q0.75", "q0.9", "q0.99", "q1.0"]
    qs = [stat[k] for k in ("q0.1", "q0.25", "q0.5", "q0.75", "q0.9")]
    assert qs == sorted(qs)
    assert 0.0 <= stat["exceed_fraction"] <= 1.0
    assert stat["threshold"] == pytest.approx(2.0 * math.sqrt(10.0))
    assert stat["budget_shape"] == pytest.approx(10.0**-0.25)


def _batched_outputs(tables_small, model):
    """Each seed-batched output, the Euler-layer ones at a small grid."""
    grid = dict(T=20.0, panels=60)
    return [
        sigma_event_statistic(model, 300, 23, 10.0, tables_small, seed_base=5, **grid),
        y_submartingale_check(model, 100, 160, 29, 4, tables_small, **grid),
        _y_trajectories(model, np.arange(7, 26), (2, 50, 100, 150), tables_small,
                        **grid).tolist(),
        variance_ratio_ensemble(model, 40, tables_small, seed_base=3, xs=(1000, 10_000)),
        partial_sum_second_moment_check(model, 1000, 50, tables_small, seed_base=11),
        hoeffding_tail_check(model, [10_000, 1000, 1000], 0.1, 3, 1003, tables_small),
        hypercontractive_check({n: 1.0 / n for n in range(1, 121)}, (3, 1, 2), 1001,
                               model, tables_small, seed_base=2),
        expected_product_identity_check(model, 10, 1000, 0.5, 107, tables_small,
                                        seed_base=4),
        doob_check("z", 30.0, 33, model, tables_small, seed_base=6),
    ]


@pytest.mark.parametrize("model", list(Model))
def test_seed_batch_size_never_changes_an_output_byte(tables_small, model,
                                                      monkeypatch):
    monkeypatch.setattr("rmflab.rmf.WORKERS", 1)
    want = _batched_outputs(tables_small, model)
    # One seed per batch, then batch sizes that split the seed counts above
    # unevenly, each on one, two and three worker threads.
    for workers in (1, 2, 3):
        monkeypatch.setattr("rmflab.rmf.WORKERS", workers)
        for cells in (1, 7_000, 40_000):
            monkeypatch.setattr("rmflab.rmf.BATCH_CELLS", cells)
            assert _batched_outputs(tables_small, model) == want, (workers, cells)


@pytest.mark.parametrize("model", list(Model))
def test_seed_batches_bound_the_peak(tables_small, model, monkeypatch):
    # Four times the seeds must not mean four times the memory: with small
    # batches the peak is the batches' temporaries plus one value per seed,
    # on one thread or on two sharing the budget.
    monkeypatch.setattr("rmflab.rmf.BATCH_CELLS", 50_000)
    suites = [
        lambda n: hoeffding_tail_check(model, [10_000, 1000], 0.1, 3, n, tables_small),
        lambda n: hypercontractive_check({k: 1.0 / k for k in range(1, 201)}, (1, 2), n,
                                         model, tables_small),
        lambda n: expected_product_identity_check(model, 10, 1000, 0.5, n, tables_small),
        lambda n: sigma_event_statistic(model, 300, n, 10.0, tables_small,
                                        T=20.0, panels=60),
        lambda n: y_submartingale_check(model, 100, 160, n, 4, tables_small,
                                        T=20.0, panels=60),
    ]
    # Two workers hold their batches' temporaries at once only if their
    # batches happen to overlap, so the same call peaked anywhere from one
    # batch's temporaries to two.  A lock runs one batch at a time: the peak
    # no longer depends on the schedule, while the result array and the
    # batches waiting to start, which grow with the seed count if anything
    # does, are still made on two threads.  Two batches in flight stay in the
    # budget by the split: each gets half of it.
    one_at_a_time = threading.Lock()
    run_batches = rmf._run_batches

    def serialized(fill, starts):
        def locked(i):
            with one_at_a_time:
                fill(i)
        run_batches(locked, starts)

    monkeypatch.setattr("rmflab.rmf._run_batches", serialized)
    for workers, run in itertools.product((1, 2), suites):
        monkeypatch.setattr("rmflab.rmf.WORKERS", workers)
        run(1000)  # first calls import lazily (np.quantile loads numpy.ma); keep it out
        peaks = []
        for n in (2000, 8000):
            tracemalloc.start()
            run(n)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0], (workers, peaks)


@pytest.mark.parametrize("x", [10_000, 100_000])
def test_every_path_sums_v_in_one_order(tables, x):
    # Steinhaus seeds 0-2: V(x) of one realization, v0 of the tail check
    # frozen at that seed and the ensemble's per-seed V are the same floats.
    model = Model.STEINHAUS
    vs = [conditional_variance(SampledFunction(model, s, tables), x) for s in range(3)]
    for s, v in enumerate(vs):
        assert hoeffding_tail_check(model, [x], 0.1, s, 1000, tables)[0].aux["v0"] == v
    rep = variance_ratio_ensemble(model, 3, tables, seed_base=0, xs=(x,))[0]
    assert rep.estimate == float(np.mean(vs))
    ratios = np.array(vs) * math.sqrt(math.log(math.log(x))) / x
    assert rep.aux["ratio_median"] == float(np.median(ratios))


def _reference_integrals(model, seeds, x, ts, w, tables):
    """Fixed-grid integrals of the squared product over p <= x, per seed,
    from complex local factors multiplied out one seed at a time."""
    ps = tables.primes_in(1, x).astype(np.float64)
    out = []
    for s in seeds:
        F = SampledFunction(model, int(s), tables)
        z = np.array([F.prime_value(int(p)) for p in ps])[:, None] / np.sqrt(
            ps)[:, None] * np.exp(-1j * np.outer(np.log(ps), ts))
        sq = np.prod(np.abs(1.0 + z) ** 2 if model is Model.RADEMACHER
                     else np.abs(1.0 - z) ** -2.0, axis=0)
        out.append(float(w @ (sq / (0.25 + ts * ts))))
    return np.array(out)


def _small_y_grid(model):
    if model is Model.RADEMACHER:
        ts, w = simpson_grid(0.0, 20.0, 60)
        return ts, 2.0 * w
    return simpson_grid(-20.0, 20.0, 120)


@pytest.mark.parametrize("model", list(Model))
def test_sigma_event_statistic_matches_per_seed_complex_reference(tables_small,
                                                                  model):
    vals = _reference_integrals(model, range(5, 28), 300, *_small_y_grid(model),
                                tables_small)
    stat = sigma_event_statistic(model, 300, 23, 10.0, tables_small, seed_base=5,
                                 T=20.0, panels=60)
    for q in (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0):
        assert stat[f"q{q}"] == pytest.approx(float(np.quantile(vals, q)), rel=1e-12)
    assert stat["exceed_fraction"] == float(np.mean(vals > 2.0 * math.sqrt(10.0)))


@pytest.mark.parametrize("model", list(Model))
def test_y_trajectories_match_per_seed_complex_reference(tables_small, model):
    seeds, truncations = np.arange(3, 9), (2, 50, 150)
    X = _y_trajectories(model, seeds, truncations, tables_small, 20.0, 60)
    for j, x in enumerate(truncations):
        want = _reference_integrals(model, seeds, x, *_small_y_grid(model),
                                    tables_small) / math.log(2)
        assert X[:, j] == pytest.approx(want, rel=1e-12)


def test_variance_ratio_ensemble(tables_small):
    rows = variance_ratio_ensemble(Model.STEINHAUS, 600, tables_small, xs=(1000,))
    rep = rows[0]
    assert not rep.violated
    assert rep.bound == pytest.approx(
        sum(1000 // p for p in tables_small.primes_in(31, 1000).tolist())
    )
    assert rep.aux["ratio_q90"] >= rep.aux["ratio_median"] > 0


@pytest.mark.parametrize("model", list(Model))
def test_partial_sum_second_moment(tables_small, model):
    rep = partial_sum_second_moment_check(model, 200, 6000, tables_small)
    assert not rep.violated
    if model is Model.STEINHAUS:
        assert rep.bound == 200.0


@pytest.mark.parametrize("model", list(Model))
def test_partial_sum_second_moment_flags_a_target_10_percent_off(tables_small, model,
                                                                monkeypatch):
    # 50000 trials put 3 SE near 3 % of the target at y = 100.  Every |A|^2
    # divided by 1.1 flags exactly when the target times 1.1 would.
    def violated():
        return partial_sum_second_moment_check(model, 100, 50_000, tables_small).violated

    assert not violated()
    monkeypatch.setattr("rmflab.harness.abs2", lambda z: abs2(z) / 1.1)
    assert violated()


@pytest.mark.parametrize("model", list(Model))
def test_variance_ratio_ensemble_flags_a_wrong_target(tables_small, model, monkeypatch):
    # 8000 trials put 3 SE near 5 % of E V(10^4); at 2000 trials it sits
    # near 9 %, so a 10 % error would be flagged only part of the time.
    def violated():
        rows = variance_ratio_ensemble(model, 8000, tables_small, xs=(10_000,))
        return rows[0].violated

    assert not violated()
    monkeypatch.setattr("rmflab.harness.exact_expected_variance",
                        lambda *a: 1.10 * exact_expected_variance(*a))
    assert violated()
