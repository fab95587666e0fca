"""The numpy row text against Python's ``%``: every value must print as
``'%.17g' % v`` or ``'%d' % v``, byte for byte, with no RuntimeWarning."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmflab import rowtext


def _printed(cells) -> list[str]:
    """Each value's text, through the same padding strip the CLI uses."""
    return rowtext.join_rows([cells], ["", "\n"]).split("\n")[:-1]


def _assert_floats(values):
    x = np.asarray(values, dtype=np.float64)
    assert _printed(rowtext.float_text([x])) == ["%.17g" % v for v in x.tolist()]


def _assert_ints(values, dtype=np.int64):
    x = np.asarray(values, dtype=dtype)
    assert _printed(rowtext.int_text([x])) == ["%d" % v for v in x.tolist()]


def _ulps(v: float, k: int) -> list[float]:
    """v and its k neighbours on each side."""
    out, lo, hi = [v], v, v
    for _ in range(k):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64))
def test_float_bit_patterns_print_as_percent(bits):
    _assert_floats(np.array(bits, dtype=np.uint64).view(np.float64))


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_powers_of_ten_and_their_neighbours(sign):
    _assert_floats([sign * u for k in range(-6, 19) for u in _ulps(10.0 ** k, 2)])


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_fast_range_edges(sign):
    # 1e-4 and 1e16 bound the integer path; their neighbours fall on either side.
    _assert_floats([sign * u for v in (1e-4, 1e16, 9999999999999998.0)
                    for u in _ulps(v, 3)])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_exact_ties_round_half_even(data):
    # n / 2**j with n odd has j decimals ending in 5; with n·5**j of 18
    # digits, the 17-digit rounding is an exact tie.
    j = data.draw(st.integers(2, 25))
    lo = -(-10 ** 17 // 5 ** j)
    hi = min(10 ** 18 // 5 ** j, 2 ** 53) - 1
    ns = data.draw(st.lists(st.integers(lo, hi), min_size=1, max_size=32))
    values = [(n | 1) / 2 ** j for n in ns]
    assert all(len(str((n | 1) * 5 ** j)) == 18 for n in ns)
    _assert_floats(values + [-v for v in values])


def test_named_ties():
    _assert_floats([(4e15 + 1) / 4, 0.5, 2.5, 1e15 + 0.5, 1e15 + 1.5])
    assert _printed(rowtext.float_text([np.array([(4e15 + 1) / 4])])) == [
        "1000000000000000.2"]


def test_rounding_up_to_the_next_power_of_ten():
    _assert_floats([s * u for k in range(-6, 18) for s in (1.0, -1.0)
                    for u in _ulps(float(f"9.99999999999999995e{k}"), 2)])


def test_zeros_subnormals_and_non_finite():
    _assert_floats([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                    -2.2250738585072014e-308, 1.7976931348623157e308,
                    math.inf, -math.inf, math.nan, -math.nan, 1e-5, 123.0])


def test_float_columns_of_other_widths_print_their_float64_value():
    x = np.array([0.1, 1e-5, 3.4e38, 1 / 3], dtype=np.float32)
    assert _printed(rowtext.float_text([x])) == ["%.17g" % v for v in x.tolist()]


def test_named_ints():
    edges = [0, 1, -1, -2 ** 63, 2 ** 63 - 1]
    edges += [s * 10 ** k for k in range(19) for s in (1, -1)]
    _assert_ints(edges)
    _assert_ints([0, 1, 2 ** 64 - 1, 10 ** 19], dtype=np.uint64)
    _assert_ints([-128, 127, 0], dtype=np.int8)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), min_size=1, max_size=64),
       st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=8))
def test_int_columns_print_as_percent(signed, unsigned):
    cols = [np.array(signed, dtype=np.int64), np.array(unsigned, dtype=np.uint64)]
    assert _printed(rowtext.int_text(cols)) == ["%d" % v for v in signed + unsigned]


def test_several_columns_of_one_kind_stack_in_order():
    a, b = np.array([1.5, -0.0]), np.array([np.nan, 2e-4])
    assert _printed(rowtext.float_text([a, b])) == ["1.5", "-0", "nan", "0.00020000000000000001"]


def _in_fast_range_bits(rng, n):
    """Random doubles of either sign with exponents across [2^-14, 2^54)."""
    mant = rng.integers(0, 1 << 52, n, dtype=np.uint64)
    exp = rng.integers(1023 - 14, 1023 + 54, n).astype(np.uint64)
    sign = rng.integers(0, 2, n).astype(np.uint64)
    return ((sign << np.uint64(63)) | (exp << np.uint64(52)) | mant).view(np.float64)


def _exact_ties(rng, n):
    """n odd over 2^j whose n·5^j has 18 digits: exact ties at 17 digits."""
    out = []
    for j in range(2, 26):
        lo = -(-10 ** 17 // 5 ** j)
        hi = min(10 ** 18 // 5 ** j, 2 ** 53)
        out.append((rng.integers(lo, hi, n // 24) | 1) / 2.0 ** j)
    return np.concatenate(out)


def test_seeded_sweep_prints_as_percent():
    # Over a million values, a block at a time: the fast range, any bit
    # pattern, exact ties, and powers of ten with their 3-ulp neighbours.
    rng = np.random.default_rng(20231)
    pows = [s * u for k in range(-6, 19) for s in (1.0, -1.0) for u in _ulps(10.0 ** k, 3)]
    parts = [np.array(pows), _exact_ties(rng, 120_000),
             rng.integers(0, 2 ** 64, 120_000, dtype=np.uint64).view(np.float64),
             _in_fast_range_bits(rng, 700_000),
             10.0 ** rng.uniform(-4, 16, 100_000)]
    x = np.concatenate(parts)
    assert x.size >= 10 ** 6
    for block in np.array_split(x, 16):
        _assert_floats(block)


def test_whole_takes_only_exact_integers_below_two_to_the_53():
    edge = 2.0 ** 53 - 1
    got = rowtext.whole(np.array([0.0, 1.0, -7.0, edge, -edge]))
    assert got.dtype == np.int64 and got.tolist() == [0, 1, -7, 2 ** 53 - 1, 1 - 2 ** 53]
    assert rowtext.whole(np.array([], dtype=np.float64)).tolist() == []
    assert rowtext.whole(np.array([3.0, -2.0], dtype=np.float32)).tolist() == [3, -2]
    for bad in (-0.0, 2.0 ** 53, -2.0 ** 53, 0.5, math.nan, math.inf, -math.inf, 1e300):
        assert rowtext.whole(np.array([1.0, bad])) is None, bad
