import math

import pytest

from rmflab.reporting import MomentReport, flagged, mean_se


@pytest.mark.parametrize("kind,estimate,want", [
    # asserts estimate <= bound = 1: flagged once estimate - 3 SE > 1
    ("upper", 4.0, False), ("upper", 4.5, True), ("upper", -9.0, False),
    # asserts estimate >= bound = 1: flagged once estimate + 3 SE < 1
    ("lower", -2.0, False), ("lower", -2.5, True), ("lower", 9.0, False),
    # asserts estimate == bound = 1: flagged once |estimate - 1| > 3 SE
    ("equal", 4.0, False), ("equal", 4.5, True),
    ("equal", -2.0, False), ("equal", -2.5, True),
])
def test_flagged_at_each_kinds_boundary(kind, estimate, want):
    assert flagged(kind, estimate, 1.0, 1.0) is want
    assert MomentReport(estimate, 1.0, 1.0, 100, kind).violated is want


def test_flagged_rejects_an_unknown_kind():
    with pytest.raises(ValueError, match="kind"):
        flagged("two-sided", 0.0, 1.0, 0.0)


def test_mean_se_needs_two_values():
    assert mean_se([1.0, 3.0]) == (2.0, 1.0)
    with pytest.raises(ValueError, match="at least 2"):
        mean_se([1.0])


@pytest.mark.parametrize("kind", ["upper", "lower", "equal"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_flagged_refuses_a_non_finite_value(kind, bad):
    # A NaN compares false, so every kind would pass it.
    for args in ((bad, 1.0, 1.0), (1.0, bad, 1.0), (1.0, 1.0, bad)):
        with pytest.raises(FloatingPointError, match="non-finite"):
            flagged(kind, *args)
        with pytest.raises(FloatingPointError):
            MomentReport(*args, 100, kind).violated
