"""The central random sums: large-prime-factor partial sums and variances.

For an integer x, every n <= x whose largest prime factor P(n) exceeds
sqrt(x) factors uniquely as n = p*m with p prime, p^2 > x and m <= x/p < p.
So every large-prime statistic is a sum over the primes sqrt(x) < p <= x of
terms in f(p) and A_f(floor(x/p)), with A_f needed only on [0, isqrt(x)].
The decomposition kernel :func:`quotient_sums` returns those primes with
A[..., x // p], for one realization or a seed batch; the fast paths below
and the suites in :mod:`rmflab.harness` are built on it.

On a grid up to N, which n <= N have P(n)^2 > n, with P(n) and q = n // P(n),
does not depend on f: :func:`grid_plan` finds them for one segment of
integers start <= n < stop, in 6 B per kept n (about 4.4 B per integer of the
segment, as 73 % of n <= 10^6 are kept) plus 4 B per grid point (``kept``)
and 8 B per prime square in the segment (``square_at``), and about
21 B per integer of temporaries while it is built (tracemalloc, at 10^6).
:func:`grid_statistics` is one pass over a plan per trial.  A trial's
:class:`GridCarry` is made once from its realization, and takes its running
sums from one segment to the next, so a walk over the segments holds one
segment's arrays at a time; a plan of the whole grid is the one-segment
case.  The plan keeps its indices compact (int32 and int16), and the kernel
gathers through them with ``ndarray.take``, which casts an index to
``intp`` once, in one contiguous pass.  ``a[idx]`` with such an index casts
it in small buffered chunks on every call: on one segment of 2^15 integers
at 5*10^5 it took 72 us to gather f(P(n)), against 25 us with ``take``
(numpy 2.4, 2 cores).  An ``intp`` plan would gather as fast, but for 8 B
more per kept n and per grid point.  The prime-square corrections are
constant between two prime squares, so the kernel subtracts each one in
place over its run of grid points.  There are 168 prime squares up to
10^6, where a count per grid point cost a gather at each of the 10^6 grid
points at epsilon = 0.1.

Boundary convention throughout: "p > sqrt(u)" is evaluated as p*p > u in
integer arithmetic, equivalently p > isqrt(u); no floating point square
root ever decides membership.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .rmf import Model, SampledFunction, abs2, cumulate
from .sieve import PrimeTables, squarefree_indicator

#: Largest x accepted by the definition-level brute-force oracle.
ORACLE_CAP = 1_000_000


def quotient_sums(A: np.ndarray, x: int, tables: PrimeTables) -> tuple[slice, np.ndarray]:
    """The decomposition kernel: the primes sqrt(x) < p <= x and A[..., x // p].

    ``A`` holds A_f(k), k = 0..isqrt(x), on its last axis; leading axes, such
    as seeds, pass through.  Returns the slice of ``tables.primes`` (and of any
    per-prime value array) holding those primes, and the gathered values.
    Primes above ``tables.limit`` are not in the table and do not appear.
    """
    ks = slice(tables.prime_count_upto(math.isqrt(x)), tables.prime_count_upto(x))
    return ks, A[..., x // tables.primes[ks]]


def variance_sum(Aq: np.ndarray):
    """V = sum of |Aq|^2 over the last (prime) axis: a float for one
    realization, float64 per seed for a batch.

    Rademacher terms are integers, exact in any order.  Steinhaus terms are
    accumulated left to right over the primes in ascending order (a cumsum
    is sequential, where numpy's own sum adds a lone row pairwise), so a
    seed's V does not depend on its batch.  The cumsum overwrites |Aq|^2,
    which is this function's own array, so it allocates nothing more.
    Either way each batch is one numpy call, which leaves the interpreter
    lock free for the other seed batches.
    """
    q = abs2(Aq)
    if q.dtype.kind == "f" and q.shape[-1]:
        q = np.cumsum(q, axis=-1, out=q)[..., -1:]
    v = q.sum(axis=-1).astype(np.float64)
    return float(v) if v.ndim == 0 else v


def large_prime_sum(F: SampledFunction, x: int):
    """Sum of f(n) over n <= x with P(n) > sqrt(x), as sum of f(p) * A_f(x // p).

    Uses prefix sums of f on [1, isqrt(x)] only; exact integer arithmetic in
    the Rademacher case.
    """
    F.tables.check(x, "x")
    ks, Aq = quotient_sums(cumulate(F.values_up_to(math.isqrt(x))), x, F.tables)
    total = np.sum(F.prime_values(F.tables.primes[ks]) * Aq)
    return int(total) if F.model is Model.RADEMACHER else complex(total)


def large_prime_sum_bruteforce(F: SampledFunction, x: int):
    """Definition-level oracle: enumerate n <= x and keep those with
    P(n) > isqrt(x), which holds exactly when P(n)^2 > x."""
    if x > ORACLE_CAP:
        raise ValueError(f"x={x} exceeds the brute-force cap {ORACLE_CAP}")
    F.tables.check(x, "x")
    return interval_sum_pconstraint(F, 0, x, math.isqrt(x), x)


def conditional_variance(F: SampledFunction, x: int) -> float:
    """V(x) = sum over primes sqrt(x) < p <= x of |A_f(floor(x/p))|^2."""
    F.tables.check(x, "x")
    _, Aq = quotient_sums(cumulate(F.values_up_to(math.isqrt(x))), x, F.tables)
    return variance_sum(Aq)


def exact_expected_variance(x: int, model: Model, tables: PrimeTables) -> float:
    """E[V(x)] in closed form by orthogonality of distinct f(n).

    Each |A_f(y)|^2 has mean floor(y) (Steinhaus) or the number of squarefree
    integers <= y (Rademacher), summed over primes sqrt(x) < p <= x.
    """
    tables.check(x, "x")
    s = math.isqrt(x)
    if Model(model) is Model.STEINHAUS:
        mean_a2 = np.arange(s + 1)
    else:
        mean_a2 = np.cumsum(squarefree_indicator(s, tables), dtype=np.int64)
    _, q = quotient_sums(mean_a2, x, tables)
    return float(np.sum(q))


def interval_sum_pconstraint(
    F: SampledFunction, n_lo: int, n_hi: int, p_lo: int, p_hi: int
):
    """Sum of f(n) over n_lo < n <= n_hi with p_lo < P(n) <= p_hi.

    n = 1 is never included (its factor table sentinel is 1 and p_lo >= 1).
    An empty n range or prime window gives the model's zero and sieves
    nothing.
    """
    if not 0 <= n_lo <= n_hi or n_hi > F.tables.limit:
        raise ValueError(f"bad n range ({n_lo}, {n_hi}]")
    if not 1 <= p_lo <= p_hi:
        raise ValueError(f"bad prime window ({p_lo}, {p_hi}]")
    if n_hi < 2 or n_lo == n_hi or p_lo == p_hi:
        return 0 if F.model is Model.RADEMACHER else 0.0 + 0.0j
    fv = F.values_up_to(n_hi)
    lpf = F.tables.primes[F.tables.largest_factor_table()[: n_hi + 1]]
    ns = np.arange(n_hi + 1)
    mask = (ns > n_lo) & (lpf > p_lo) & (lpf <= p_hi)
    mask[:2] = False
    if F.model is Model.RADEMACHER:
        return int(np.sum(fv[mask].astype(np.int64)))
    return complex(np.sum(fv[mask]))


def increment_decomposition_check(F: SampledFunction, x_prev: int, x: int):
    """Three-term split of M_f(x) across a test-point step.

    Returns ``(M_f(x_prev), -middle, tail)`` where ``middle`` removes the
    integers n <= x_prev whose largest prime factor crosses from above
    sqrt(x_prev) to at most sqrt(x), and ``tail`` adds the fresh integers in
    (x_prev, x] with a large prime factor.  The three terms sum to M_f(x)
    exactly.
    """
    if not 2 <= x_prev <= x or x > F.tables.limit:
        raise ValueError(f"bad pair x_prev={x_prev}, x={x}")
    t1 = large_prime_sum(F, x_prev)
    s_prev, s = math.isqrt(x_prev), math.isqrt(x)
    t2 = -interval_sum_pconstraint(F, 0, x_prev, s_prev, s)
    t3 = interval_sum_pconstraint(F, x_prev, x, s, x)
    return (t1, t2, t3)


class GridPlan(NamedTuple):
    """The f-independent half of the grid kernel, for the integers
    start <= n < stop; "kept" n have P(n)^2 > n.

    ``prime_index`` and ``quotient`` lead with a slot (0, 0) that
    :func:`grid_statistics` fills with the sums carried in from the segments
    before, so their length is 1 + the kept count.  The number of primes
    with p^2 <= x is ``squares_before`` at the first grid points, and grows
    by one at each grid index in ``square_at``.
    """

    xs: np.ndarray  #: the ascending int64 grid points, all in [start, stop)
    start: int  #: first integer of the segment
    stop: int  #: one past its last integer
    prime_index: np.ndarray  #: int32 index of P(n) in ``tables.primes``, per kept n
    quotient: np.ndarray  #: int16 n // P(n) < sqrt(n), per kept n
    kept: np.ndarray  #: int32 number of kept n in [start, x], per grid point
    squares_before: int  #: number of primes with p^2 < start
    square_at: np.ndarray  #: index of the first grid point x >= p^2, per p^2 in the segment


def grid_plan(tables: PrimeTables, xs, start: int = 0, stop: int | None = None) -> GridPlan:
    """The :class:`GridPlan` of the integers start <= n < stop and the
    ascending grid points ``xs`` among them, in O(stop - start).

    By default the plan covers [0, max(xs)], the whole grid in one segment.
    """
    xs = np.asarray(xs, dtype=np.int64)
    if np.any(np.diff(xs) < 0) or np.any(xs[:1] < 1):
        raise ValueError("grid must be ascending with entries >= 1")
    if stop is None:
        stop = int(xs.max(initial=1)) + 1
    tables.check(max(stop - 1, 1), "x")
    if not 0 <= start < stop or np.any(xs[:1] < start) or np.any(xs[-1:] >= stop):
        raise ValueError(f"grid outside the segment [{start}, {stop})")
    lpi = tables.largest_factor_table()[start:stop]
    # uint32 holds every n <= MAX_LIMIT < 2^32 and divides faster than int64.
    p = tables.primes.take(lpi).astype(np.uint32)
    q = np.arange(start, stop, dtype=np.uint32)
    q //= p
    # n = P(n)*q is kept when q < P(n), i.e. P(n)^2 > n; n < 2 has no P(n).
    keep = q < p
    keep[:max(0, 2 - start)] = False
    del p
    n = np.flatnonzero(keep)
    prime_index = np.zeros(n.size + 1, dtype=np.int32)
    quotient = np.zeros(n.size + 1, dtype=np.int16)
    prime_index[1:], quotient[1:] = lpi[n], q[n]
    del n, q
    before = tables.prime_count_upto(math.isqrt(start - 1)) if start else 0
    inside = tables.primes[before:tables.prime_count_upto(math.isqrt(stop - 1))]
    return GridPlan(xs, start, stop, prime_index, quotient,
                    np.cumsum(keep, dtype=np.int32)[xs - start],
                    before, np.searchsorted(xs, inside * inside))


class GridCarry:
    """What :func:`grid_statistics` carries for the realization ``F`` from a
    segment to the next, over the integers up to ``top``.

    Made once per trial, before its first segment: f(p) at every prime <= top
    (``fp``; 1 B each for Rademacher, 16 B for Steinhaus), f on
    [0, isqrt(top)] (``fs``), the |A|^2 increments (``d2``) and the
    cumulative M and V corrections per prime square (``corr_m``,
    ``corr_v``).  ``m`` and ``v`` are the running sums over the kept
    n < ``stop``, the integers of the segments so far, before the
    prime-square corrections.
    """

    def __init__(self, F: SampledFunction, top: int):
        tables = F.tables
        tables.check(top, "x")
        self.top, self.stop, self.m, self.v = top, 0, 0, 0
        s = math.isqrt(top)
        # max(top, 2) keeps the leading slot's prime index 0 valid on an
        # empty grid.
        self.fp = F.prime_values(tables.primes[: tables.prime_count_upto(max(top, 2))])
        self.fs = F.values_up_to(s)
        A = cumulate(self.fs)
        a2 = abs2(A)
        self.d2 = np.diff(a2, prepend=0)
        # Once x passes p^2 the prime p leaves (sqrt(x), x] and its
        # accumulated contribution (all n = p*m with m <= p-1) must be removed.
        ps = tables.primes[: tables.prime_count_upto(s)]
        self.corr_m = np.concatenate(([0], np.cumsum(self.fp[: ps.size] * A[ps - 1])))
        self.corr_v = np.concatenate(([0], np.cumsum(a2[ps - 1])))

    @staticmethod
    def cells(top: int) -> int:
        """An upper bound on the values a carry up to ``top`` holds, and so on
        the primes <= top: f(p) at each prime <= top (pi(x) < 1.26 x / log x,
        Rosser and Schoenfeld), and f, A and the corrections on
        [0, isqrt(top)]."""
        n = max(top, 2)
        return int(1.26 * n / math.log(n)) + 4 * (math.isqrt(n) + 1)


def _running_sum(terms: np.ndarray, start):
    """start, start + terms[1], start + terms[1] + terms[2], ...: the carry is
    the first addend, so a walk over segments adds in the same order as one
    pass.  Overwrites ``terms`` when its dtype already holds the sums."""
    acc = terms.astype(np.int64 if terms.dtype.kind in "iu" else terms.dtype, copy=False)
    acc[0] = start
    return np.cumsum(acc, out=acc)


def grid_statistics(plan: GridPlan, carry: GridCarry) -> tuple[np.ndarray, np.ndarray]:
    """M_f and V at every x of ``plan.xs``: the per-trial half of the kernel.

    ``carry`` is the realization's :class:`GridCarry` from the segments
    before ``plan``, which cover [0, plan.start); it is updated for the next
    one.  A plan of the whole grid takes a fresh carry.
    Each kept n = P(n)*q has f(n) = f(P(n)) * f(q), one gather.  Both
    statistics are a running sum over the kept n (of f(n), or of the
    telescoped |A|^2 increment at q) minus a correction at prime squares,
    where a prime leaves (sqrt(x), x] for good.  Rademacher sums are exact
    int64 throughout; V is returned as float64.
    """
    if plan.start != carry.stop or plan.stop - 1 > carry.top:
        raise ValueError(f"segment [{plan.start}, {plan.stop}) does not follow "
                         f"[0, {carry.stop}) within [0, {carry.top}]")
    m_run = _running_sum(carry.fp.take(plan.prime_index) * carry.fs.take(plan.quotient),
                         carry.m)
    v_run = _running_sum(carry.d2.take(plan.quotient), carry.v)
    carry.stop, carry.m, carry.v = plan.stop, m_run[-1], v_run[-1]
    m_vals = m_run.take(plan.kept)
    v_vals = v_run.take(plan.kept)
    # The correction is constant between two prime squares: one in-place
    # subtraction per run, not a gather per grid point.
    ends = [*plan.square_at.tolist(), len(plan.xs)]
    for k, (a, b) in enumerate(zip([0, *ends], ends), plan.squares_before):
        if a < b:
            m_vals[a:b] -= carry.corr_m[k]
            v_vals[a:b] -= carry.corr_v[k]
    # V(x) >= |A(1)|^2 = 1 for x >= 2 (Bertrand) and V(1) = 0, so a negative
    # value can only come from a broken decomposition.
    if np.any(v_vals < 0):
        raise RuntimeError(f"negative conditional variance {v_vals.min()} on the grid")
    return m_vals, v_vals.astype(np.float64, copy=False)
