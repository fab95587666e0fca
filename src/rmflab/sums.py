"""The central random sums: large-prime-factor partial sums and variances.

For an integer x, every n <= x whose largest prime factor P(n) exceeds
sqrt(x) factors uniquely as n = p*m with p prime, p^2 > x and m <= x/p < p.
So every large-prime statistic is a sum over the primes sqrt(x) < p <= x of
terms in f(p) and A_f(floor(x/p)), with A_f needed only on [0, isqrt(x)].
The decomposition kernel :func:`quotient_sums` returns those primes with
A[..., x // p], for one realization or a seed batch; the fast paths below
and the suites in :mod:`rmflab.harness` are built on it.

On a grid up to N, which n <= N have P(n)^2 > n, with P(n) and q = n // P(n),
does not depend on f: :func:`grid_plan` finds them once per grid, in 6 B per
kept n (about 4.4 B per integer <= N, as 73 % of n <= 10^6 are kept) plus 6 B
per grid point.  :func:`grid_statistics` is one pass over the plan per trial.

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


def _check_x(tables: PrimeTables, x: int) -> None:
    if not 1 <= x <= tables.limit:
        raise ValueError(f"x={x} outside [1, {tables.limit}]")


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
    _check_x(F.tables, x)
    ks, Aq = quotient_sums(F.prefix_sums(math.isqrt(x)), x, F.tables)
    total = np.sum(F.prime_values(F.tables.primes[ks]) * Aq)
    return int(total) if F.model is Model.RADEMACHER else complex(total)


def large_prime_sum_bruteforce(F: SampledFunction, x: int):
    """Definition-level oracle: enumerate n <= x and keep those with
    P(n) > isqrt(x), which holds exactly when P(n)^2 > x."""
    if x > ORACLE_CAP:
        raise ValueError(f"x={x} exceeds the brute-force cap {ORACLE_CAP}")
    _check_x(F.tables, x)
    return interval_sum_pconstraint(F, 0, x, math.isqrt(x), x)


def conditional_variance(F: SampledFunction, x: int) -> float:
    """V(x) = sum over primes sqrt(x) < p <= x of |A_f(floor(x/p))|^2."""
    _check_x(F.tables, x)
    _, Aq = quotient_sums(F.prefix_sums(math.isqrt(x)), x, F.tables)
    return variance_sum(Aq)


def exact_expected_variance(x: int, model: Model, tables: PrimeTables) -> float:
    """E[V(x)] in closed form by orthogonality of distinct f(n).

    Each |A_f(y)|^2 has mean floor(y) (Steinhaus) or the number of squarefree
    integers <= y (Rademacher), summed over primes sqrt(x) < p <= x.
    """
    _check_x(tables, x)
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
    """
    if not 0 <= n_lo <= n_hi or n_hi > F.tables.limit:
        raise ValueError(f"bad n range ({n_lo}, {n_hi}]")
    if not 1 <= p_lo <= p_hi:
        raise ValueError(f"bad prime window ({p_lo}, {p_hi}]")
    if n_hi < 2 or p_lo == p_hi:
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
    if s > s_prev:
        t2 = -interval_sum_pconstraint(F, 0, x_prev, s_prev, s)
    else:
        t2 = 0 if F.model is Model.RADEMACHER else 0.0 + 0.0j
    if x > x_prev:
        t3 = interval_sum_pconstraint(F, x_prev, x, s, x)
    else:
        t3 = 0 if F.model is Model.RADEMACHER else 0.0 + 0.0j
    return (t1, t2, t3)


class GridPlan(NamedTuple):
    """The f-independent half of the grid kernel; "kept" n have P(n)^2 > n.

    ``prime_index`` and ``quotient`` lead with a slot for n = 0 (q = 0), which
    :func:`rmflab.rmf.cumulate` skips, so their length is 1 + the kept count.
    """

    xs: np.ndarray  #: the ascending int64 grid
    s_max: int  #: isqrt(max(xs)), 1 on an empty grid; f is sieved on [0, s_max]
    prime_index: np.ndarray  #: int32 index of P(n) in ``tables.primes``, per kept n
    quotient: np.ndarray  #: int16 n // P(n) < sqrt(n), per kept n
    kept: np.ndarray  #: int32 number of kept n <= x, per grid point
    squares: np.ndarray  #: int16 number of primes with p^2 <= x, per grid point


def grid_plan(tables: PrimeTables, xs) -> GridPlan:
    """The :class:`GridPlan` of the ascending grid ``xs``, in O(max(xs))."""
    xs = np.asarray(xs, dtype=np.int64)
    if np.any(np.diff(xs) < 0) or np.any(xs[:1] < 1):
        raise ValueError("grid must be ascending with entries >= 1")
    N = int(xs.max(initial=1))
    _check_x(tables, N)
    lpi = tables.largest_factor_table()[: N + 1]
    p = tables.primes[lpi]
    q = np.arange(N + 1)
    q //= p
    # n = P(n)*q is kept when q < P(n), i.e. P(n)^2 > n, and is a prime square
    # when q = P(n); n < 2 has no P(n).
    keep, square = q < p, q == p
    keep[:2] = False
    del p
    n = np.concatenate(([0], np.flatnonzero(keep)))  # n = 0 leads as a zero slot
    return GridPlan(xs, math.isqrt(N), lpi[n].astype(np.int32), q[n].astype(np.int16),
                    np.cumsum(keep, dtype=np.int32)[xs], np.cumsum(square, dtype=np.int16)[xs])


def grid_statistics(F: SampledFunction, plan: GridPlan) -> tuple[np.ndarray, np.ndarray]:
    """M_f and V at every x of ``plan.xs``: the per-trial half of the kernel.

    f is sieved only on [0, plan.s_max]; each kept n = P(n)*q has
    f(n) = f(P(n)) * f(q), one gather.  Both statistics are a cumulative sum
    over the kept n (of f(n), or of the telescoped |A|^2 increment at q) minus
    a correction at prime squares, where a prime leaves (sqrt(x), x] for good.
    Rademacher sums are exact int64 throughout; V is returned as float64.
    """
    N = int(plan.xs.max(initial=1))
    _check_x(F.tables, N)
    # f(p) for every P(n) of the plan; max(N, 2) keeps the leading zero slot's
    # index 0 valid on an empty grid.
    fp = F.prime_values(F.tables.primes[: F.tables.prime_count_upto(max(N, 2))])
    fs = F.values_up_to(plan.s_max)
    A = cumulate(fs)
    a2 = abs2(A)
    # Corrections: once x passes p^2 the prime p leaves (sqrt(x), x] and its
    # accumulated contribution (all n = p*m with m <= p-1) must be removed.
    ps = F.tables.primes[: F.tables.prime_count_upto(plan.s_max)]
    corr_m = np.concatenate(([0], np.cumsum(fp[: ps.size] * A[ps - 1])))
    corr_v = np.concatenate(([0], np.cumsum(a2[ps - 1])))

    # Sums over the first c kept n, read at c = plan.kept; cumulate skips the slot.
    m_vals = cumulate(fp[plan.prime_index] * fs[plan.quotient])[plan.kept]
    del fp  # 16 B per prime <= N (Steinhaus): free it before the V pass allocates
    v_vals = cumulate(np.diff(a2, prepend=0)[plan.quotient])[plan.kept]
    # plan.squares ascends: each correction applies to one run of grid points.
    runs = np.searchsorted(plan.squares, np.arange(ps.size + 2))
    for j in range(ps.size + 1):
        m_vals[runs[j] : runs[j + 1]] -= corr_m[j]
        v_vals[runs[j] : runs[j + 1]] -= corr_v[j]
    # V(x) >= |A(1)|^2 = 1 for x >= 2 (Bertrand) and V(1) = 0, so a negative
    # value can only come from a broken decomposition.
    if np.any(v_vals < 0):
        raise RuntimeError(f"negative conditional variance {v_vals.min()} on the grid")
    return m_vals, v_vals.astype(np.float64, copy=False)
