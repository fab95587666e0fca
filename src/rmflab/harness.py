"""Experiment driver: grids, trial statistics, and the inequality suites.

Every suite here checks a theorem by Monte Carlo: estimates are compared
to exact bounds or closed-form targets by :func:`rmflab.reporting.flagged`,
so a stable violation indicates an implementation bug, never new
mathematics.
Conditioning is realized exactly by seed-splitting: small primes keep the
values of the conditioning seed, resampled primes are redrawn from
per-resample seeds.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .euler import (GRID_PANELS, GRID_T, grid_quadrature, integral_on_grid, log_factor_sum,
                    parseval_grid)
from .reporting import MomentReport, mean_se
from .rmf import Model, abs2, cumulate, over_seeds, prime_value_matrix, value_matrix
from .sieve import PrimeTables, divisor_m, squarefree_count
from .sums import (GridCarry, GridPlan, exact_expected_variance, grid_statistics,
                   quotient_sums, variance_sum)

#: Seed offset separating conditioning seeds from resample seed streams.
RESAMPLE_STREAM = 0x5EED_0000

#: Smallest x entering the sup statistic.  Below ~e^e the loglog
#: normalization is tiny and the sup degenerates into a coin flip on the
#: first few f(p); grid rows are still reported for all x.
SUP_X_MIN = 100


# ---------------------------------------------------------------------------
# Grids and normalizations
# ---------------------------------------------------------------------------


def _check_epsilon(epsilon: float) -> None:
    if not 0.0 < epsilon < 0.25:
        raise ValueError(f"epsilon must lie in (0, 1/4), got {epsilon}")


def test_points(epsilon: float, x_max: int, x_min: int = 3) -> np.ndarray:
    """Distinct values of floor(exp(i^epsilon)) in [max(x_min, 3), x_max], ascending.

    Computed by inversion: x is kept iff some integer i >= 1 satisfies
    (log x)^(1/eps) <= i < (log(x+1))^(1/eps), which avoids iterating the
    astronomically many i directly.  Where (log x)^(1/eps) overflows float64
    the gap to (log(x+1))^(1/eps) is far wider than 1, so x is kept.  Each x
    is decided on its own, so the grid of a segment [x_min, x_max] is the
    whole grid's points in it.
    """
    _check_epsilon(epsilon)
    x_min = max(x_min, 3)
    if x_max < x_min:
        return np.zeros(0, dtype=np.int64)
    xs = np.arange(x_min, x_max + 1, dtype=np.int64)
    with np.errstate(over="ignore"):
        L = np.log(np.arange(x_min, x_max + 2, dtype=np.float64)) ** (1.0 / epsilon)
    lo, hi = L[:-1], L[1:]
    first = np.maximum(np.ceil(lo), 1.0)
    return xs[(first < hi) | np.isinf(lo)]


def fluctuation_scale(x, epsilon: float):
    """(log log x)^(1/4 + epsilon), the normalization of the sup statistic."""
    x_arr = np.asarray(x, dtype=np.float64)
    if np.any(x_arr < 3):
        raise ValueError("x must be >= 3 so that log log x > 0")
    out = np.log(np.log(x_arr)) ** (0.25 + epsilon)
    return float(out) if np.isscalar(x) or x_arr.ndim == 0 else out


class TrialCarry(GridCarry):
    """A :class:`GridCarry` that also carries the largest normalized |M_f|
    so far, below SUP_X_MIN (``head``) and from it (``tail``, -inf until a
    grid point reaches SUP_X_MIN)."""

    head = 0.0
    tail = -math.inf

    @property
    def sup(self) -> float:
        """The sup of :func:`run_trial` over the segments so far."""
        return self.tail if self.tail > -math.inf else self.head


#: Relative margin by which a segment's bound in :func:`run_trial`, a max of
#: |M|^2 over a scale^2, must stay below the sup^2 to skip the segment.  The
#: sup is taken with np.hypot, and the rounding error of |M|^2 / scale^2 is
#: a few parts in 1e16, so a segment within the margin may still move it.
_NEAR_MAX = 1e-9


def _normalized(m: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """np.hypot(m.real, m.imag) / scale, bit for bit.

    Complex (Steinhaus) m takes np.hypot, as numpy's complex abs differs
    from the scalar abs in the last bit on many values.  Integer
    (Rademacher) m takes the abs of its float64 copy, which np.hypot(m, 0)
    equals exactly; an int64 array divided by a float64 one is cast in
    small buffered chunks, about 4x slower on a segment of 2**15 points.
    """
    if m.dtype.kind == "c":
        out = np.hypot(m.real, m.imag)
    else:
        out = m.astype(np.float64)
        np.abs(out, out=out)
    out /= scale
    return out


class SegmentScale:
    """sqrt(x) * fluctuation_scale(x, epsilon) at a segment's grid points
    ``xs``, shared by the trials that walk the segment.

    ``values`` is computed on first use and at most once.
    :func:`run_trial` asks for it only to print rows, to take the sup below
    SUP_X_MIN, or to take it on a segment whose bound does not rule out a
    new sup.
    """

    def __init__(self, xs: np.ndarray, epsilon: float):
        self.xs, self.epsilon = xs, epsilon

    @functools.cached_property
    def values(self) -> np.ndarray:
        return np.sqrt(self.xs.astype(np.float64)) * fluctuation_scale(self.xs, self.epsilon)

    def floor(self, i: int) -> float:
        """The scale at ``xs[i]``, which bounds it below at every later
        point, as the scale increases with x."""
        x = int(self.xs[i])
        return math.sqrt(x) * fluctuation_scale(x, self.epsilon)


def run_trial(carry: TrialCarry, plan: GridPlan, scale: SegmentScale, at=slice(None)):
    """M_f, V, the normalized |M_f| and its sup on the grid, for the
    realization of ``carry``.

    ``plan`` and ``scale``, the :class:`SegmentScale` of ``plan.xs``, are
    made once per segment by the caller, for every trial that walks it.
    Returns ``(m, v, normalized, sup)``: M_f, V and ``normalized`` =
    |M_f(x)| / scale(x) at the grid points ``at`` (an index array or a
    slice; every point by default), and ``sup`` the max of ``normalized``
    over every point x >= SUP_X_MIN, over every point when none reaches
    SUP_X_MIN, and 0.0 on an empty grid.  M_f and V are computed at every
    point, ``normalized`` at ``at`` only, and the sup as the max of
    :func:`_normalized` over the segment's points, with the bits of the max
    of ``normalized`` at every point.  A walk over segments passes the
    trial's ``carry`` with each segment's plan; the returned arrays are then
    the segment's, and ``sup`` is over the segments so far.  Once the sup
    is positive, a segment whose max |M_f|^2 over the scale^2 at its first
    point x >= SUP_X_MIN stays below the sup^2 by more than ``_NEAR_MAX``
    cannot move it, and its sup is not taken.
    """
    m, v = grid_statistics(plan, carry)
    split = int(np.searchsorted(plan.xs, SUP_X_MIN))
    if split:
        head = _normalized(m[:split], scale.values[:split])
        carry.head = float(head.max(initial=carry.head))
    tail = m[split:]
    # The scale increases with x, so max |M|^2 over the squared scale at the
    # first point x >= SUP_X_MIN bounds |M|^2 / scale^2 at every later one.
    if tail.size and not (carry.tail > 0 and float(abs2(tail).max()) / scale.floor(split) ** 2
                          * (1.0 + _NEAR_MAX) < carry.tail ** 2):
        carry.tail = float(_normalized(tail, scale.values[split:]).max(initial=carry.tail))
    rows = m[at]
    normalized = _normalized(rows, scale.values[at]) if rows.size else np.zeros(0)
    return rows, v[at], normalized, carry.sup


# ---------------------------------------------------------------------------
# Moment and tail suites
# ---------------------------------------------------------------------------


def _proportion_se(p: float, n: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)


def hypercontractive_check(
    weights: dict[int, complex],
    ms,
    trials: int,
    model: Model,
    tables: PrimeTables,
    seed_base: int = 0,
) -> list[MomentReport]:
    """E|sum a_n f(n)|^(2m) against the exact bound (sum |a_n|^2 d_{2m-1}(n))^m.

    One report per m in ``ms``, in order.  Every m takes its moment of the
    same Monte Carlo sample |sum a_n f(n)|^2, one value per seed.  The bound
    is computed exactly through the sieve.
    """
    ms = list(ms)
    if not ms:
        raise ValueError("need at least one m")
    if not all(1 <= m <= 3 for m in ms):
        raise ValueError("m must be in 1..3 (higher MC moments are too noisy)")
    if trials < 1000:
        raise ValueError("need at least 1000 trials")
    ns = np.array(sorted(weights), dtype=np.int64)
    if ns.size == 0 or ns[0] < 1:
        raise ValueError("weights must be supported on positive integers")
    a = np.array([weights[int(n)] for n in ns]) + 0.0  # real stays real, int turns float
    N = int(ns[-1])
    # take() keeps each seed's row contiguous, so it is summed on its own.  A
    # batch holds the sieve planes and the sieved values per integer, and the
    # gather and the weighted product per weight.
    s2 = over_seeds(
        lambda batch: abs2((value_matrix(model, batch, N, tables).take(ns, axis=1) * a)
                           .sum(axis=1)),
        range(seed_base, seed_base + trials), 2 * (N + 1 + ns.size))
    out = []
    for m in ms:
        est, se = mean_se(s2 ** m)
        bound = float(
            sum(abs(weights[int(n)]) ** 2 * divisor_m(int(n), 2 * m - 1, tables) for n in ns)
            ** m
        )
        out.append(MomentReport(
            estimate=est,
            std_error=se,
            bound=bound,
            trials=trials,
            kind="upper",
            label=f"hypercontractive m={m} N={N} {Model(model).value}",
        ))
    return out


def hoeffding_tail_check(
    model: Model,
    xs,
    epsilon: float,
    small_prime_seed: int,
    trials: int,
    tables: PrimeTables,
) -> list[MomentReport]:
    """Conditional tail of M_f(x) at the threshold 2*sqrt(x)*scale(x), per x in ``xs``.

    The small primes (p <= sqrt(x)) are frozen from ``small_prime_seed``, so
    each summand f(p)*A_f(floor(x/p)) lies in a known interval and the
    conditional variance V0 is a fixed number.  The asserted bound is the
    directly derivable one: 2*exp(-t^2/(2 V0)) for the real Rademacher sum,
    and 4*exp(-t^2/(4 V0)) for |M| in the Steinhaus case (real and imaginary
    parts each bounded at threshold t/sqrt(2)).  The looser literature-shaped
    form exp(-4 x scale^2 / V0) is reported in ``aux``, not asserted.

    One report per x, in order.  Every x shares the resample seeds
    ``small_prime_seed`` + RESAMPLE_STREAM + 0..trials-1: each seed's prime
    values are hashed once, over the union of the points' prime ranges, and
    each M is summed over its own range.  Primes above ``tables.limit`` are
    not in the table and do not enter M.  An x with V0 = 0 (at x > limit,
    a range that holds no prime of the table) raises ``ValueError`` before
    any resample seed is hashed.
    """
    model = Model(model)
    xs = [int(x) for x in xs]
    if not xs:
        raise ValueError("need at least one x")
    if min(xs) < 16:
        raise ValueError("x must be >= 16")
    if trials < 1000:
        raise ValueError("need at least 1000 resamples")
    _check_epsilon(epsilon)
    A0 = cumulate(value_matrix(model, [small_prime_seed], math.isqrt(max(xs)), tables)[0])
    sums = [quotient_sums(A0[:math.isqrt(x) + 1], x, tables) for x in xs]
    v0s = [variance_sum(w) for _, w in sums]
    if 0.0 in v0s:
        raise ValueError(f"V0 = 0 at x={xs[v0s.index(0.0)]}: no term of the table "
                         f"(limit {tables.limit}) varies, so there is no tail to check")
    lo = min(ks.start for ks, _ in sums)
    hi = max(ks.stop for ks, _ in sums)

    # Each seed's M is summed on its own row, exactly for Rademacher.
    def rows(batch):
        pv = prime_value_matrix(model, batch, tables.primes[lo:hi])
        return np.stack([(pv[:, ks.start - lo:ks.stop - lo] * w).sum(axis=1)
                         for ks, w in sums], axis=1)

    base = small_prime_seed + RESAMPLE_STREAM
    M = over_seeds(rows, range(base, base + trials), hi - lo).T
    out = []
    for x, v0, Mx in zip(xs, v0s, M):
        t = 2.0 * math.sqrt(x) * fluctuation_scale(x, epsilon)
        hits = np.abs(Mx) >= t
        est = float(np.mean(hits))
        se = _proportion_se(est, trials)
        if model is Model.RADEMACHER:
            bound = 2.0 * math.exp(-t * t / (2.0 * v0))
        else:
            bound = 4.0 * math.exp(-t * t / (4.0 * v0))
        literature_bound = math.exp(-4.0 * x * fluctuation_scale(x, epsilon) ** 2 / v0)
        out.append(MomentReport(
            estimate=est,
            std_error=se,
            bound=min(bound, 1.0),
            trials=trials,
            kind="upper",
            label=f"hoeffding x={x} seed={small_prime_seed} {model.value}",
            aux={"v0": v0, "threshold": t, "literature_bound": literature_bound},
        ))
    return out


# ---------------------------------------------------------------------------
# Submartingale suites
# ---------------------------------------------------------------------------


def _revealed_prime_sums(model: Model, seeds, x_base: int, p_hi: int,
                         tables: PrimeTables) -> tuple[np.ndarray, np.ndarray]:
    """Per-trial sums G_p = sum of f(n) over n <= x_base with P(n) = p.

    Covers the primes sqrt(x_base) < p <= p_hi, where each such n = p*m has
    m < p, so G_p = f(p) * A_f(floor(x_base/p)).  Returns (primes, matrix of
    shape (trials, len(primes))), int64 for Rademacher.
    """
    A = cumulate(value_matrix(model, seeds, math.isqrt(x_base), tables))
    ks, Aq = quotient_sums(A, x_base, tables)
    ps = tables.primes[ks]
    n = np.searchsorted(ps, p_hi, side="right")
    return ps[:n], prime_value_matrix(model, seeds, ps[:n]) * Aq[:, :n]


def submartingale_z_check(
    model: Model,
    x_base: int,
    k_lo: int,
    k_hi: int,
    resamples: int,
    seed: int,
    tables: PrimeTables,
) -> list[MomentReport]:
    """Conditional increments of the prime-reveal squared-sum sequence.

    The sequence at index k is |sum of f(n) over n <= x_base with
    sqrt(x_base) < P(n) <= isqrt(k)|^2.  Stepping k -> k+1 reveals at most
    one new prime; with everything below frozen, the conditional mean
    increment is exactly |A_f(floor(x_base/p))|^2 >= 0 (the cross term has
    mean zero).  A prime above x_base divides no n <= x_base and reveals
    nothing.  One report per step, asserting a mean increment >= 0.
    """
    model = Model(model)
    if x_base > 1_000_000:
        raise ValueError("x_base above the oracle cap")
    if not 2 <= k_lo < k_hi:
        raise ValueError("need 2 <= k_lo < k_hi")
    s0 = math.isqrt(x_base)
    ks, Aq = quotient_sums(cumulate(value_matrix(model, [seed], s0, tables)[0]), x_base,
                           tables)
    # frozen[j]: the sum over the first j revealed primes of f(q) * A(x_base // q).
    fq = prime_value_matrix(model, [seed], tables.primes[ks])[0]
    frozen = np.concatenate(([0], np.cumsum(fq * Aq)))
    out: list[MomentReport] = []
    for k in range(k_lo, k_hi):
        r, r2 = math.isqrt(k), math.isqrt(k + 1)
        label = f"z-step x_base={x_base} k={k} {model.value}"
        newp = tables.primes_in(max(r, s0), min(r2, x_base))
        if r2 == r or len(newp) == 0:
            out.append(MomentReport(0.0, 0.0, 0.0, resamples, "lower", label=label,
                                    aux={"target": 0.0, "new_prime": 0}))
            continue
        p = int(newp[0])
        j = int(np.searchsorted(tables.primes[ks], p))
        S, c = frozen[j], Aq[j]
        # In the sum's dtype: numpy 1.x would keep int8 * scalar in int8 and wrap.
        seeds = seed + RESAMPLE_STREAM + np.arange(resamples)
        fp = prime_value_matrix(model, seeds, [p])[:, 0].astype(Aq.dtype)
        est, se = mean_se(np.abs(S + fp * c) ** 2 - abs(S) ** 2)
        out.append(
            MomentReport(
                estimate=est,
                std_error=se,
                bound=0.0,
                trials=resamples,
                kind="lower",
                label=label,
                aux={"target": float(abs(c) ** 2), "new_prime": p},
            )
        )
    return out


def _grid_integrals(model: Model, seeds, primes: np.ndarray, ts: np.ndarray,
                    wts: np.ndarray, ends, base=None) -> np.ndarray:
    """Matrix (seeds, len(ends)) of :func:`integral_on_grid` over f(p) on ``primes``.

    A batch holds, per seed, the prime values and, per t, the running sum,
    one prime's slab and the slab's temporary (the quadrature's two
    temporaries come after the slab is freed).
    """
    return over_seeds(
        lambda batch: integral_on_grid(model, prime_value_matrix(model, batch, primes),
                                       primes, ts, wts, ends, base),
        seeds, primes.size + 3 * ts.size)


def y_submartingale_check(
    model: Model,
    x_from: int,
    x_to: int,
    resamples: int,
    seed: int,
    tables: PrimeTables,
    T: float = GRID_T,
    panels: int = GRID_PANELS,
) -> MomentReport:
    """Conditional increment of the normalized Parseval-integral statistic.

    The realization is frozen up to truncation ``x_from`` and the primes in
    (x_from, x_to] are resampled; the Monte Carlo mean of the statistic at
    ``x_to`` is compared to its frozen value at ``x_from``.  A shared fixed
    Simpson grid is used for every sample so the discretized statistic is
    itself a submartingale.  The report asserts a mean increment >= 0.
    """
    model = Model(model)
    if not 3 <= x_from < x_to <= tables.limit:
        raise ValueError("need 3 <= x_from < x_to <= limit")
    ts, wts = parseval_grid(model is Model.RADEMACHER, T, panels)
    k0 = tables.prime_count_upto(x_from)
    k1 = tables.prime_count_upto(x_to)
    base = log_factor_sum(model, prime_value_matrix(model, [seed], tables.primes[:k0])[0],
                          tables.primes[:k0], ts)
    # The weight (log x / log x0)^(1/(ell-1)^K) / log x at block index
    # ell = 2 is 1 / log x0 at every truncation x, whatever K is.
    norm = 1.0 / math.log(x_from)
    y_prev = norm * grid_quadrature(base, ts, wts)
    y_next = norm * _grid_integrals(
        model, range(seed + RESAMPLE_STREAM, seed + RESAMPLE_STREAM + resamples),
        tables.primes[k0:k1], ts, wts, [k1 - k0], base)[:, 0]
    est, se = mean_se(y_next)
    return MomentReport(
        estimate=est - y_prev,
        std_error=se,
        bound=0.0,
        trials=resamples,
        kind="lower",
        label=f"y-step {x_from}->{x_to} seed={seed} {model.value}",
        aux={"y_prev": y_prev, "y_next_mean": est},
    )


def _z_trajectories(model: Model, seeds, x_base: int, r_hi: int,
                    tables: PrimeTables) -> np.ndarray:
    """Matrix (trials, steps) of the prime-reveal squared sums, in float64,
    which doob_check squares again; Rademacher stays exact up to here."""
    return over_seeds(
        lambda batch: abs2(np.cumsum(_revealed_prime_sums(model, batch, x_base, r_hi,
                                                          tables)[1], axis=1)
                           ).astype(np.float64),
        seeds, len(tables.primes_in(math.isqrt(x_base), x_base)))


def _y_trajectories(model: Model, seeds, truncations, tables: PrimeTables,
                    T: float, panels: int) -> np.ndarray:
    """Matrix (trials, len(truncations)) of normalized integral statistics."""
    truncations = list(truncations)
    if truncations != sorted(truncations):
        raise ValueError("truncations must ascend")
    if not truncations:
        return np.zeros((len(seeds), 0))
    if not 2 <= truncations[0] <= truncations[-1] <= tables.limit:
        raise ValueError(f"truncations must lie in [2, {tables.limit}]")
    ts, wts = parseval_grid(Model(model) is Model.RADEMACHER, T, panels)
    counts = [tables.prime_count_upto(x) for x in truncations]
    # Every truncation has weight 1 / log x0, as in y_submartingale_check.
    return (1.0 / math.log(truncations[0])) * _grid_integrals(
        model, seeds, tables.primes[:counts[-1]], ts, wts, counts)


def doob_check(
    sequence_spec: str,
    lam: float,
    trials: int,
    model: Model,
    tables: PrimeTables,
    seed_base: int = 0,
    truncations=(50, 100, 200, 400),
    T: float = GRID_T,
    panels: int = GRID_PANELS,
) -> list[MomentReport]:
    """Doob's maximal and L^2 inequalities on one of the submartingale sequences.

    ``sequence_spec`` is "z" (prime-reveal squared sums at x_base = 1000,
    revealing the primes 31 < p <= 100) or "y" (normalized integral
    statistics on ``truncations``).  Both forms read one sample of the
    sequence and are returned in order: the maximal form
    lambda * P(max > lambda) <= E[X_n], then the L^2 form
    E[max^2] <= 4 * max_k E[X_k^2].  Each standard error is the joint one of
    both sides.  An empty sequence gives two zero reports.
    """
    model = Model(model)
    seeds = range(seed_base, seed_base + trials)
    if sequence_spec == "z":
        X = _z_trajectories(model, seeds, 1000, 100, tables)
    elif sequence_spec == "y":
        X = _y_trajectories(model, seeds, truncations, tables, T, panels)
    else:
        raise ValueError(f"unknown sequence_spec {sequence_spec!r}")
    if X.shape[1] == 0:
        return [MomentReport(0.0, 0.0, 0.0, trials, "upper",
                             label=f"doob {sequence_spec} (empty sequence)")
                for _ in range(2)]
    mx = X.max(axis=1)
    p_hit = float(np.mean(mx > lam))
    per_k = [mean_se(X[:, j] ** 2) for j in range(X.shape[1])]
    sq_k, sq_k_se = per_k[int(np.argmax([m for m, _ in per_k]))]

    def report(label, est, se_l, rhs, se_r):
        return MomentReport(est, math.sqrt(se_l * se_l + se_r * se_r), rhs, trials, "upper",
                            label=f"{label} {model.value}")

    return [report(f"doob-max {sequence_spec} lambda={lam}", lam * p_hit,
                   lam * _proportion_se(p_hit, trials), *mean_se(X[:, -1])),
            report(f"doob-l2 {sequence_spec}", *mean_se(mx**2), 4.0 * sq_k, 4.0 * sq_k_se)]


# ---------------------------------------------------------------------------
# Distribution summaries
# ---------------------------------------------------------------------------


def sigma_event_statistic(
    model: Model,
    x_prev: int,
    trials: int,
    t_param: float,
    tables: PrimeTables,
    seed_base: int = 0,
    T: float = GRID_T,
    panels: int = GRID_PANELS,
) -> dict:
    """Empirical distribution of the Parseval integral at truncation x_prev.

    Reports quantiles, the fraction exceeding the block-budget threshold
    sqrt(t_param) * 2^((ell-1)^K) / sqrt((ell-1)^K) at block index ell = 2,
    i.e. 2 sqrt(t_param) for every K, the shape budget t_param^(-1/4) it is
    compared against, and the mean of sqrt(integral) / sqrt(log x / sqrt(log
    log x)) as a measured (not asserted) low-moment ratio.  Returns the row
    ``euler --check sigma-event`` prints, quantiles ``q0.0`` ... ``q1.0`` last.
    """
    model = Model(model)
    if not 3 <= x_prev <= tables.limit:
        raise ValueError(f"x_prev={x_prev} outside [3, {tables.limit}]")
    if not t_param > 0:
        raise ValueError(f"t_param must be positive, got {t_param}")
    ts, wts = parseval_grid(model is Model.RADEMACHER, T, panels)
    k = tables.prime_count_upto(x_prev)
    vals = _grid_integrals(model, range(seed_base, seed_base + trials), tables.primes[:k],
                           ts, wts, [k])[:, 0]
    threshold = 2.0 * math.sqrt(t_param)
    qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0]
    lw = math.log(x_prev) / math.sqrt(math.log(math.log(x_prev)))
    return {
        "x_prev": x_prev,
        "trials": trials,
        "threshold": threshold,
        "exceed_fraction": float(np.mean(vals > threshold)),
        "budget_shape": t_param ** -0.25,
        "mean_sqrt_ratio": float(np.mean(np.sqrt(vals))) / math.sqrt(lw),
        **{f"q{q}": float(np.quantile(vals, q)) for q in qs},
    }


def variance_ratio_ensemble(
    model: Model,
    trials: int,
    tables: PrimeTables,
    seed_base: int = 0,
    *,
    xs,
) -> list[MomentReport]:
    """Distribution of V(x)*sqrt(loglog x)/x across trials, per grid x in ``xs``.

    One report per x, in order: the Monte Carlo mean of V(x) against its
    closed-form expectation (the exact oracle), as an ``"equal"`` check,
    with the median and 0.9 quantile of the ratio in ``aux``.  An x below
    3, where log log x is not positive, raises ``ValueError`` before any
    seed is hashed.
    """
    model = Model(model)
    for x in xs:
        if x < 3:
            raise ValueError(f"x={x}: x must be >= 3 so that log log x > 0")
    out = []
    seeds = range(seed_base, seed_base + trials)
    for x in xs:
        s = math.isqrt(x)
        vals = over_seeds(
            lambda batch: variance_sum(
                quotient_sums(cumulate(value_matrix(model, batch, s, tables)), x, tables)[1]),
            seeds, len(tables.primes_in(s, x)))
        est, se = mean_se(vals)
        ratio = vals * math.sqrt(math.log(math.log(x))) / x
        out.append(MomentReport(
            estimate=est,
            std_error=se,
            bound=exact_expected_variance(x, model, tables),
            trials=trials,
            kind="equal",
            label=f"variance x={x} {model.value}",
            aux={"ratio_median": float(np.median(ratio)),
                 "ratio_q90": float(np.quantile(ratio, 0.9))},
        ))
    return out


def partial_sum_second_moment_check(
    model: Model,
    y: int,
    trials: int,
    tables: PrimeTables,
    seed_base: int = 0,
) -> MomentReport:
    """Monte Carlo E|A_f(y)|^2 against the orthogonality target.

    Target: floor(y) for Steinhaus, the squarefree count up to y for
    Rademacher.
    """
    model = Model(model)
    vals = over_seeds(
        lambda batch: abs2(cumulate(value_matrix(model, batch, y, tables))[:, -1]),
        range(seed_base, seed_base + trials), y + 1)
    est, se = mean_se(vals)
    target = float(y if model is Model.STEINHAUS else squarefree_count(y, tables))
    return MomentReport(
        estimate=est,
        std_error=se,
        bound=target,
        trials=trials,
        kind="equal",
        label=f"second-moment y={y} {model.value}",
    )
