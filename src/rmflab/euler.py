"""Truncated Euler products, their L2 integrals, and Parseval checks.

The truncated product at s = 1/2 + it runs over primes p <= x with local
factor (1 + f(p) p^-s) in the Rademacher case and (1 - f(p) p^-s)^-1 in
the Steinhaus case.  Only its modulus enters the integrals and expectation
identities, so products are accumulated as sums of the real log-moduli of
:func:`log_factor_matrix`, which cannot overflow for any truncation this
package supports; :func:`euler_product` alone keeps a complex log.
Integrals over t use batched adaptive Simpson with an explicit analytic
bound on the discarded tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .reporting import MomentReport
from .rmf import Model, SampledFunction, abs2, over_seeds, prime_value_matrix
from .sieve import PrimeTables

#: Halvings after which adaptive Simpson gives up on a panel.
MAX_DEPTH = 40


@dataclass(frozen=True)
class QuadratureConfig:
    """Truncation and tolerance knobs for the t-integrals.

    ``t_cut`` defaults (when None) to 50*log(x) for the Euler product
    integral, which keeps the discarded 1/(1/4+t^2) mass far below the
    requested relative tolerance at desk scale.
    """

    t_cut: float | None = None
    rel_tol: float = 1e-6


@dataclass(frozen=True)
class IntegralEstimate:
    value: float
    truncation_T: float
    quadrature_error_bound: float
    tail_bound: float


@dataclass(frozen=True)
class ParsevalCheckResult:
    """Closed-form side, quadrature side, and the honest combined error bound."""

    lhs: float
    rhs: float
    error_bound: float


class QuadratureError(RuntimeError):
    """Adaptive refinement gave up; ``partial`` holds the best estimate."""

    def __init__(self, message: str, partial: float):
        super().__init__(message)
        self.partial = partial


# ---------------------------------------------------------------------------
# Euler products
# ---------------------------------------------------------------------------


def euler_product(F: SampledFunction | None, x: int, t: float) -> complex:
    """The truncated product at 1/2 + it, for one t; 1 in the F = None (f = 0) mode."""
    if F is None:
        return 1.0 + 0.0j
    if x > F.tables.limit:
        raise ValueError(f"x={x} exceeds table limit {F.tables.limit}")
    k = F.tables.prime_count_upto(x)
    pf = F.tables.primes[:k].astype(np.float64)
    z = F._values[:k] / np.sqrt(pf) * np.exp(-1j * float(t) * np.log(pf))
    if F.model is Model.RADEMACHER:
        logs = np.log1p(z)
    else:
        logs = -np.log1p(-z)
    return complex(np.exp(logs.sum()))


def product_magnitude_bound(F: SampledFunction | None, x: int) -> float:
    """Deterministic pointwise bound on |S_x(1/2+it)|, uniform in t."""
    if F is None or x < 2:
        return 1.0
    k = F.tables.prime_count_upto(x)
    ps = F.tables.primes[:k].astype(np.float64)
    if F.model is Model.RADEMACHER:
        return float(np.exp(np.sum(np.log1p(1.0 / np.sqrt(ps)))))
    return float(np.exp(-np.sum(np.log1p(-1.0 / np.sqrt(ps)))))


# ---------------------------------------------------------------------------
# Batched adaptive Simpson
# ---------------------------------------------------------------------------


def _adaptive_simpson(func, a: float, b: float, abs_tol: float,
                      max_depth: int, initial_panels: int) -> tuple[float, float]:
    """Integrate vectorized ``func`` on [a, b]; returns (value, error_bound).

    Classic halving with the |S2 - S1|/15 acceptance test, run breadth-first
    so every refinement level is a single vectorized evaluation.
    """
    edges = np.linspace(a, b, initial_panels + 1)
    lo, hi = edges[:-1], edges[1:]
    mid = 0.5 * (lo + hi)
    f_lo, f_mid, f_hi = func(lo), func(mid), func(hi)
    coarse = (hi - lo) / 6.0 * (f_lo + 4.0 * f_mid + f_hi)
    total = float(np.sum(coarse))
    value = 0.0
    err_acc = 0.0
    for depth in range(max_depth):
        lm = 0.5 * (lo + mid)
        mh = 0.5 * (mid + hi)
        f_lm, f_mh = func(lm), func(mh)
        left = (mid - lo) / 6.0 * (f_lo + 4.0 * f_lm + f_mid)
        right = (hi - mid) / 6.0 * (f_mid + 4.0 * f_mh + f_hi)
        fine = left + right
        err = np.abs(fine - coarse) / 15.0
        # Per-panel budget proportional to panel width.
        budget = abs_tol * (hi - lo) / (b - a)
        done = err <= budget
        value += float(np.sum(fine[done] + (fine[done] - coarse[done]) / 15.0))
        err_acc += float(np.sum(err[done]))
        if np.all(done):
            return value, err_acc
        keep = ~done
        lo = np.concatenate((lo[keep], mid[keep]))
        hi = np.concatenate((mid[keep], hi[keep]))
        f_lo = np.concatenate((f_lo[keep], f_mid[keep]))
        f_hi = np.concatenate((f_mid[keep], f_hi[keep]))
        mid = np.concatenate((lm[keep], mh[keep]))
        f_mid = np.concatenate((f_lm[keep], f_mh[keep]))
        coarse = np.concatenate((left[keep], right[keep]))
    partial = value + float(np.sum(coarse))
    raise QuadratureError(
        f"adaptive refinement did not converge within depth {max_depth} "
        f"(unresolved panels: {lo.size}, target {abs_tol:g}, total ~{total:g})",
        partial=partial,
    )


def _euler_integrand(F: SampledFunction | None, x: int):
    """|S_x(1/2+it)|^2 / |1/2+it|^2 as a vectorized function of t."""
    k = 0 if F is None else F.tables.prime_count_upto(x)

    def integrand(ts: np.ndarray) -> np.ndarray:
        logs = np.zeros(ts.shape)
        # Chunk over primes to keep the (primes x ts) intermediate small.
        step = max(1, 2_000_000 // max(1, ts.size))
        for i in range(0, k, step):
            j = min(i + step, k)
            logs += log_factor_matrix(F.model, F._values[i:j], F.tables.primes[i:j],
                                      ts).sum(axis=0)
        return np.exp(2.0 * logs) / (0.25 + ts * ts)

    return integrand


def parseval_integral(
    F: SampledFunction | None, x: int, quad: QuadratureConfig | None = None
) -> IntegralEstimate:
    """The bare integral over all t of |S_x(1/2+it)|^2 / |1/2+it|^2.

    Integrates [0, T] and doubles when the integrand is even in t (Rademacher
    and the diagnostic f = 0 mode, where f(p) is real); Steinhaus realizations
    are not even, so both half-lines are integrated.  The |t| > T remainder is
    bounded analytically from the pointwise product bound and recorded in
    ``tail_bound`` rather than silently dropped.
    """
    quad = quad or QuadratureConfig()
    if F is not None and x > F.tables.limit:
        raise ValueError(f"x={x} exceeds table limit {F.tables.limit}")
    T = quad.t_cut if quad.t_cut is not None else 50.0 * math.log(max(x, 3))
    if T <= 0:
        raise ValueError(f"t_cut must be positive, got {T}")
    # |S|^2 fluctuates on scale ~1/log x; seed the panels finer than that.
    panels = max(64, int(T * math.log(max(x, 3)) / 2.0))
    integrand = _euler_integrand(F, x)
    abs_tol = quad.rel_tol * 2.0 * math.pi  # refined below against the value
    even = F is None or F.model is Model.RADEMACHER
    if even:
        val, err = _adaptive_simpson(integrand, 0.0, T, abs_tol, MAX_DEPTH, panels)
        val, err = 2.0 * val, 2.0 * err
    else:
        v1, e1 = _adaptive_simpson(integrand, 0.0, T, abs_tol, MAX_DEPTH, panels)
        v2, e2 = _adaptive_simpson(integrand, -T, 0.0, abs_tol, MAX_DEPTH, panels)
        val, err = v1 + v2, e1 + e2
    bound = product_magnitude_bound(F, x)
    tail = bound * bound * 2.0 * (math.pi - 2.0 * math.atan(2.0 * T))
    return IntegralEstimate(
        value=val, truncation_T=T, quadrature_error_bound=err, tail_bound=tail
    )


# ---------------------------------------------------------------------------
# Parseval identity for finitely supported Dirichlet series
# ---------------------------------------------------------------------------


def parseval_identity_check(
    coeffs, sigma: float, quad: QuadratureConfig | None = None
) -> ParsevalCheckResult:
    """Both sides of the Parseval identity for a finitely supported sequence.

    lhs: integral over x of |partial sum|^2 x^(-1-2*sigma) dx, in closed form
    (the partial sum is a step function).  rhs: (1/2pi) integral over t of
    |A(sigma+it)/(sigma+it)|^2, by adaptive quadrature on [-T, T] plus the
    exact diagonal tail, with an integration-by-parts bound on the discarded
    off-diagonal oscillatory tail.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    quad = quad or QuadratureConfig(t_cut=500.0, rel_tol=1e-7)
    a = np.asarray(coeffs, dtype=np.complex128)
    if a.size == 0 or not np.any(a != 0):
        return ParsevalCheckResult(lhs=0.0, rhs=0.0, error_bound=0.0)
    N = a.size
    n = np.arange(1, N + 1, dtype=np.float64)

    # Closed-form lhs: step function constant on [k, k+1).
    S = np.cumsum(a)
    s2 = abs2(S)
    pw = n ** (-2.0 * sigma)
    lhs = float(
        np.sum(s2[:-1] * (pw[:-1] - pw[1:])) / (2.0 * sigma)
        + s2[-1] * pw[-1] / (2.0 * sigma)
    )

    logn = np.log(n)
    nsig = n ** (-sigma)

    def integrand(ts: np.ndarray) -> np.ndarray:
        ph = np.exp(-1j * np.outer(ts, logn))
        A = ph @ (a * nsig)
        return abs2(A) / (sigma * sigma + ts * ts)

    T = quad.t_cut if quad.t_cut is not None else 500.0
    # Oscillation period ~ 2*pi/log(N); keep initial panels below half of it.
    panels = max(64, int(T * math.log(N + 1.0)))
    abs_tol = quad.rel_tol * max(lhs, 1e-12) * 2.0 * math.pi
    v1, e1 = _adaptive_simpson(integrand, 0.0, T, abs_tol, MAX_DEPTH, panels)
    v2, e2 = _adaptive_simpson(integrand, -T, 0.0, abs_tol, MAX_DEPTH, panels)

    # Exact diagonal tail: the m = n terms do not oscillate.
    diag = float(
        np.sum(np.abs(a) ** 2 * nsig**2)
        * 2.0
        * (math.pi / 2.0 - math.atan(T / sigma))
        / sigma
    )
    # Off-diagonal tail: |int_T^inf e^{i w t} g(t) dt| <= 2 g(T)/|w| for the
    # monotone g(t) = 1/(sigma^2 + t^2); both tails double it again.
    absn = np.abs(a) * nsig
    w = np.abs(logn[:, None] - logn[None, :])
    off = absn[:, None] * absn[None, :]
    mask = w > 0
    off_tail = float(
        np.sum(4.0 * off[mask] / (w[mask] * (sigma * sigma + T * T)))
    )

    rhs = (v1 + v2 + diag) / (2.0 * math.pi)
    err = (e1 + e2 + off_tail) / (2.0 * math.pi)
    return ParsevalCheckResult(lhs=lhs, rhs=rhs, error_bound=err)


# ---------------------------------------------------------------------------
# Expectation identity
# ---------------------------------------------------------------------------


def expected_product_identity_check(
    model: Model,
    x: int,
    y: int,
    t: float,
    trials: int,
    tables: PrimeTables,
    seed_base: int = 0,
) -> MomentReport:
    """Monte Carlo mean of the squared local-factor product over x < p <= y.

    The exact expectation is prod(1 + 1/p) in the Rademacher case and
    prod(1 - 1/p)^-1 in the Steinhaus case, independent of t.  Flagged
    two-sided: violated iff |estimate - target| > 3 SE.
    """
    model = Model(model)
    if not 2 <= x <= y <= tables.limit:
        raise ValueError(f"bad range 2 <= {x} <= {y} <= {tables.limit}")
    ps = tables.primes_in(x, y)
    if len(ps) == 0 or x == y:
        return MomentReport(1.0, 0.0, 1.0, trials, False, label="empty-product")
    if trials < 100:
        raise ValueError("need at least 100 trials for a meaningful SE")
    logs = over_seeds(
        lambda batch: log_factor_matrix(model, prime_value_matrix(model, batch, ps), ps,
                                        np.array([float(t)]))[..., 0].sum(axis=1),
        seed_base + np.arange(trials), ps.size)
    vals = np.exp(2.0 * logs)
    if model is Model.RADEMACHER:
        target = float(np.prod(1.0 + 1.0 / ps))
    else:
        target = float(np.prod(1.0 / (1.0 - 1.0 / ps)))
    est = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / math.sqrt(trials))
    return MomentReport(
        estimate=est,
        std_error=se,
        bound=target,
        trials=trials,
        violated=abs(est - target) > 3.0 * se,
        label=f"product-expectation x={x} y={y} t={t} {model.value}",
    )


# ---------------------------------------------------------------------------
# Fixed-grid machinery for Monte Carlo ensembles
# ---------------------------------------------------------------------------


def simpson_grid(lo: float, hi: float, panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Simpson nodes and weights on [lo, hi] with ``panels`` panels."""
    ts = np.linspace(lo, hi, 2 * panels + 1)
    h = (hi - lo) / panels
    w = np.full(ts.shape, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return ts, w * h / 6.0


def log_factor_matrix(model: Model, fp: np.ndarray, primes: np.ndarray,
                      ts: np.ndarray) -> np.ndarray:
    """log|local factor| at 1/2 + it per (prime, t); float64, shape fp.shape + ts.shape.

    ``fp`` holds f(p) for ``primes`` on its last axis; leading axes, such as
    seeds, broadcast.  The local factor is 1 + z for Rademacher and
    (1 - z)^-1 for Steinhaus, with z = f(p) p^-s.  As |f(p)| = 1, |z|^2 = 1/p
    and the log-modulus is +-(1/2) log1p(+-2 Re z + 1/p), where
    Re z = (Re f(p) cos(t log p) + Im f(p) sin(t log p)) / sqrt(p).  The
    trig matrices depend only on (prime, t) and are built once per call;
    every per-realization operation is elementwise, so each row of a seed
    batch is bit-identical to the single-seed call.
    """
    sign = 1.0 if Model(model) is Model.RADEMACHER else -1.0
    pf = np.asarray(primes, dtype=np.float64)
    fp = np.asarray(fp)
    phase = np.outer(np.log(pf), ts)
    scale = (sign * 2.0 / np.sqrt(pf))[:, None]
    # out = +-2 Re z.  f(p) is cast to float64 first: an int8 operand makes
    # the broadcast multiply about twice as slow.
    out = fp.real.astype(np.float64)[..., None] * (np.cos(phase) * scale)
    if np.iscomplexobj(fp):
        out += fp.imag[..., None] * (np.sin(phase) * scale)
    out += (1.0 / pf)[:, None]
    np.log1p(out, out=out)
    out *= 0.5 * sign
    return out


def grid_quadrature(logs: np.ndarray, ts: np.ndarray, weights: np.ndarray):
    """Sum over the last axis of weights * exp(2 logs) / (1/4 + t^2).

    ``logs`` holds the summed log-moduli of a product at the nodes ``ts``,
    one realization per leading index; a single row gives a float.  Each
    row is summed on its own by numpy's pairwise sum, so its value does not
    depend on the batch it came in (a BLAS matrix-vector product rounds a
    row differently with the batch size).
    """
    out = (np.exp(2.0 * logs) / (0.25 + ts * ts) * weights).sum(axis=-1)
    return float(out) if out.ndim == 0 else out


def integral_on_grid(model: Model, fp: np.ndarray, primes: np.ndarray,
                     ts: np.ndarray, weights: np.ndarray):
    """Fixed-grid quadrature of |S|^2/(1/4+t^2), one value per realization.

    ``fp`` holds f(p) for ``primes`` on its last axis; leading axes (seeds)
    give the shape of the result, and a single realization gives a float.
    Used inside Monte Carlo ensembles where every sample must share the
    identical discretization; single-shot estimates should prefer
    :func:`parseval_integral`.
    """
    logs = log_factor_matrix(model, fp, primes, ts).sum(axis=-2)
    return grid_quadrature(logs, ts, weights)
