"""Truncated Euler products, their L2 integrals, and Parseval checks.

The truncated product at s = 1/2 + it runs over primes p <= x with local
factor (1 + f(p) p^-s) in the Rademacher case and (1 - f(p) p^-s)^-1 in
the Steinhaus case.  Only its modulus enters the integrals and expectation
identities, so products are accumulated as sums of the real log-moduli of
:func:`log_factor_matrix`, which cannot overflow for any truncation this
package supports; :func:`euler_product` alone keeps a complex log.
Integrals over t use one composite Simpson grid, :func:`parseval_grid` at
:data:`GRID_T` and :data:`GRID_PANELS`, in the suites and in
:func:`parseval_integral`, the quadrature side of
:func:`parseval_identity_check`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .reporting import MomentReport, mean_se
from .rmf import Model, SampledFunction, abs2, over_seeds, prime_value_matrix
from .sieve import PrimeTables

#: The cut and the panels per half line of every Parseval integral's grid.
GRID_T = 40.0
GRID_PANELS = 400


def parseval_grid(even: bool, T: float = GRID_T,
                  panels: int = GRID_PANELS) -> tuple[np.ndarray, np.ndarray]:
    """Simpson nodes and weights of a Parseval integral over |t| <= T.

    An integrand even in t, such as that of a Rademacher product (real f(p)),
    runs on [0, T] with ``panels`` panels and doubled weights; any other,
    such as a Steinhaus one, on [-T, T] with 2 * ``panels`` panels.  Both
    layouts have the same step.
    """
    if even:
        ts, w = simpson_grid(0.0, T, panels)
        return ts, 2.0 * w
    return simpson_grid(-T, T, 2 * panels)


@dataclass(frozen=True)
class ParsevalCheckResult:
    """Closed-form side, quadrature side, and the honest combined error bound."""

    lhs: float
    rhs: float
    error_bound: float

    @property
    def match(self) -> bool:
        """|lhs - rhs| within ``error_bound``, with 1e-6 relative slack for rounding."""
        return abs(self.lhs - self.rhs) <= self.error_bound + 1e-6 * max(1.0, abs(self.lhs))


# ---------------------------------------------------------------------------
# Euler products
# ---------------------------------------------------------------------------


def euler_product(F: SampledFunction | None, x: int, t: float) -> complex:
    """The truncated product at 1/2 + it, for one t; 1 in the F = None (f = 0) mode."""
    if F is None:
        return 1.0 + 0.0j
    if x > F.tables.limit:
        raise ValueError(f"x={x} exceeds table limit {F.tables.limit}")
    ps = F.tables.primes[:F.tables.prime_count_upto(x)]
    pf = ps.astype(np.float64)
    z = F.prime_values(ps) / np.sqrt(pf) * np.exp(-1j * float(t) * np.log(pf))
    if F.model is Model.RADEMACHER:
        logs = np.log1p(z)
    else:
        logs = -np.log1p(-z)
    return complex(np.exp(logs.sum()))


# ---------------------------------------------------------------------------
# Parseval identity for finitely supported Dirichlet series
# ---------------------------------------------------------------------------


def parseval_identity_check(coeffs, sigma: float) -> ParsevalCheckResult:
    """Both sides of the Parseval identity for a finitely supported sequence.

    lhs: integral over x of |partial sum|^2 x^(-1-2*sigma) dx, in closed form
    (the partial sum is a step function).  rhs and error_bound: those of
    :func:`parseval_integral`.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    a = np.asarray(coeffs, dtype=np.complex128)
    if a.size == 0 or not np.any(a != 0):
        return ParsevalCheckResult(lhs=0.0, rhs=0.0, error_bound=0.0)
    n = np.arange(1, a.size + 1, dtype=np.float64)

    # Closed-form lhs: step function constant on [k, k+1).
    S = np.cumsum(a)
    s2 = abs2(S)
    pw = n ** (-2.0 * sigma)
    lhs = float(
        np.sum(s2[:-1] * (pw[:-1] - pw[1:])) / (2.0 * sigma)
        + s2[-1] * pw[-1] / (2.0 * sigma)
    )
    rhs, err = parseval_integral(a, sigma)
    return ParsevalCheckResult(lhs=lhs, rhs=rhs, error_bound=err)


def parseval_integral(coeffs, sigma: float) -> tuple[float, float]:
    """(1/2pi) integral over all t of |A(sigma+it)/(sigma+it)|^2, and its error bound.

    A(s) = sum a_n n^-s over the finitely supported ``coeffs`` (a_1 first),
    sigma > 0.  The value is the Simpson sum on ``parseval_grid(False)`` plus
    the exact diagonal tail beyond GRID_T.  The bound is the Simpson estimate
    |S_h - S_2h| / 15, where S_2h is the Simpson sum on every other node of
    the same grid, plus an integration-by-parts bound on the discarded
    off-diagonal oscillatory tail.
    """
    a = np.asarray(coeffs, dtype=np.complex128)
    n = np.arange(1, a.size + 1, dtype=np.float64)
    logn = np.log(n)
    nsig = n ** (-sigma)
    T = GRID_T
    ts, wts = parseval_grid(False)
    _, coarse_wts = parseval_grid(False, T, GRID_PANELS // 2)
    # Summed by numpy, not BLAS, so no digit depends on the thread count.
    A = (np.exp(-1j * np.outer(ts, logn)) * (a * nsig)).sum(axis=-1)
    g = abs2(A) / (sigma * sigma + ts * ts)
    fine = float((g * wts).sum())
    coarse = float((g[::2] * coarse_wts).sum())

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
    return ((fine + diag) / (2.0 * math.pi),
            (abs(fine - coarse) / 15.0 + off_tail) / (2.0 * math.pi))


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
    prod(1 - 1/p)^-1 in the Steinhaus case, independent of t.
    """
    model = Model(model)
    if not 2 <= x <= y <= tables.limit:
        raise ValueError(f"bad range 2 <= {x} <= {y} <= {tables.limit}")
    ps = tables.primes_in(x, y)
    if len(ps) == 0 or x == y:
        return MomentReport(1.0, 0.0, 1.0, trials, "equal", label="empty-product")
    if trials < 100:
        raise ValueError("need at least 100 trials for a meaningful SE")
    logs = over_seeds(
        lambda batch: log_factor_matrix(model, prime_value_matrix(model, batch, ps), ps,
                                        np.array([float(t)]))[..., 0].sum(axis=1),
        range(seed_base, seed_base + trials), ps.size)
    vals = np.exp(2.0 * logs)
    if model is Model.RADEMACHER:
        target = float(np.prod(1.0 + 1.0 / ps))
    else:
        target = float(np.prod(1.0 / (1.0 - 1.0 / ps)))
    est, se = mean_se(vals)
    return MomentReport(
        estimate=est,
        std_error=se,
        bound=target,
        trials=trials,
        kind="equal",
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


def log_factor_sum(model: Model, fp: np.ndarray, primes: np.ndarray, ts: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
    """``log_factor_matrix(model, fp, primes, ts).sum(axis=-2)`` without the cube.

    Adds one slab of shape fp.shape[:-1] + ts.shape per prime, in ascending
    order, which is the order of numpy's reduction over that axis when ts
    has more than one point, so the result is bit-identical.  (For a single
    t numpy sums the primes pairwise instead.)  With ``out``, the slabs are
    added into it in place: a running total over consecutive prime ranges.
    Its working set per t is the sum, one prime's slab and the slab's
    temporary.
    """
    fp = np.asarray(fp)
    if out is None:
        out = np.zeros(fp.shape[:-1] + np.shape(ts))
    for i in range(len(primes)):
        out += log_factor_matrix(model, fp[..., i:i + 1], primes[i:i + 1], ts)[..., 0, :]
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


def integral_on_grid(model: Model, fp: np.ndarray, primes: np.ndarray, ts: np.ndarray,
                     weights: np.ndarray, ends, base=None) -> np.ndarray:
    """Fixed-grid quadrature of |S|^2/(1/4+t^2) over the first e primes, per e in ``ends``.

    ``fp`` holds f(p) for ``primes`` on its last axis; leading axes (seeds)
    lead the result, which has one column per prime count in the ascending
    ``ends``.  :func:`log_factor_sum` sums the log-moduli as one running
    total in prime order; the log-moduli ``base`` of frozen primes, when
    given, are added to that total before :func:`grid_quadrature`.  The
    suites call it on :func:`parseval_grid`, the grid
    :func:`parseval_identity_check` checks, so every sample of a Monte Carlo
    ensemble shares one discretization.
    """
    if np.any(np.diff(ends) < 0):
        raise ValueError(f"prime counts must ascend, got {list(ends)}")
    fp = np.asarray(fp)
    logs = np.zeros(fp.shape[:-1] + np.shape(ts))
    cols, start = [], 0
    for end in ends:
        log_factor_sum(model, fp[..., start:end], primes[start:end], ts, out=logs)
        start = end
        cols.append(grid_quadrature(logs if base is None else base + logs, ts, weights))
    return np.stack(cols, axis=-1)
