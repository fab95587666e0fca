"""A quick tour of the truncated Euler products and their L2 integrals.

Three stops:
  1. the product itself at a few frequencies, against the direct evaluation;
  2. the expectation identity E prod |factor|^2 = prod (1 +- 1/p)^(+-1);
  3. the Parseval-type integral of |S_x(1/2+it)|^2 / |1/2+it|^2 on the
     suites' Simpson grid, whose diagnostic mode (f = 0), plus its exact
     tail beyond the grid, must come out to exactly 2*pi.

Run:  python demos/euler_integral_tour.py
"""

import math

import numpy as np

import rmflab as rl
from rmflab.euler import GRID_PANELS, GRID_T, integral_on_grid, parseval_grid

tables = rl.build_tables(10_000)

print("1) truncated product at x = 500, Rademacher seed 1")
F = rl.SampledFunction(rl.Model.RADEMACHER, 1, tables)
for t in (0.0, 1.0, 5.0):
    v = rl.euler_product(F, 500, t)
    print(f"   t = {t:4.1f}: S = {v.real:+.4f} {v.imag:+.4f}i, |S| = {abs(v):.4f}")

print("\n2) expectation identity over primes in (2, 200], 5000 trials")
for model in rl.Model:
    rep = rl.expected_product_identity_check(model, 2, 200, 0.5, 5000, tables)
    print(f"   {model.value:10s}: estimate {rep.estimate:.4f} "
          f"vs exact {rep.bound:.4f}  (SE {rep.std_error:.4f}, "
          f"{'OK' if not rep.violated else 'VIOLATED'})")

print(f"\n3) Parseval integral on the suites' Simpson grid, |t| <= {GRID_T:g}")
ts, w = parseval_grid(False)
_, w2 = parseval_grid(False, GRID_T, GRID_PANELS // 2)  # every other node
no_primes = np.zeros(0, dtype=np.int64)
(diag,) = integral_on_grid(rl.Model.RADEMACHER, np.zeros(0), no_primes, ts, w, [0])
tail = 2.0 * (math.pi - 2.0 * math.atan(2.0 * GRID_T))  # exact, beyond |t| = GRID_T
print(f"   diagnostic f=0: {diag:.6f} + exact tail {tail:.6f} "
      f"= {diag + tail:.6f}  (2*pi = {2*math.pi:.6f})")
ps = tables.primes[:tables.prime_count_upto(500)]
for model in rl.Model:
    fp = rl.SampledFunction(model, 3, tables).prime_values(ps)
    (fine,) = integral_on_grid(model, fp, ps, ts, w, [ps.size])
    # The same sum on every other node: |S_h - S_2h| / 15 estimates the
    # Simpson error, as euler --check parseval does.
    (coarse,) = integral_on_grid(model, fp, ps, ts[::2], w2, [ps.size])
    print(f"   {model.value:10s} x=500: integral {fine:10.4f}  "
          f"(Simpson error ~ {abs(fine - coarse) / 15:.2e})")

print("\nOver all t the integral is 2*pi * int_1^inf |sum_{n<=u} a_n|^2 u^-2 du, with")
print("a_n the product's Dirichlet coefficients (Parseval); euler --check parseval")
print("checks that identity on this grid for finitely supported sequences.")
