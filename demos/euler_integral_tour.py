"""A quick tour of the truncated Euler products and their L2 integrals.

Three stops:
  1. the product itself at a few frequencies, against the direct evaluation;
  2. the expectation identity E prod |factor|^2 = prod (1 +- 1/p)^(+-1);
  3. the Parseval-type integral of |S_x(1/2+it)|^2 / |1/2+it|^2, whose
     diagnostic mode (f = 0) must come out to exactly 2*pi.

Run:  python demos/euler_integral_tour.py
"""

import math

import rmflab as rl

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

print("\n3) Parseval integral")
diag = rl.parseval_integral(None, 100)
print(f"   diagnostic f=0: {diag.value:.6f} + tail {diag.tail_bound:.6f} "
      f"= {diag.value + diag.tail_bound:.6f}  (2*pi = {2*math.pi:.6f})")
for model in rl.Model:
    G = rl.SampledFunction(model, 3, tables)
    est = rl.parseval_integral(G, 500, rl.QuadratureConfig(t_cut=60.0))
    # the tail bound uses the worst-case product magnitude over all t, so
    # it is wildly pessimistic for a typical realization -- honest, not tight
    print(f"   {model.value:10s} x=500: integral {est.value:10.4f}  "
          f"(quadrature err <= {est.quadrature_error_bound:.2e}, "
          f"crude tail bound {est.tail_bound:.2e})")

print("\nThe integral equals sum_n |f-weighted smooth coefficients|^2 / n by")
print("the Parseval identity, which the test suite checks against the exact")
print("step-function form for finitely supported sequences.")
