"""How concentrated is the conditional variance V(x) around its mean?

V(x) = sum over primes sqrt(x) < p <= x of |A_f(x/p)|^2 has an exact
closed-form expectation, but individual realizations fluctuate a lot
because a handful of primes near sqrt(x) dominate.  This script draws an
ensemble, prints the spread of V(x)*sqrt(loglog x)/x, and compares the
sample mean to the exact value.

Run:  python demos/variance_snapshot.py [trials]
"""

import sys

import rmflab as rl

trials = int(sys.argv[1]) if len(sys.argv) > 1 else 500

tables = rl.build_tables(100_000)
for model in rl.Model:
    print(f"\n{model.value}, {trials} trials")
    print(f"{'x':>8} {'mean V':>12} {'exact E V':>12} {'ratio med':>10} "
          f"{'ratio q90':>10}")
    xs = (1000, 10_000, 100_000)
    for x, rep in zip(xs, rl.variance_ratio_ensemble(model, trials, tables, xs=xs)):
        flag = "" if not rep.violated else "  <-- outside 3 SE!"
        print(f"{x:>8} {rep.estimate:>12.1f} {rep.bound:>12.1f} "
              f"{rep.aux['ratio_median']:>10.3f} {rep.aux['ratio_q90']:>10.3f}{flag}")

print("\nThe ratio column is V(x)*sqrt(loglog x)/x; the q90/median gap shows")
print("the heavy upper tail driven by |A_f| spikes at quotients near sqrt(x).")
