"""Survey the normalized sup of the large-prime sum across many realizations.

For each sampled function f we evaluate M_f(x) on the dense test-point grid
and track |M_f(x)| / (sqrt(x) * (loglog x)^(1/4+eps)).  The interesting
question is how the sup of that ratio behaves as x grows: if the loglog
power is the right normalization, the quantiles should stay roughly flat
from decade to decade instead of drifting.

Run:  python demos/sup_growth_survey.py [trials] [x_max]
"""

import sys

import numpy as np

import rmflab as rl

trials = int(sys.argv[1]) if len(sys.argv) > 1 else 40
x_max = int(sys.argv[2]) if len(sys.argv) > 2 else 100_000
eps = 0.1

tables = rl.build_tables(x_max)
grid = rl.test_points(eps, x_max)
print(f"grid: {grid.size} test points in [3, {x_max}], epsilon = {eps}")

# Drop x below 100: there loglog x << 1 and the ratio is just noise from
# the first couple of prime signs, which would swamp every later decade.
grid = grid[grid >= 100]
decades = [d for d in (1000, 10_000, 100_000, 1_000_000) if d <= x_max]
cut = np.searchsorted(grid, decades, side="right")

scale = rl.SegmentScale(grid, eps)
plan = rl.grid_plan(tables, grid)
sups = np.zeros((trials, len(decades)))
for i in range(trials):
    carry = rl.TrialCarry(rl.SampledFunction(rl.Model.RADEMACHER, i, tables), x_max)
    _, _, ratio, _ = rl.run_trial(carry, plan, scale)
    running = np.maximum.accumulate(ratio)
    sups[i] = running[cut - 1]

print(f"\nrunning sup of |M_f(x)| / (sqrt(x) (loglog x)^0.35), {trials} trials")
print(f"{'x <=':>10} {'median':>8} {'q90':>8} {'max':>8}")
for j, d in enumerate(decades):
    print(f"{d:>10} {np.median(sups[:, j]):8.3f} "
          f"{np.quantile(sups[:, j], 0.9):8.3f} {sups[:, j].max():8.3f}")

print("\nA flat column means the chosen normalization captures the growth;")
print("a steadily climbing one would suggest the exponent is too small.")
