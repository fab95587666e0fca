"""Acceptance gate: one test per release criterion, each printing a
single PASS/FAIL line (through captured output) with its headline numbers.

Statistical criteria use a 3-standard-error rule throughout; timed
criteria assert a wall-clock budget on top of correctness.
"""

import json
import math
import time

import numpy as np
import pytest

import rmflab as rl
from rmflab.cli import main as cli_main
from rmflab.harness import test_points as grid_points

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def _verdict(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\ncriterion {num:2d}: {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_decomposition_oracle(tables, capsys):
    """Fast large-prime sums equal the definition-level brute force."""
    t0 = time.monotonic()
    xs = [2, 3, 10, 31, 100, 316, 997, 1000, 2500, 3000]
    worst = 0.0
    ok = True
    for model in rl.Model:
        for seed in range(20):
            F = rl.SampledFunction(model, seed, tables)
            for x in xs:
                fast = rl.large_prime_sum(F, x)
                brute = rl.large_prime_sum_bruteforce(F, x)
                if model is rl.Model.RADEMACHER:
                    ok = ok and fast == brute
                else:
                    err = abs(fast - brute)
                    worst = max(worst, err)
                    ok = ok and err <= 1e-9
            # the three-way increment split must recompose exactly
            t1, t2, t3 = rl.increment_decomposition_check(F, 997, 3000)
            tot = t1 + t2 + t3
            ok = ok and abs(tot - rl.large_prime_sum(F, 3000)) <= 1e-9
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60
    _verdict(capsys, 1, ok,
             f"20 seeds x 2 models x {len(xs)} points, worst complex error "
             f"{worst:.2e}, {elapsed:.1f}s (budget 60s)")


def test_criterion_02_second_moment_oracle(tables, capsys):
    """E|A_f(y)|^2 matches floor(y) / squarefree count within 3 SE."""
    t0 = time.monotonic()
    ok = True
    details = []
    for model in rl.Model:
        for y in (10, 100, 1000):
            rep = rl.partial_sum_second_moment_check(model, y, 10_000, tables)
            ok = ok and not rep.violated
            details.append(f"{model.value[:4]} y={y}: "
                           f"{rep.estimate:.1f} vs {rep.bound:.0f}")
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 120
    _verdict(capsys, 2, ok, "; ".join(details) + f"; {elapsed:.1f}s (budget 120s)")


def test_criterion_03_variance_oracle(tables, capsys):
    """Monte Carlo V(x) matches the exact expectation, incl. E V(10) = 3."""
    t0 = time.monotonic()
    ok = (rl.exact_expected_variance(10, rl.Model.RADEMACHER, tables) == 3.0
          and rl.exact_expected_variance(10, rl.Model.STEINHAUS, tables) == 3.0)
    details = ["E V(10)=3 exact"]
    for model in rl.Model:
        rows = rl.variance_ratio_ensemble(model, 2000, tables,
                                          xs=(1000, 10_000, 100_000))
        for row in rows:
            ok = ok and not row["violated"]
            details.append(f"{model.value[:4]} x={row['x']}: "
                           f"{row['mean_v']:.0f}/{row['exact_ev']:.0f}")
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 300
    _verdict(capsys, 3, ok, "; ".join(details) + f"; {elapsed:.1f}s (budget 300s)")


def test_criterion_04_euler_product_expectation(tables, capsys):
    """E of the squared local-factor product equals the exact prime product."""
    t0 = time.monotonic()
    ok = True
    worst = 0.0
    for model in rl.Model:
        for x in (10, 100, 1000):
            for t in (0.0, 0.5, 2.0):
                rep = rl.expected_product_identity_check(
                    model, 2, x, t, 10_000, tables
                )
                ok = ok and not rep.violated
                if rep.std_error > 0:
                    worst = max(worst, abs(rep.estimate - rep.bound) / rep.std_error)
    elapsed = time.monotonic() - t0
    _verdict(capsys, 4, ok,
             f"x in (10,100,1000), t in (0,0.5,2), both models, 1e4 trials; "
             f"worst deviation {worst:.2f} SE; {elapsed:.1f}s")


def test_criterion_05_parseval_identity(capsys):
    """Closed-form and quadrature sides of the Parseval identity agree."""
    t0 = time.monotonic()
    res = rl.parseval_identity_check([1.0], 0.5)
    ok = (res.lhs == pytest.approx(1.0)
          and abs(res.rhs - res.lhs) <= res.error_bound + 1e-6)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for i in range(100):
        n = int(rng.integers(1, 25))
        sigma = float(rng.uniform(0.35, 1.0))
        a = rng.normal(size=n) + 1j * rng.normal(size=n)
        r = rl.parseval_identity_check(a, sigma)
        gap = abs(r.rhs - r.lhs)
        tol = r.error_bound + 1e-5 * max(1.0, abs(r.lhs))
        worst = max(worst, gap / tol if tol > 0 else 0.0)
        ok = ok and gap <= tol
    elapsed = time.monotonic() - t0
    _verdict(capsys, 5, ok,
             f"exact a=(1) case + 100 random sequences; worst gap/tolerance "
             f"{worst:.2f}; {elapsed:.1f}s")


def test_criterion_06_hypercontractive(tables, capsys):
    """High moments stay below the divisor-weighted bound for m <= 3."""
    t0 = time.monotonic()
    ok = True
    rng = np.random.default_rng(7)
    weight_sets = [
        {n: 1.0 / n for n in range(1, 1001)},
        {n: 1.0 for n in range(1, 101)},
        {int(n): complex(c) for n, c in zip(
            rng.integers(1, 1000, size=40),
            rng.normal(size=40) + 1j * rng.normal(size=40))},
    ]
    checks = 0
    for model in rl.Model:
        for w in weight_sets:
            for m in (1, 2, 3):
                (rep,) = rl.hypercontractive_check(w, (m,), 5000, model, tables,
                                                   seed_base=100 * m)
                ok = ok and not rep.violated
                checks += 1
    elapsed = time.monotonic() - t0
    _verdict(capsys, 6, ok,
             f"{checks} moment/weight/model combinations, zero violations; "
             f"{elapsed:.1f}s")


def test_criterion_07_hoeffding_tails(tables, capsys):
    """Conditional tails of M_f(x) stay under the exponential bound."""
    t0 = time.monotonic()
    ok = True
    worst = 0.0
    for model in rl.Model:
        for seed in range(10):
            for rep in rl.hoeffding_tail_check(model, (1000, 10_000), 0.1, seed,
                                               10_000, tables):
                ok = ok and not rep.violated
                worst = max(worst, rep.estimate)
    elapsed = time.monotonic() - t0
    _verdict(capsys, 7, ok,
             f"10 seeds x 1e4 resamples x x in (1e3,1e4) x 2 models; "
             f"largest tail frequency {worst:.4f}; {elapsed:.1f}s")


def test_criterion_08_submartingales_and_doob(tables, capsys):
    """Conditional increments are >= -3 SE and Doob's inequalities hold."""
    t0 = time.monotonic()
    ok = True
    for model in rl.Model:
        for rep in rl.submartingale_z_check(model, 1000, 1365, 1375, 4000, 1,
                                            tables):
            ok = ok and not rep.violated
        rep = rl.y_submartingale_check(model, 100, 150, 1000, 1, tables)
        ok = ok and not rep.violated
        for spec in ("z", "y"):
            kw = (dict(trials=2000) if spec == "z"
                  else dict(trials=150, truncations=(50, 100, 200), T=40.0,
                            panels=300))
            for rep in rl.doob_check(spec, 40.0, model=model, tables=tables, **kw):
                ok = ok and not rep.violated
    elapsed = time.monotonic() - t0
    _verdict(capsys, 8, ok,
             f"z and y increments plus maximal/L2 forms, both models; "
             f"{elapsed:.1f}s")


def test_criterion_09_trend_report(tables, capsys):
    """100-trial sup-statistic survey at x_max = 1e6 is stable and on budget."""
    t0 = time.monotonic()
    grid = grid_points(0.1, 1_000_000)
    ok = grid.size > 0 and grid[0] == 3 and grid[-1] == 1_000_000

    scale = rl.SegmentScale(grid, 0.1)
    plan = rl.grid_plan(tables, grid)

    def sup(seed):
        F = rl.SampledFunction(rl.Model.RADEMACHER, seed, tables)
        return rl.run_trial(rl.TrialCarry(F, plan.stop - 1), plan, scale)[3]

    def survey(seed_base):
        return np.array([sup(seed_base + i) for i in range(100)])

    sup_a = survey(0)
    sup_b = survey(1000)
    # determinism: re-running one trial reproduces its statistic exactly
    ok = ok and sup(0) == sup_a[0]
    med_a, med_b = float(np.median(sup_a)), float(np.median(sup_b))
    ok = ok and math.isfinite(med_a) and math.isfinite(med_b)
    # SE of a median ~ 1.2533 sigma/sqrt(n)
    se = 1.2533 * math.hypot(float(np.std(sup_a, ddof=1)),
                             float(np.std(sup_b, ddof=1))) / math.sqrt(100)
    ok = ok and abs(med_a - med_b) <= 3.0 * se
    exceed6 = float(np.mean(np.concatenate((sup_a, sup_b)) > 6.0))
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 600
    _verdict(capsys, 9, ok,
             f"medians {med_a:.3f} vs {med_b:.3f} (3 SE = {3*se:.3f}), "
             f"exceedance at 6: {exceed6:.3f}, {elapsed:.1f}s (budget 600s)")


def test_criterion_10_cli_determinism(tmp_path, capsys, monkeypatch):
    """CLI output is byte-identical across reruns and seed-batch worker counts."""
    t0 = time.monotonic()
    outs = []
    for name in ("a", "b"):
        path = tmp_path / f"{name}.csv"
        rc = cli_main(["simulate", "--trials", "4", "--x-max", "3000",
                       "--model", "steinhaus", "--out", str(path)])
        outs.append((rc, path.read_bytes()))
    for workers in (1, 2):
        monkeypatch.setattr("rmflab.rmf.WORKERS", workers)
        path = tmp_path / f"sigma{workers}.csv"
        rc = cli_main(["euler", "--check", "sigma-event", "--trials", "200",
                       "--model", "steinhaus", "--out", str(path)])
        outs.append((rc, path.read_bytes()))
    ok = all(rc == 0 for rc, _ in outs)
    ok = ok and outs[0][1] == outs[1][1] and outs[2][1] == outs[3][1]
    jpath = tmp_path / "j.json"
    rc = cli_main(["moments", "--suite", "hypercontractive", "--trials",
                   "1000", "--x-max", "100", "--format", "json",
                   "--out", str(jpath)])
    ok = ok and rc == 0
    data = json.loads(jpath.read_text())
    ok = ok and isinstance(data, list) and len(data) == 3
    ok = ok and cli_main(["simulate", "--epsilon", "0.5"]) == 2
    elapsed = time.monotonic() - t0
    _verdict(capsys, 10, ok,
             f"simulate byte-identical over reruns, euler sigma-event over "
             f"1 and 2 seed-batch workers, JSON well-formed, usage errors exit 2; "
             f"{elapsed:.1f}s")
