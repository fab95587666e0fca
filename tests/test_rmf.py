import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rmflab
from rmflab import (Model, SampledFunction, build_tables, large_prime_sum, partial_sum_matrix,
                    prime_value_matrix, value_matrix)
from rmflab.rmf import over_seeds


def test_rademacher_values_are_signs(tables_small):
    F = SampledFunction(Model.RADEMACHER, 0, tables_small)
    for p in (2, 3, 5, 7, 101, 997):
        assert F.prime_value(p) in (1, -1)


def test_steinhaus_values_on_unit_circle(tables_small):
    G = SampledFunction(Model.STEINHAUS, 0, tables_small)
    for p in (2, 3, 5, 101):
        assert abs(abs(G.prime_value(p)) - 1.0) < 1e-12


def test_same_seed_reproduces(tables_small):
    ps = tables_small.primes
    a = SampledFunction(Model.RADEMACHER, 42, tables_small)
    b = SampledFunction(Model.RADEMACHER, 42, tables_small)
    assert np.array_equal(a.prime_values(ps), b.prime_values(ps))
    c = SampledFunction(Model.RADEMACHER, 43, tables_small)
    assert not np.array_equal(a.prime_values(ps), c.prime_values(ps))


def test_counter_based_order_independence(tables_small):
    # Hashing (seed, p) directly means querying a subset of primes gives
    # the same values as querying all of them.
    ps = tables_small.primes
    full = prime_value_matrix(Model.STEINHAUS, [5], ps)[0]
    subset = prime_value_matrix(Model.STEINHAUS, [5], ps[100:110])[0]
    assert np.array_equal(full[100:110], subset)


_M64 = (1 << 64) - 1


def _fmix64(x: int) -> int:
    x ^= x >> 33
    x = x * 0xFF51AFD7ED558CCD & _M64
    x ^= x >> 33
    x = x * 0xC4CEB9FE1A85EC53 & _M64
    return x ^ x >> 33


def _reference_prime_value(model, seed: int, p: int):
    """f(p) from the counter hash, one (seed, prime) pair in Python integers."""
    u = _fmix64(_fmix64((p * 0x9E3779B97F4A7C15 + 0x85EBCA6B27D4EB4F) & _M64)
                ^ (seed & _M64))
    if model is Model.RADEMACHER:
        return 1 if u >> 63 else -1
    theta = float(u) * 2.0 ** -64 * (2.0 * math.pi)
    return complex(math.cos(theta), math.sin(theta))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(list(Model)),
       st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=4),
       st.integers(0, 1200), st.integers(1, 25))
def test_prime_value_matrix_matches_scalar_reference(tables_small, model, seeds, lo,
                                                     width):
    ps = tables_small.primes[lo:lo + width]
    got = prime_value_matrix(model, seeds, ps)
    assert got.shape == (len(seeds), ps.size)
    assert got.dtype == (np.int8 if model is Model.RADEMACHER else np.complex128)
    for i, s in enumerate(seeds):
        for j, p in enumerate(ps.tolist()):
            want = _reference_prime_value(model, s, p)
            if model is Model.RADEMACHER:
                assert got[i, j] == want
            else:
                # numpy's vectorized cos/sin may differ from libm's in the last bit.
                assert abs(got[i, j] - want) <= 4e-16


def test_steinhaus_prime_values_peak_below_twice_the_result(tables_small):
    tracemalloc.start()
    try:
        got = prime_value_matrix(Model.STEINHAUS, np.arange(300), tables_small.primes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * got.nbytes


def test_prime_value_rejects_composites(tables_small):
    F = SampledFunction(Model.RADEMACHER, 0, tables_small)
    with pytest.raises(ValueError):
        F.prime_value(4)
    with pytest.raises(ValueError):
        F.prime_value(1)


def test_rademacher_multiplicative_and_squarefree_supported(tables_small):
    F = SampledFunction(Model.RADEMACHER, 7, tables_small)
    assert F.value_at(1) == 1
    assert F.value_at(6) == F.prime_value(2) * F.prime_value(3)
    assert F.value_at(4) == 0
    assert F.value_at(12) == 0
    assert F.value_at(30) == (
        F.prime_value(2) * F.prime_value(3) * F.prime_value(5)
    )


def test_steinhaus_completely_multiplicative(tables_small):
    G = SampledFunction(Model.STEINHAUS, 7, tables_small)
    assert G.value_at(4) == pytest.approx(G.prime_value(2) ** 2)
    assert G.value_at(12) == pytest.approx(G.prime_value(2) ** 2 * G.prime_value(3))
    assert abs(G.value_at(9973 * 1)) == pytest.approx(1.0)


@pytest.mark.parametrize("model", list(Model))
def test_values_up_to_matches_pointwise(tables_small, model):
    F = SampledFunction(model, 3, tables_small)
    fv = F.values_up_to(300)
    assert fv[0] == 0
    for n in range(1, 301):
        assert fv[n] == pytest.approx(F.value_at(n))


@pytest.mark.parametrize("model", list(Model))
def test_prefix_sums(tables_small, model):
    F = SampledFunction(model, 9, tables_small)
    A = F.prefix_sums(50)
    assert A[0] == 0
    acc = 0
    for n in range(1, 51):
        acc += F.value_at(n)
        assert A[n] == pytest.approx(acc)


@pytest.mark.parametrize("model", list(Model))
def test_value_matrix_rows_match_single_sampler(tables_small, model):
    # A realization is one seed of the batch API, bit for bit.
    seeds, y = [0, 5, 17, 2**40], 2000
    ps = tables_small.primes[:tables_small.prime_count_upto(y)]
    M = value_matrix(model, seeds, y, tables_small)
    P = prime_value_matrix(model, seeds, ps)
    for i, s in enumerate(seeds):
        F = SampledFunction(model, s, tables_small)
        assert np.array_equal(M[i], F.values_up_to(y))
        assert np.array_equal(P[i], F.prime_values(ps))
        assert [F.prime_value(p) for p in ps.tolist()] == P[i].tolist()
        assert [F.value_at(n) for n in range(1, y + 1)] == M[i, 1:].tolist()


def _hashed_primes(monkeypatch):
    """Record the primes of every prime-value hash made from here on."""
    seen = []

    def spy(model, seeds, primes):
        seen.append(np.asarray(primes).tolist())
        return prime_value_matrix(model, seeds, primes)

    monkeypatch.setattr("rmflab.rmf.prime_value_matrix", spy)
    return seen


@pytest.mark.parametrize("model", list(Model))
def test_building_a_realization_hashes_no_prime(tables_small, model, monkeypatch):
    seen = _hashed_primes(monkeypatch)
    F = SampledFunction(model, 3, tables_small)
    assert seen == []
    F.prime_value(97)
    assert seen == [[97]]


@pytest.mark.parametrize("model", list(Model))
def test_large_prime_sum_hashes_only_the_primes_it_reads(model, monkeypatch):
    # The primes <= sqrt(1000) are sieved, the primes in (sqrt(1000), 1000]
    # multiply A_f(1000 // p): each prime <= 1000 is hashed once, none above.
    tables = build_tables(100_000)
    seen = _hashed_primes(monkeypatch)
    large_prime_sum(SampledFunction(model, 5, tables), 1000)
    assert sorted(p for ps in seen for p in ps) == tables.primes_in(1, 1000).tolist()


def test_partial_sum_matrix(tables_small):
    seeds = [0, 1, 2]
    A = partial_sum_matrix(Model.RADEMACHER, seeds, 100, tables_small)
    for i, s in enumerate(seeds):
        F = SampledFunction(Model.RADEMACHER, s, tables_small)
        assert A[i] == F.prefix_sums(100)[100]


def test_prime_values_look_balanced(tables_small):
    # Crude uniformity sanity check on the hash, not a statistical test.
    ps = tables_small.primes
    F = SampledFunction(Model.RADEMACHER, 123, tables_small)
    vals = F.prime_values(ps).astype(np.float64)
    n = len(vals)
    assert abs(vals.mean()) < 4.0 / math.sqrt(n)
    G = SampledFunction(Model.STEINHAUS, 123, tables_small)
    assert abs(np.mean(G.prime_values(ps))) < 4.0 / math.sqrt(n)


@pytest.mark.parametrize("mask, want", [(1, "1 1"), (2, "2 2"), (16, "16 2")])
def test_seed_batch_workers_are_the_affinity_mask_up_to_two(mask, want):
    # Computed once at import, so each mask needs a fresh interpreter.
    code = (f"import os; os.sched_getaffinity = lambda pid: set(range({mask})); "
            "from rmflab import rmf; print(len(os.sched_getaffinity(0)), rmf.WORKERS)")
    env = {**os.environ, "PYTHONPATH": str(Path(rmflab.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.split() == want.split()


def test_over_seeds_fills_rows_batch_by_batch(monkeypatch):
    # 7 seeds at 3 a batch: the batches are ranges, the rows land in order.
    monkeypatch.setattr("rmflab.rmf.WORKERS", 1)
    monkeypatch.setattr("rmflab.rmf.BATCH_CELLS", 30)
    batches = []

    def rows(batch):
        batches.append(batch)
        return np.array([[s, -s] for s in batch], dtype=np.int16)

    out = over_seeds(rows, range(5, 12), 10)
    assert batches == [range(5, 8), range(8, 11), range(11, 12)]
    assert out.dtype == np.int16 and out.tolist() == [[s, -s] for s in range(5, 12)]
    with pytest.raises(ValueError, match="at least one seed"):
        over_seeds(rows, range(0), 10)
    # Two workers share the budget: 30 cells give each batch one seed.
    # With room to spare, 7 seeds still split into one batch per worker.
    monkeypatch.setattr("rmflab.rmf.WORKERS", 2)
    for cells, want in ((30, [range(s, s + 1) for s in range(5, 12)]),
                        (1000, [range(5, 9), range(9, 12)])):
        monkeypatch.setattr("rmflab.rmf.BATCH_CELLS", cells)
        batches.clear()
        out = over_seeds(rows, range(5, 12), 10)
        assert sorted(batches, key=lambda b: b.start) == want
        assert out.tolist() == [[s, -s] for s in range(5, 12)]


def test_over_seeds_writes_rows_in_seed_order_when_a_later_batch_finishes_first(
        monkeypatch):
    monkeypatch.setattr("rmflab.rmf.WORKERS", 2)
    monkeypatch.setattr("rmflab.rmf.BATCH_CELLS", 60)
    second_done = threading.Event()
    finished = []

    def rows(batch):
        if batch.start == 0:
            # Holds the first batch until the second one has returned.
            assert second_done.wait(timeout=10)
        finished.append(batch.start)
        if batch.start == 3:
            second_done.set()
        return np.array([[s] for s in batch])

    out = over_seeds(rows, range(9), 10)
    assert finished[0] == 3 and sorted(finished) == [0, 3, 6]
    assert out[:, 0].tolist() == list(range(9))


def test_over_seeds_raises_after_the_running_batches_and_starts_no_more(monkeypatch):
    # One seed a batch on two workers: batch 5 fails while the other worker
    # may be in batch 6, which finishes; no later batch starts.
    monkeypatch.setattr("rmflab.rmf.WORKERS", 2)
    monkeypatch.setattr("rmflab.rmf.BATCH_CELLS", 20)
    started, finished = [], []

    def rows(batch):
        started.append(batch.start)
        if batch.start == 5:
            raise KeyError(5)
        if batch.start > 5:
            time.sleep(0.05)  # still running when batch 5 fails
        finished.append(batch.start)
        return np.array([[s] for s in batch])

    with pytest.raises(KeyError):
        over_seeds(rows, range(100), 10)
    assert sorted(started)[:6] == list(range(6)) and max(started) <= 6
    assert sorted(finished) == [s for s in sorted(started) if s != 5]


def test_over_seeds_interrupted_while_it_waits_starts_no_more_batches():
    # Ctrl-C reaches the caller, not the workers: were the batches left to
    # run, the process would sit through all of them before it could exit.
    code = (
        "import os, signal, time\n"
        "import numpy as np\n"
        "from rmflab import rmf\n"
        "rmf.WORKERS, rmf.BATCH_CELLS = 2, 2\n"
        "started = []\n"
        "def rows(batch):\n"
        "    started.append(batch.start)\n"
        "    if batch.start == 3:\n"
        "        os.kill(os.getpid(), signal.SIGINT)\n"
        "    time.sleep(0.05)\n"
        "    return np.array([[s] for s in batch])\n"
        "try:\n"
        "    rmf.over_seeds(rows, range(1000), 1)\n"
        "except KeyboardInterrupt:\n"
        "    time.sleep(0.2)\n"
        "    assert max(started) < 10, started\n"
        "else:\n"
        "    raise AssertionError('not interrupted')\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(rmflab.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=20)


def test_over_seeds_runs_every_call_on_one_kept_pool(monkeypatch):
    # Fresh threads for each call took malloc arenas in whatever order the
    # old ones exited, and the peak RSS of a run varied with it.
    monkeypatch.setattr("rmflab.rmf._POOL", None)
    monkeypatch.setattr("rmflab.rmf.WORKERS", 2)
    monkeypatch.setattr("rmflab.rmf.BATCH_CELLS", 20)
    ran_on = []

    def rows(batch):
        time.sleep(0.01)  # keeps both workers busy
        ran_on.append(threading.current_thread())
        return np.array([[s] for s in batch])

    over_seeds(rows, range(8), 10)
    first = set(ran_on)
    over_seeds(rows, range(8), 10)
    assert len(set(ran_on)) == 2 == len(first)
    assert threading.current_thread() not in first


def test_over_seeds_works_in_a_forked_child():
    # The child has none of the parent's pool threads, so it makes its own.
    code = (
        "import os, signal\n"
        "import numpy as np\n"
        "from rmflab import rmf\n"
        "rmf.WORKERS, rmf.BATCH_CELLS = 2, 2\n"
        "def call():\n"
        "    return rmf.over_seeds(lambda b: np.array([[-s] for s in b]), range(4), 1)\n"
        "assert call()[:, 0].tolist() == [0, -1, -2, -3] and rmf._POOL is not None\n"
        "pid = os.fork()\n"
        "if pid == 0:\n"
        "    signal.alarm(30)  # a child waiting on threads it lacks ends\n"
        "    os._exit(0 if call()[:, 0].tolist() == [0, -1, -2, -3] else 1)\n"
        "assert os.waitpid(pid, 0)[1] == 0\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(rmflab.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_over_seeds_under_concurrent_callers_and_short_switches(monkeypatch):
    # Four callers at once on a fresh three-thread pool, more threads than
    # cores, and a switch every microsecond: one pool serves them all and
    # every row lands, so neither the pool nor a result array was made twice.
    monkeypatch.setattr("rmflab.rmf._POOL", None)
    monkeypatch.setattr("rmflab.rmf.WORKERS", 3)
    monkeypatch.setattr("rmflab.rmf.BATCH_CELLS", 30)
    ran_on = set()
    got = {}

    def rows(batch):
        ran_on.add(threading.current_thread())
        return np.array([[s, 2 * s] for s in batch])

    def call(k):
        got[k] = over_seeds(rows, range(k, k + 300), 10)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=call, args=(k,)) for k in range(4)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    for k in range(4):
        assert got[k].tolist() == [[s, 2 * s] for s in range(k, k + 300)]
    assert len(ran_on) == 3


def test_over_seeds_frees_each_batch_on_the_thread_that_made_it(monkeypatch):
    # A batch's rows freed later on the calling thread, while its worker had
    # moved on, left holes in the worker's arena where they happened to fall.
    monkeypatch.setattr("rmflab.rmf.WORKERS", 2)
    monkeypatch.setattr("rmflab.rmf.BATCH_CELLS", 40)
    made, freed = {}, {}

    def rows(batch):
        out = np.array([[s] for s in batch])
        made[batch.start] = threading.get_ident()
        weakref.finalize(out, lambda: freed.setdefault(batch.start, threading.get_ident()))
        return out

    out = over_seeds(rows, range(12), 10)
    assert out[:, 0].tolist() == list(range(12))
    assert sorted(made) == [0, 2, 4, 6, 8, 10]
    assert freed == made and threading.get_ident() not in made.values()
