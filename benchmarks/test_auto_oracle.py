"""``algo="auto"`` against the fastest forced algorithm, measured on the host.

Cases: triangle counting ``L .* (L @ L)`` (``L`` the strict lower triangle)
and the k-truss support product ``G .* (G @ G)`` on Graph500 R-MAT graphs of
scale 8-12, and one batched betweenness-centrality op (64 sources; its
forward levels use a complemented mask, so the host rule chooses push or
pull per level) at scale 10-11.  Every round times the op with
``algo="auto"`` and with each plannable algorithm forced (for BC: each one
that supports a complemented mask), interleaved so drift on a shared host
hits all of them alike; an algorithm's time is its median over the rounds.
A forced algorithm more than ``PRUNE`` times slower than the fastest one in
the warm-up round cannot be the oracle and is reported with its warm-up
time only.  The auto/oracle ratio — auto's median over the fastest forced
median — lands in ``benchmarks/results/`` (a ``.txt``/``.json`` pair per
case); at scale >= 10, where kernel work dominates the planner's fixed
cost, it must stay within ``BOUND``.
"""

import statistics
import time

import numpy as np
import pytest

from repro.apps import betweenness_centrality
from repro.core import masked_spgemm, supports_complement
from repro.engine import PLAN_CANDIDATES, plan
from repro.graphs import rmat
from repro.parallel import shutdown_pool
from repro.semiring import PLUS_PAIR

SCALES = (8, 9, 10, 11, 12)
BC_SCALES = (10, 11)
BC_BATCH = 64
ROUNDS = 7
PRUNE = 2.0
BOUND = 1.15
BOUND_FROM_SCALE = 10


def _operands(case, scale):
    g = rmat(scale, seed=1).pattern()
    if case == "tc":
        low = g.tril(-1)
        return low, low, low
    return g, g, g


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _spgemm_runs(a, b, m):
    return {
        algo: (lambda algo=algo: masked_spgemm(
            a, b, m, algo=algo, semiring=PLUS_PAIR))
        for algo in ("auto",) + PLAN_CANDIDATES
    }


def _bc_runs(g):
    sources = np.random.default_rng(1).choice(g.nrows, BC_BATCH, replace=False)
    algos = ("auto",) + tuple(a for a in PLAN_CANDIDATES if supports_complement(a))
    return {
        algo: (lambda algo=algo: betweenness_centrality(
            g, sources=sources, algo=algo))
        for algo in algos
    }


def _measure(runs):
    warm = {name: _timed(fn) for name, fn in runs.items()}
    best = min(t for name, t in warm.items() if name != "auto")
    live = [name for name, t in warm.items()
            if name == "auto" or t <= PRUNE * best]
    times = {name: [] for name in live}
    for _ in range(ROUNDS):
        for name in live:
            times[name].append(_timed(runs[name]))
    return {
        name: statistics.median(times[name]) if name in times else warm[name]
        for name in runs
    }, live


def _row(scale, runs, shape):
    med, live = _measure(runs)
    forced = {k: v for k, v in med.items() if k != "auto"}
    oracle = min(forced, key=forced.get)
    return {
        "scale": scale,
        "auto_plan": shape,
        "oracle": oracle,
        "median_s": med,
        "pruned": sorted(set(med) - set(live)),
        "ratio": med["auto"] / forced[oracle],
    }


@pytest.mark.parametrize("case", ["tc", "gg", "bc"])
def test_auto_within_bound_of_fastest_forced(benchmark, save_result, case):
    def run():
        rows = []
        for scale in BC_SCALES if case == "bc" else SCALES:
            if case == "bc":
                runs, shape = _bc_runs(rmat(scale, seed=1)), "per-level rule"
            else:
                a, b, m = _operands(case, scale)
                pl = plan(a, b, m)
                runs = _spgemm_runs(a, b, m)
                shape = f"{pl.algo}/{pl.backend}x{pl.threads}"
            rows.append(_row(scale, runs, shape))
        shutdown_pool()
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    what = {"tc": "L.*(L@L)", "gg": "G.*(G@G)",
            "bc": f"BC batch {BC_BATCH} (complemented forward levels)"}[case]
    title = (f"auto vs fastest forced algorithm, {what} on R-MAT "
             f"(median of {ROUNDS} interleaved rounds)")
    lines = [title,
             f"{'scale':>5} {'auto plan':<22} {'auto ms':>9} "
             f"{'oracle':<7} {'oracle ms':>9} {'ratio':>6}"]
    for r in rows:
        lines.append(
            f"{r['scale']:>5} {r['auto_plan']:<22} "
            f"{1e3 * r['median_s']['auto']:>9.2f} "
            f"{r['oracle']:<7} {1e3 * r['median_s'][r['oracle']]:>9.2f} "
            f"{r['ratio']:>6.2f}")
    save_result("\n".join(lines), data=rows, title=title)
    for r in rows:
        if r["scale"] >= BOUND_FROM_SCALE:
            assert r["ratio"] <= BOUND, r
