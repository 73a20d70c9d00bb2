"""Tests for the execution engine (:mod:`repro.engine`).

Covers plan construction and validation, the host profile's measured
pull/push rule and worker ceiling, the Figure-7 regime-aware auto selection
of the Haswell cost model, property-style cross-checks of every plan shape
the Planner can emit against the reference implementation, complemented-
mask safety, and counter threading through banded / partitioned /
panelled execution.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.baselines import scipy_masked_spgemm
from repro.core import (
    ALL_ALGOS,
    classify_rows,
    masked_spgemm,
    masked_spgemm_hybrid,
    supports_complement,
)
from repro.core.reference import masked_spgemm_reference
from repro.engine import (
    PLAN_CANDIDATES,
    PULL_RULE_RATIO,
    ExecutionPlan,
    Planner,
    RowBand,
    execute,
    plan,
    plan_and_execute,
)
from repro.graphs import erdos_renyi, rmat
from repro.machine import HASWELL, KNL, MACHINE_ENV, OpCounter, host_cpus
from repro.parallel import (
    parallel_masked_spgemm,
    pool_size,
    process_backend_available,
    shutdown_pool,
)
from repro.semiring import PLUS_PAIR
from repro.sparse import CSR, read_mtx

from .conftest import assert_csr_equal, random_csr

DATA = Path(__file__).parent.parent / "data"


@pytest.fixture
def triple():
    a = random_csr(40, 30, 4, seed=1)
    b = random_csr(30, 50, 4, seed=2)
    m = random_csr(40, 50, 6, seed=3)
    return a, b, m


# ----------------------------------------------------------------------
# plan construction
# ----------------------------------------------------------------------
class TestPlanner:
    def test_auto_plan_covers_all_rows(self, triple):
        a, b, m = triple
        pl = plan(a, b, m, machine="haswell")
        assert pl.mode == "auto"
        covered = np.concatenate([band.rows for band in pl.bands])
        assert sorted(covered.tolist()) == list(range(a.nrows))
        pl.validate()  # internal consistency

    def test_forced_plan_single_band(self, triple):
        a, b, m = triple
        pl = plan(a, b, m, algo="hash", phases=2, threads=3, partition="cyclic")
        assert pl.mode == "forced"
        assert pl.algo == "hash"
        assert pl.phases == 2 and pl.threads == 3 and pl.partition == "cyclic"
        assert len(pl.bands) == 1 and pl.bands[0].is_full(a.nrows)

    def test_forced_unknown_algo(self, triple):
        a, b, m = triple
        with pytest.raises(ValueError, match="unknown algorithm"):
            plan(a, b, m, algo="quantum")

    def test_forced_complement_unsupported(self, triple):
        a, b, m = triple
        for algo in ("inner", "mca"):
            with pytest.raises(ValueError, match="complement"):
                plan(a, b, m, algo=algo, complement=True)

    def test_shape_validation(self):
        a = random_csr(5, 6, 2, seed=1)
        b = random_csr(7, 4, 2, seed=2)
        m = random_csr(5, 4, 2, seed=3)
        with pytest.raises(ValueError, match="inner dimensions"):
            plan(a, b, m)
        b2 = random_csr(6, 4, 2, seed=4)
        with pytest.raises(ValueError, match="mask shape"):
            plan(a, b2, random_csr(4, 4, 2, seed=5))

    def test_explain_reports_choices(self, triple):
        a, b, m = triple
        text = plan(a, b, m, machine="haswell").explain()
        assert "algo=" in text
        assert "phases=" in text
        assert "partition" in text
        assert HASWELL.name in text

    def test_as_dict_jsonable(self, triple):
        a, b, m = triple
        d = plan(a, b, m, machine="haswell", memory_budget_bytes=10_000).as_dict()
        json.dumps(d)  # must not raise
        assert d["machine"] == "haswell"
        assert sum(band["nrows"] for band in d["bands"]) == a.nrows

    def test_machine_changes_estimates(self, triple):
        a, b, m = triple
        ph = plan(a, b, m, machine=HASWELL)
        pk = plan(a, b, m, machine=KNL)
        assert ph.machine == "haswell" and pk.machine == "knl"
        assert ph.estimates != pk.estimates

    def test_ratio_banding_matches_classify_rows(self, triple):
        a, b, m = triple
        pl = Planner(HASWELL, banding="ratio").plan(a, b, m)
        classes = classify_rows(a, b, m, HASWELL)
        got = {band.algo: set(band.rows.tolist()) for band in pl.bands}
        want = {algo: set(rows.tolist()) for algo, rows in classes.items()}
        assert got == want

    def test_banding_none_single_band(self, triple):
        a, b, m = triple
        pl = Planner(HASWELL, banding="none").plan(a, b, m)
        assert len(pl.bands) == 1 and pl.bands[0].is_full(a.nrows)

    def test_memory_budget_turns_on_panels(self):
        a = random_csr(60, 60, 6, seed=11)
        b = random_csr(60, 200, 6, seed=12)
        m = random_csr(60, 200, 8, seed=13)
        tight = plan(a, b, m, memory_budget_bytes=2_000)
        assert tight.panel_width is not None and 0 < tight.panel_width < b.ncols
        roomy = plan(a, b, m, memory_budget_bytes=1 << 30)
        assert roomy.panel_width is None

    def test_invalid_inputs(self, triple):
        a, b, m = triple
        with pytest.raises(ValueError, match="banding"):
            Planner(HASWELL, banding="vibes")
        with pytest.raises(ValueError, match="phases"):
            plan(a, b, m, phases=3)
        with pytest.raises(ValueError, match="memory_budget_bytes"):
            plan(a, b, m, memory_budget_bytes=0)

    def test_plan_validate_catches_broken_plans(self, triple):
        a, b, m = triple
        rows = np.arange(a.nrows, dtype=np.int64)
        with pytest.raises(ValueError, match="unknown algorithm"):
            ExecutionPlan((a.nrows, b.ncols),
                          [RowBand(rows, "quantum")]).validate()
        with pytest.raises(ValueError, match="exactly once"):
            ExecutionPlan((a.nrows, b.ncols),
                          [RowBand(rows, "msa"), RowBand(rows[:1], "hash")]).validate()
        with pytest.raises(ValueError, match="complement"):
            ExecutionPlan((a.nrows, b.ncols), [RowBand(rows, "mca")],
                          complement=True).validate()
        with pytest.raises(ValueError, match="partition"):
            ExecutionPlan((a.nrows, b.ncols), [RowBand(rows, "msa")],
                          partition="magic").validate()

    def test_complement_plans_never_use_inner_or_mca(self):
        """The regimes that would pick inner/mca must fall back elsewhere
        when the mask is complemented (neither supports complement)."""
        n = 128
        dense = erdos_renyi(n, n, 16, seed=1)
        sparse = erdos_renyi(n, n, 1, seed=2)
        cases = [
            (dense, dense, sparse),   # pull regime -> would pick inner
            (sparse, sparse, dense),  # push-compact regime -> would pick mca
        ]
        for banding in ("cost", "ratio", "none"):
            planner = Planner(HASWELL, banding=banding)
            for a, b, m in cases:
                pl = planner.plan(a, b, m, complement=True)
                assert not set(pl.algos()) & {"inner", "mca"}, (banding, pl.algos())


# ----------------------------------------------------------------------
# the host profile: measured pull/push rule + CPU-capped workers
# ----------------------------------------------------------------------
def _one_per_row_mask(n, seed):
    rng = np.random.default_rng(seed)
    rows = np.arange(n, dtype=np.int64)
    return CSR.from_coo((n, n), rows, rng.integers(0, n, n), np.ones(n))


class TestHostRule:
    @pytest.fixture(autouse=True)
    def _default_machine(self, monkeypatch):
        monkeypatch.delenv(MACHINE_ENV, raising=False)

    @pytest.fixture(scope="class", autouse=True)
    def _pool_teardown(self):
        yield
        shutdown_pool()

    def test_default_machine_is_host_profile(self, triple):
        a, b, m = triple
        pl = plan(a, b, m)
        assert pl.machine == "host" and pl.mode == "rule"
        assert Planner().machine.cores == host_cpus()
        assert len(pl.bands) == 1 and pl.bands[0].is_full(a.nrows)
        assert pl.estimates == {}  # no cost model behind a rule plan

    def test_inner_on_one_entry_per_row_mask(self):
        g = erdos_renyi(512, 512, 16, seed=1)
        m = _one_per_row_mask(512, seed=2)
        assert plan(g, g, m).algo == "inner"
        got_c, want_c = OpCounter(), OpCounter()
        got = masked_spgemm(g, g, m, algo="auto", counter=got_c)
        want = masked_spgemm(g, g, m, algo="inner", counter=want_c)
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.data, want.data)
        assert got_c.as_dict() == want_c.as_dict()

    def test_msa_on_triangle_counting(self):
        low = rmat(10, seed=1).pattern().tril(-1)
        assert plan(low, low, low).algo == "msa"

    @pytest.mark.parametrize("mask_degree", [1, 16])
    def test_msa_for_any_complemented_mask(self, mask_degree):
        g = erdos_renyi(256, 256, 16, seed=3)
        m = (
            _one_per_row_mask(256, seed=4)
            if mask_degree == 1
            else erdos_renyi(256, 256, mask_degree, seed=4)
        )
        assert plan(g, g, m, complement=True).algo == "msa"

    def test_rule_threshold_is_the_pull_ratio(self):
        """On both sides of the boundary the choice is exactly
        ``inner`` iff ``PULL_RULE_RATIO * pulls < flops``."""
        g = erdos_renyi(256, 256, 8, seed=5)
        flops = int(g.row_nnz()[g.indices].sum())
        col_nnz = np.bincount(g.indices, minlength=g.ncols)
        rows = np.repeat(np.arange(g.nrows), g.row_nnz())
        wants = set()
        # a growing prefix of G's entries as the mask: pulls rise monotonically
        for k in (1, g.nnz // 8, g.nnz // 4, g.nnz // 3, g.nnz // 2, g.nnz):
            m = CSR.from_coo(g.shape, rows[:k], g.indices[:k], np.ones(k))
            pulls = int(col_nnz[g.indices[:k]].sum())
            want = "inner" if PULL_RULE_RATIO * pulls < flops else "msa"
            assert plan(g, g, m).algo == want, (k, pulls, flops)
            wants.add(want)
        assert wants == {"inner", "msa"}

    def test_explain_shows_rule_inputs(self):
        g = erdos_renyi(256, 256, 16, seed=6)
        m = _one_per_row_mask(256, seed=7)
        text = plan(g, g, m).explain()
        col_nnz = np.bincount(g.indices, minlength=g.ncols)
        pulls = int(col_nnz[m.indices].sum())
        flops = int(g.row_nnz()[g.indices].sum())
        assert "ExecutionPlan[rule]" in text and "on host" in text
        assert f"pulls={pulls}" in text and f"flops={flops}" in text
        assert "-> inner" in text and "pull regime" in text
        ctext = plan(g, g, m, complement=True).explain()
        assert "complemented mask" in ctext and "-> msa" in ctext

    def test_app_default_plans_within_host_cpus(self, monkeypatch):
        from repro.apps import (
            betweenness_centrality,
            ktruss,
            markov_clustering,
            multi_source_bfs,
            triangle_count,
        )

        plans = []
        real = Planner.plan

        def recording(self, *args, **kwargs):
            plans.append(real(self, *args, **kwargs))
            return plans[-1]

        monkeypatch.setattr(Planner, "plan", recording)
        big = rmat(12, seed=2)  # 4096 rows: Haswell would plan 8 workers
        mid = rmat(10, seed=2)
        triangle_count(big)
        ktruss(mid, 5)
        betweenness_centrality(mid, list(range(16)))
        multi_source_bfs(big, [0, 1, 2, 3])
        markov_clustering(erdos_renyi(64, 64, 4, seed=8), max_iters=3)
        assert plans
        assert max(pl.threads for pl in plans) <= host_cpus()
        assert {pl.machine for pl in plans} == {"host"}

    def test_forced_process_threads_queue_on_capped_pool(self):
        if not process_backend_available():
            pytest.skip("no shared-memory support")
        g = rmat(9, seed=4)
        threads = host_cpus() + 6
        pl = plan(g, g, g, threads=threads, backend="process")
        assert pl.threads == threads  # partitions stay as forced ...
        got = execute(pl, g, g, g)
        assert pool_size() <= host_cpus()  # ... and queue on the pool
        want = parallel_masked_spgemm(g, g, g, algo=pl.algo, threads=1,
                                      backend="serial")
        assert_csr_equal(got, want)

    @pytest.mark.parametrize("complement", [False, True])
    def test_auto_matches_reference_kernels_bitwise(self, complement,
                                                    square_problem):
        """``auto`` on the host profile runs the rule's kernel unchanged:
        values and every counter equal a forced call of that kernel, and
        values plus the tier-independent counters equal the reference."""
        a, b, m = square_problem
        chosen = plan(a, b, m, complement=complement).algo
        got_c, fast_c, ref_c = OpCounter(), OpCounter(), OpCounter()
        got = masked_spgemm(a, b, m, algo="auto", complement=complement,
                            semiring=PLUS_PAIR, counter=got_c)
        fast = masked_spgemm(a, b, m, algo=chosen, complement=complement,
                             semiring=PLUS_PAIR, counter=fast_c)
        ref = masked_spgemm_reference(a, b, m, algo=chosen,
                                      complement=complement,
                                      semiring=PLUS_PAIR, counter=ref_c)
        for want in (fast, ref):
            want = want.sort_indices()
            out = got.sort_indices()
            assert np.array_equal(out.indptr, want.indptr)
            assert np.array_equal(out.indices, want.indices)
            assert np.array_equal(out.data, want.data)
        assert got_c.as_dict() == fast_c.as_dict()
        assert (got_c.flops, got_c.output_nnz) == (ref_c.flops, ref_c.output_nnz)


# ----------------------------------------------------------------------
# Figure-7 auto selection (the Haswell cost model)
# ----------------------------------------------------------------------
class TestAutoSelection:
    def test_density_grid_selects_multiple_algorithms(self):
        """Paper Fig. 7 via the planner: sweeping input/mask density must
        produce at least three distinct algorithm choices."""
        n = 512
        degrees = (1, 4, 16, 64)
        chosen = set()
        for d_in in degrees:
            a = erdos_renyi(n, n, d_in, seed=d_in)
            b = erdos_renyi(n, n, d_in, seed=d_in + 1000)
            for d_m in degrees:
                m = erdos_renyi(n, n, d_m, seed=d_m + 2000)
                per_algo = plan(a, b, m, machine="haswell").nrows_per_algo()
                chosen.add(max(per_algo, key=per_algo.get))
        assert len(chosen) >= 3, chosen
        assert chosen <= set(PLAN_CANDIDATES)

    def test_grid_execution_matches_reference_bitwise(self):
        """Every auto plan on a small density grid produces the same
        pattern AND the same values as the reference implementation
        (PLUS_PAIR values are whole counts, so equality is exact)."""
        n = 96
        for d_in, d_m in [(1, 1), (1, 16), (8, 8), (24, 2), (2, 24)]:
            a = erdos_renyi(n, n, d_in, seed=d_in)
            b = erdos_renyi(n, n, d_in, seed=d_in + 50)
            m = erdos_renyi(n, n, d_m, seed=d_m + 99)
            pl = plan(a, b, m, machine="haswell")
            got = execute(pl, a, b, m, semiring=PLUS_PAIR).sort_indices()
            want = masked_spgemm_reference(
                a, b, m, algo="msa", semiring=PLUS_PAIR
            ).sort_indices()
            assert got.shape == want.shape
            assert np.array_equal(got.indptr, want.indptr), (d_in, d_m)
            assert np.array_equal(got.indices, want.indices), (d_in, d_m)
            assert np.array_equal(got.data, want.data), (d_in, d_m)

    def test_auto_entry_point(self, triple):
        a, b, m = triple
        want = scipy_masked_spgemm(a, b, m)
        assert_csr_equal(masked_spgemm(a, b, m, algo="auto"), want)
        wantc = scipy_masked_spgemm(a, b, m, complement=True)
        assert_csr_equal(
            masked_spgemm(a, b, m, algo="auto", complement=True), wantc
        )

    def test_auto_respects_forced_phases(self, triple):
        a, b, m = triple
        pl = plan(a, b, m, phases=2)
        assert pl.phases == 2
        assert_csr_equal(
            execute(pl, a, b, m), scipy_masked_spgemm(a, b, m)
        )


# ----------------------------------------------------------------------
# property-style cross-checks: every plan shape vs the reference
# ----------------------------------------------------------------------
def _inputs():
    """karate + small ER / R-MAT problems (square: a @ a masked by a)."""
    karate = read_mtx(DATA / "karate.mtx")
    er = erdos_renyi(48, 48, 3, seed=7, values="uniform")
    rm = rmat(6, seed=3)  # 64 vertices, Graph500 parameters
    return [("karate", karate), ("er", er), ("rmat", rm)]


@pytest.fixture(scope="module", params=_inputs(), ids=lambda p: p[0])
def square_problem(request):
    g = request.param[1]
    return g, g, g


class TestPlanCrossCheck:
    """Every plan the Planner can emit must match the reference kernels."""

    @pytest.mark.parametrize("complement", [False, True])
    @pytest.mark.parametrize("algo", ALL_ALGOS)
    def test_forced_algos(self, algo, complement, square_problem):
        a, b, m = square_problem
        if complement and not supports_complement(algo):
            pytest.skip(f"{algo} has no complement support")
        pl = plan(a, b, m, algo=algo, complement=complement)
        got = execute(pl, a, b, m)
        want = masked_spgemm_reference(a, b, m, algo="msa", complement=complement)
        assert_csr_equal(got, want, msg=f"algo={algo} complement={complement}")

    @pytest.mark.parametrize("phases", [1, 2])
    @pytest.mark.parametrize("banding", ["cost", "ratio", "none"])
    def test_auto_bandings(self, banding, phases, square_problem):
        a, b, m = square_problem
        pl = Planner(HASWELL, banding=banding).plan(a, b, m, phases=phases)
        got = execute(pl, a, b, m)
        want = masked_spgemm_reference(a, b, m, algo="msa")
        assert_csr_equal(got, want, msg=f"banding={banding} phases={phases}")

    @pytest.mark.parametrize("partition", ["block", "cyclic", "balanced"])
    def test_partitioned(self, partition, square_problem):
        a, b, m = square_problem
        pl = plan(a, b, m, threads=3, partition=partition)
        got = execute(pl, a, b, m)
        want = masked_spgemm_reference(a, b, m, algo="msa")
        assert_csr_equal(got, want, msg=f"partition={partition}")

    @pytest.mark.parametrize("panel", [5, 17])
    def test_panelled(self, panel, square_problem):
        a, b, m = square_problem
        for complement in (False, True):
            pl = plan(a, b, m, panel_width=panel, complement=complement)
            got = execute(pl, a, b, m)
            want = masked_spgemm_reference(a, b, m, algo="msa",
                                           complement=complement)
            assert_csr_equal(got, want, msg=f"panel={panel} c={complement}")

    def test_threads_times_panels_times_bands(self, square_problem):
        """The maximally-composed plan: banded + partitioned + panelled."""
        a, b, m = square_problem
        pl = plan(a, b, m, threads=2, panel_width=11)
        got = execute(pl, a, b, m)
        assert_csr_equal(got, masked_spgemm_reference(a, b, m, algo="msa"))

    def test_machines(self, square_problem):
        a, b, m = square_problem
        for machine in (HASWELL, KNL):
            got = plan_and_execute(a, b, m, machine=machine)
            assert_csr_equal(got, masked_spgemm_reference(a, b, m, algo="msa"))

    def test_semirings(self, square_problem):
        a, b, m = square_problem
        got = plan_and_execute(a, b, m, semiring=PLUS_PAIR)
        want = masked_spgemm_reference(a, b, m, algo="msa", semiring=PLUS_PAIR)
        assert_csr_equal(got, want)


# ----------------------------------------------------------------------
# hybrid complement (satellite)
# ----------------------------------------------------------------------
class TestHybridComplement:
    def test_matches_oracle(self, triple):
        a, b, m = triple
        got = masked_spgemm_hybrid(a, b, m, complement=True)
        assert_csr_equal(got, scipy_masked_spgemm(a, b, m, complement=True))

    def test_classify_rows_complement_avoids_inner_mca(self):
        n = 128
        dense = erdos_renyi(n, n, 16, seed=1)
        sparse = erdos_renyi(n, n, 1, seed=2)
        # plain: these regimes route to inner / mca respectively
        assert "inner" in classify_rows(dense, dense, sparse)
        assert "mca" in classify_rows(sparse, sparse, dense)
        # complemented: they must not
        for a, b, m in [(dense, dense, sparse), (sparse, sparse, dense)]:
            classes = classify_rows(a, b, m, complement=True)
            assert not set(classes) & {"inner", "mca"}
            covered = np.concatenate(list(classes.values()))
            assert sorted(covered.tolist()) == list(range(n))

    def test_hybrid_complement_on_pull_regime(self):
        """Inputs whose plain-mask classification picks inner must still be
        complement-correct (routed away from inner)."""
        n = 96
        a = erdos_renyi(n, n, 12, seed=5)
        m = erdos_renyi(n, n, 1, seed=6)
        got = masked_spgemm_hybrid(a, a, m, complement=True)
        assert_csr_equal(got, scipy_masked_spgemm(a, a, m, complement=True))


# ----------------------------------------------------------------------
# counter threading
# ----------------------------------------------------------------------
class TestCounterThreading:
    def test_partitioned_counter_equals_serial(self, triple):
        a, b, m = triple
        serial, parallel = OpCounter(), OpCounter()
        execute(plan(a, b, m, algo="msa", threads=1), a, b, m, counter=serial)
        execute(plan(a, b, m, algo="msa", threads=4), a, b, m, counter=parallel)
        assert parallel.as_dict() == serial.as_dict()

    def test_banded_counter_counts_all_bands(self, triple):
        a, b, m = triple
        c = OpCounter()
        out = plan_and_execute(a, b, m, counter=c)
        assert c.output_nnz == out.nnz
        assert c.flops > 0

    def test_panelled_counter(self, triple):
        a, b, m = triple
        c = OpCounter()
        out = execute(plan(a, b, m, algo="hash", panel_width=9), a, b, m, counter=c)
        assert c.output_nnz == out.nnz

    def test_two_phase_symbolic_charged(self, triple):
        a, b, m = triple
        c = OpCounter()
        execute(plan(a, b, m, algo="msa", phases=2), a, b, m, counter=c)
        assert c.symbolic_flops > 0


# ----------------------------------------------------------------------
# the acceptance workloads: TC, k-truss, BC plans are explainable
# ----------------------------------------------------------------------
class TestWorkloadPlans:
    def _assert_explains(self, pl):
        text = pl.explain()
        assert "algo=" in text and "phases=" in text and "partition" in text
        return text

    def test_triangle_counting_plan(self):
        g = read_mtx(DATA / "karate.mtx")
        low = g.pattern().tril(-1)
        pl = plan(low, low, low)
        self._assert_explains(pl)
        got = execute(pl, low, low, low, semiring=PLUS_PAIR)
        from repro.sparse import reduce_sum

        assert int(round(reduce_sum(got))) == 45  # karate has 45 triangles

    def test_ktruss_plan(self):
        """k-truss support step: S = A .* (A @ A) on the adjacency pattern."""
        g = erdos_renyi(64, 64, 6, seed=9).pattern()
        pl = plan(g, g, g)
        self._assert_explains(pl)
        got = execute(pl, g, g, g, semiring=PLUS_PAIR)
        want = masked_spgemm_reference(g, g, g, algo="msa", semiring=PLUS_PAIR)
        assert_csr_equal(got, want)

    def test_bc_plan_complemented(self):
        g = erdos_renyi(80, 80, 4, seed=10).pattern()
        s = 8
        rows = np.arange(s, dtype=np.int64)
        frontier = CSR.from_coo((s, 80), rows, rows * 3, np.ones(s))
        pl = plan(frontier, g, frontier, complement=True)
        text = self._assert_explains(pl)
        assert "complemented" in text
        assert not set(pl.algos()) & {"inner", "mca"}

    def test_apps_run_on_auto_default(self):
        from repro.apps import triangle_count

        g = read_mtx(DATA / "karate.mtx")
        assert triangle_count(g) == 45  # default algo is now "auto"
