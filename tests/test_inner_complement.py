"""Inner under a complemented mask: pulling over ``!M``.

The fast ``inner`` kernel enumerates, per row block, the columns outside
``M[i, :]`` of every row with A entries and pulls ``B[:, j]`` for each
through a dense position map of the block's A rows.  Every cell
accumulates in ascending ``k``, the order MSA adds the same products in,
so complemented ``inner`` must equal complemented MSA bit for bit, the
reference kernel in values and the full :class:`OpCounter`, and the scipy
oracle — on every semiring, backend, shard grid and column panelling.

The host rule (``3 * pulls < flops``) now weighs the pull side of a
complemented call too: BC's forward levels over a large visited set go to
``inner``, its first level and TC's plain masks stay on MSA.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.apps import betweenness_centrality
from repro.baselines import scipy_masked_spgemm
from repro.core import masked_spgemm, masked_spgemm_reference
from repro.core.kernels import inner_kernel, masked_spgemm_inner_fast
from repro.engine import execute, plan
from repro.graphs import erdos_renyi, rmat
from repro.machine import MACHINE_ENV, OpCounter
from repro.parallel import active_segments, shutdown_pool
from repro.semiring import MIN_PLUS, PLUS_PAIR, PLUS_TIMES
from repro.sparse import CSR, read_mtx

from .conftest import assert_csr_equal

DATA = Path(__file__).parent.parent / "data"
SEMIRINGS = [PLUS_TIMES, PLUS_PAIR, MIN_PLUS]
BACKENDS = ("serial", "thread", "process")


def _inputs():
    karate = read_mtx(DATA / "karate.mtx")
    er = erdos_renyi(60, 60, 4, seed=5, values="uniform")
    rm = rmat(7, seed=3)
    return [("karate", karate), ("er", er), ("rmat", rm)]


def _masks(g):
    """Masks of a few densities: sparse random, the graph, a visited set."""
    rng = np.random.default_rng(g.nrows)
    n = g.nrows
    k = 2 * n
    sparse = CSR.from_coo(g.shape, rng.integers(0, n, k), rng.integers(0, n, k))
    g2 = masked_spgemm(g, g, g, algo="msa", complement=True)  # 2-hop, off G
    visited = CSR.from_coo(
        g.shape,
        np.concatenate([g.to_coo()[0], g2.to_coo()[0]]),
        np.concatenate([g.indices, g2.indices]),
    ).pattern()
    return [("sparse", sparse), ("graph", g), ("visited", visited)]


@pytest.fixture(scope="module", params=_inputs(), ids=lambda p: p[0])
def graph(request):
    return request.param[1]


def _bitwise(got: CSR, want: CSR, label=""):
    assert got.shape == want.shape, label
    assert np.array_equal(got.indptr, want.indptr), label
    assert np.array_equal(got.indices, want.indices), label
    assert got.data.tobytes() == want.data.tobytes(), label


def _run(a, b, m, algo, impl="fast", semiring=PLUS_TIMES, **kw):
    counter = OpCounter()
    c = masked_spgemm(a, b, m, algo=algo, impl=impl, complement=True,
                      semiring=semiring, counter=counter, **kw)
    return c, counter


# ----------------------------------------------------------------------
# fast kernel vs reference, complemented MSA and the scipy oracle
# ----------------------------------------------------------------------
class TestEquivalence:
    @pytest.mark.parametrize("semiring", SEMIRINGS, ids=lambda s: s.name)
    def test_fast_matches_reference_and_msa(self, graph, semiring):
        for name, m in _masks(graph):
            fast, fc = _run(graph, graph, m, "inner", semiring=semiring)
            ref, rc = _run(graph, graph, m, "inner", "reference", semiring)
            msa, _ = _run(graph, graph, m, "msa", semiring=semiring)
            _bitwise(fast, ref, f"ref/{name}")
            assert fc == rc, name
            _bitwise(fast, msa, f"msa/{name}")

    def test_matches_scipy_oracle(self, graph):
        for name, m in _masks(graph):
            got, _ = _run(graph, graph, m, "inner")
            assert_csr_equal(
                got, scipy_masked_spgemm(graph, graph, m, complement=True),
                msg=name,
            )

    def test_rectangular_operands(self):
        a = erdos_renyi(30, 20, 3, seed=1, values="uniform")
        b = erdos_renyi(20, 45, 3, seed=2, values="uniform")
        m = erdos_renyi(30, 45, 5, seed=3)
        fast, fc = _run(a, b, m, "inner")
        ref, rc = _run(a, b, m, "inner", "reference")
        _bitwise(fast, ref)
        assert fc == rc
        _bitwise(fast, _run(a, b, m, "msa")[0])

    def test_plain_mask_unchanged(self, graph):
        """The dense map serves the plain mask too: still equal to the
        reference (values and counters) and to MSA."""
        for name, m in _masks(graph):
            fc, rc = OpCounter(), OpCounter()
            fast = masked_spgemm(graph, graph, m, algo="inner", counter=fc)
            ref = masked_spgemm(graph, graph, m, algo="inner",
                                impl="reference", counter=rc)
            _bitwise(fast, ref, name)
            assert fc == rc, name
            _bitwise(fast, masked_spgemm(graph, graph, m, algo="msa"), name)


# ----------------------------------------------------------------------
# edge cases
# ----------------------------------------------------------------------
class TestEdgeCases:
    def _check(self, a, b, m, **kernel_kw):
        fc, rc = OpCounter(), OpCounter()
        fast = masked_spgemm_inner_fast(a, b, m, complement=True, counter=fc,
                                        **kernel_kw)
        ref = masked_spgemm_reference(a, b, m, algo="inner", complement=True,
                                      counter=rc)
        _bitwise(fast, ref)
        assert fc == rc
        _bitwise(fast, masked_spgemm(a, b, m, algo="msa", complement=True))
        return fast, fc

    def test_empty_mask_is_full_product(self):
        g = rmat(6, seed=2)
        got, counter = self._check(g, g, CSR.empty(g.shape))
        assert_csr_equal(got, scipy_masked_spgemm(g, g, CSR.empty(g.shape),
                                                  complement=True))
        has_a = int(np.count_nonzero(g.row_nnz()))
        assert counter.mask_scans == has_a * g.ncols

    def test_full_mask_rows_produce_nothing(self):
        g = erdos_renyi(40, 40, 4, seed=3, values="uniform")
        full = np.zeros(40, dtype=bool)
        full[::3] = True
        rows = np.repeat(np.flatnonzero(full), 40)
        cols = np.tile(np.arange(40), int(full.sum()))
        m = CSR.from_coo(g.shape, rows, cols)
        got, _ = self._check(g, g, m)
        assert not np.any(got.row_nnz()[full])

    def test_all_rows_fully_masked(self):
        g = erdos_renyi(20, 20, 3, seed=4)
        m = CSR.from_dense(np.ones((20, 20)))
        got, counter = self._check(g, g, m)
        assert got.nnz == 0 and counter.mask_scans == 0

    def test_empty_a_rows_are_not_scanned(self):
        g = erdos_renyi(50, 50, 4, seed=5, values="uniform")
        a = g.select_rows(np.arange(50) % 2 == 0)
        m = erdos_renyi(50, 50, 3, seed=6)
        got, counter = self._check(a, g, m)
        has_a = a.row_nnz() > 0
        assert not np.any(got.row_nnz()[~has_a])
        assert counter.mask_scans == int((50 - m.row_nnz()[has_a]).sum())

    def test_empty_b(self):
        a = erdos_renyi(30, 30, 3, seed=7)
        b = CSR.empty((30, 30))
        m = erdos_renyi(30, 30, 2, seed=8)
        got, counter = self._check(a, b, m)
        assert got.nnz == 0
        assert counter.flops == 0 and counter.mask_scans > 0

    def test_empty_a(self):
        z = CSR.empty((30, 30))
        b = erdos_renyi(30, 30, 3, seed=9)
        got, counter = self._check(z, b, CSR.empty((30, 30)))
        assert got.nnz == 0 and counter.mask_scans == 0

    @pytest.mark.parametrize("complement", [False, True])
    @pytest.mark.parametrize("budget", [1, 200])
    def test_small_dense_map_blocks(self, complement, budget, monkeypatch):
        """A dense budget below one row's full-width map forces blocks of
        one row (budget 1) or a few rows whose map is numbered by the
        columns they touch (budget 200 < 2 * 128); a small pull budget
        splits by pulls too.  Output and counters never move."""
        g = rmat(7, seed=4)
        m = erdos_renyi(g.nrows, g.ncols, 6, seed=5)
        base_c, small_c, tiny_c = OpCounter(), OpCounter(), OpCounter()
        base = masked_spgemm_inner_fast(g, g, m, complement=complement,
                                        counter=base_c)
        tiny = masked_spgemm_inner_fast(g, g, m, complement=complement,
                                        counter=tiny_c, pull_budget=7)
        monkeypatch.setattr(inner_kernel, "DENSE_BUDGET", budget)
        small = masked_spgemm_inner_fast(g, g, m, complement=complement,
                                         counter=small_c)
        _bitwise(small, base)
        _bitwise(tiny, base)
        assert base_c == small_c == tiny_c

    def test_wide_sparse_operand(self, monkeypatch):
        """Rows far sparser than ``ncols(A)``: blocks span many rows through
        the touched-column map, never one row per ``DENSE_BUDGET / ncols``."""
        a = erdos_renyi(300, 4000, 2, seed=11, values="uniform")
        b = erdos_renyi(4000, 300, 2, seed=12, values="uniform")
        m = erdos_renyi(300, 300, 30, seed=13)
        want = masked_spgemm(a, b, m, algo="msa")
        monkeypatch.setattr(inner_kernel, "DENSE_BUDGET", 4000)
        blocks = list(inner_kernel._map_blocks(
            np.cumsum(np.r_[0, a.row_nnz()]), 0, a.nrows, a.ncols, 0))
        assert len(blocks) < a.nrows // 4
        _bitwise(masked_spgemm_inner_fast(a, b, m), want)

    def test_position_map_is_left_clean(self):
        """The leased map goes back to the arena all -1: a second call on
        different rows sees no stale positions."""
        g = rmat(6, seed=6)
        h = erdos_renyi(g.nrows, g.ncols, 5, seed=7, values="uniform")
        m = erdos_renyi(g.nrows, g.ncols, 4, seed=8)
        first = masked_spgemm_inner_fast(h, g, m, complement=True)
        masked_spgemm_inner_fast(g, g, m, complement=True)
        _bitwise(masked_spgemm_inner_fast(h, g, m, complement=True), first)


# ----------------------------------------------------------------------
# the host rule under a complemented mask
# ----------------------------------------------------------------------
def _bc_levels(g, batch=64, seed=1):
    """(frontier, numsp) of every forward level of a BC batch on ``g``."""
    rng = np.random.default_rng(seed)
    log = []
    betweenness_centrality(
        g, sources=rng.choice(g.nrows, batch, replace=False), call_log=log,
        algo="msa",
    )
    return [(f, m) for f, _, m, forward in log if forward]


class TestHostRule:
    @pytest.fixture(autouse=True)
    def _default_machine(self, monkeypatch):
        monkeypatch.delenv(MACHINE_ENV, raising=False)

    def test_bc_visited_set_pulls_first_level_pushes(self):
        g = rmat(10, seed=1)
        levels = _bc_levels(g)
        first = plan(levels[0][0], g, levels[0][1], complement=True)
        assert first.algo == "msa"
        # the level whose visited set has grown large pulls
        widest = max(levels, key=lambda fm: fm[0].nnz)
        pl = plan(widest[0], g, widest[1], complement=True)
        assert pl.algo == "inner", pl.notes
        assert "complemented mask" in pl.notes[0]

    def test_rule_pull_count_is_the_kernels_work(self):
        """``pulls`` in the note is exactly B entries read plus complement
        cells scanned by the kernel."""
        g = rmat(8, seed=2)
        f, m = max(_bc_levels(g, batch=16), key=lambda fm: fm[0].nnz)
        col_nnz = np.bincount(g.indices, minlength=g.ncols)
        has_a = f.row_nnz() > 0
        want = 0
        for i in np.flatnonzero(has_a):
            cells = np.setdiff1d(np.arange(g.ncols), m.row(i)[0])
            want += int(col_nnz[cells].sum()) + cells.size
        assert f"pulls={want} " in plan(f, g, m, complement=True).notes[0]

    @pytest.mark.parametrize("scale", [8, 10])
    def test_tc_and_symmetric_products_stay_msa(self, scale):
        g = rmat(scale, seed=3)
        low = g.tril()
        assert plan(low, low, low).algo == "msa"
        assert plan(g, g, g).algo == "msa"

    @pytest.mark.parametrize("scale", [8, 9, 10])
    def test_bc_auto_bit_identical_to_msa(self, scale):
        g = rmat(scale, seed=scale)
        msa = betweenness_centrality(g, batch_size=64, seed=2, algo="msa")
        auto = betweenness_centrality(g, batch_size=64, seed=2)
        assert auto.centrality.tobytes() == msa.centrality.tobytes()
        assert auto.counter.flops == msa.counter.flops
        assert auto.counter.output_nnz == msa.counter.output_nnz


# ----------------------------------------------------------------------
# every backend, sharded and panelled (both CI backend-smoke legs)
# ----------------------------------------------------------------------
@pytest.mark.backend
class TestBackends:
    @pytest.fixture(scope="class", autouse=True)
    def _pool_teardown(self):
        yield
        shutdown_pool()
        assert active_segments() == ()

    def _oracles(self, g, m):
        rc = OpCounter()
        ref = masked_spgemm_reference(g, g, m, algo="inner", complement=True,
                                      counter=rc)
        msa = masked_spgemm(g, g, m, algo="msa", complement=True)
        return ref, rc, msa

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_partitioned(self, graph, backend):
        for name, m in _masks(graph):
            ref, rc, msa = self._oracles(graph, m)
            pl = plan(graph, graph, m, algo="inner", complement=True, threads=2)
            counter = OpCounter()
            got = execute(pl, graph, graph, m, backend=backend, counter=counter)
            _bitwise(got, msa, f"{backend}/{name}")
            _bitwise(got, ref, f"{backend}/{name}")
            assert counter == rc, f"{backend}/{name}"

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_sharded(self, graph, backend):
        _, m = _masks(graph)[2]
        ref, rc, msa = self._oracles(graph, m)
        counter = OpCounter()
        got = masked_spgemm(graph, graph, m, algo="inner", complement=True,
                            shards=(3, 2), backend=backend, counter=counter)
        _bitwise(got, msa, backend)
        assert counter == rc, backend

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_panelled(self, graph, backend):
        _, m = _masks(graph)[1]
        ref, rc, msa = self._oracles(graph, m)
        pl = plan(graph, graph, m, algo="inner", complement=True, threads=2,
                  panel_width=16)
        counter = OpCounter()
        got = execute(pl, graph, graph, m, backend=backend, counter=counter)
        _bitwise(got, msa, backend)
        assert counter == rc, backend

    def test_two_phase(self, graph):
        _, m = _masks(graph)[2]
        got = masked_spgemm(graph, graph, m, algo="inner", complement=True,
                            phases=2)
        _bitwise(got, self._oracles(graph, m)[2])
