"""Unit tests for the vectorized kernel machinery (expansion, vector hash
table, block iteration) — the parts of the fast tier with their own logic."""

import numpy as np
import pytest

from repro.core.kernels import (
    DEFAULT_FLOP_BUDGET,
    VectorHashTable,
    expand_products,
    iter_row_blocks,
    row_keys,
)
from repro.core.kernels.msa_kernel import masked_spgemm_msa_fast
from repro.core.kernels.hash_kernel import masked_spgemm_hash_fast
from repro.core.kernels.inner_kernel import masked_spgemm_inner_fast
from repro.baselines import scipy_masked_spgemm
from repro.machine import OpCounter, total_flops
from repro.semiring import PLUS_TIMES

from .conftest import assert_csr_equal, random_csr


class TestExpandProducts:
    def test_count_equals_flops(self):
        a = random_csr(20, 15, 4, seed=1)
        b = random_csr(15, 18, 4, seed=2)
        rows, cols, vals = expand_products(a, b, 0, 20, PLUS_TIMES)
        assert rows.shape[0] == total_flops(a, b)

    def test_products_correct(self):
        a = random_csr(10, 8, 3, seed=3)
        b = random_csr(8, 9, 3, seed=4)
        rows, cols, vals = expand_products(a, b, 0, 10, PLUS_TIMES)
        # summing the expansion reproduces the full product
        dense = np.zeros((10, 9))
        np.add.at(dense, (rows, cols), vals)
        want = a.to_dense() @ b.to_dense()
        assert np.allclose(dense, want)

    def test_row_range(self):
        a = random_csr(10, 8, 3, seed=5)
        b = random_csr(8, 9, 3, seed=6)
        rows, _, _ = expand_products(a, b, 3, 7, PLUS_TIMES)
        if rows.shape[0]:
            assert rows.min() >= 3
            assert rows.max() < 7

    def test_empty_range(self):
        a = random_csr(10, 8, 3, seed=7)
        b = random_csr(8, 9, 3, seed=8)
        rows, cols, vals = expand_products(a, b, 2, 2, PLUS_TIMES)
        assert rows.shape[0] == 0

    def test_grouped_by_row(self):
        a = random_csr(12, 10, 3, seed=9)
        b = random_csr(10, 10, 3, seed=10)
        rows, _, _ = expand_products(a, b, 0, 12, PLUS_TIMES)
        assert np.all(np.diff(rows) >= 0)


class TestIterRowBlocks:
    def test_covers_all_rows(self):
        a = random_csr(50, 40, 5, seed=11)
        b = random_csr(40, 45, 5, seed=12)
        blocks = list(iter_row_blocks(a, b, flop_budget=100))
        assert blocks[0][0] == 0
        assert blocks[-1][1] == 50
        for (l1, h1), (l2, h2) in zip(blocks, blocks[1:]):
            assert h1 == l2
            assert l1 < h1

    def test_budget_respected(self):
        from repro.machine import flops_per_row

        a = random_csr(50, 40, 5, seed=13)
        b = random_csr(40, 45, 5, seed=14)
        fl = flops_per_row(a, b)
        for lo, hi in iter_row_blocks(a, b, flop_budget=100):
            if hi - lo > 1:  # single oversized rows are allowed
                assert fl[lo:hi].sum() <= 100

    def test_one_big_block_when_budget_large(self):
        a = random_csr(20, 20, 3, seed=15)
        b = random_csr(20, 20, 3, seed=16)
        blocks = list(iter_row_blocks(a, b, DEFAULT_FLOP_BUDGET))
        assert blocks == [(0, 20)]


class TestRowKeys:
    def test_bijective(self):
        rows = np.array([0, 1, 2, 2])
        cols = np.array([5, 0, 3, 4])
        keys = row_keys(rows, cols, 10)
        assert np.array_equal(keys // 10, rows)
        assert np.array_equal(keys % 10, cols)

    def test_ordering(self):
        # row-major ordering is preserved
        keys = row_keys(np.array([0, 0, 1]), np.array([1, 2, 0]), 100)
        assert np.all(np.diff(keys) > 0)


class TestVectorHashTable:
    def test_insert_lookup_roundtrip(self):
        t = VectorHashTable(100)
        keys = np.arange(0, 1000, 10, dtype=np.int64)
        slots = t.insert(keys)
        found, s2 = t.lookup(keys)
        assert found.all()
        assert np.array_equal(slots, s2)

    def test_absent_keys(self):
        t = VectorHashTable(10)
        t.insert(np.array([1, 2, 3], dtype=np.int64))
        found, _ = t.lookup(np.array([4, 5, 1], dtype=np.int64))
        assert np.array_equal(found, [False, False, True])

    def test_colliding_keys_resolve(self):
        t = VectorHashTable(8)
        cap = t.cap
        keys = np.array([3, 3 + cap, 3 + 2 * cap, 7], dtype=np.int64)
        slots = t.insert(keys)
        assert len(set(slots.tolist())) == 4  # all distinct slots
        found, s2 = t.lookup(keys)
        assert found.all()
        assert np.array_equal(slots, s2)

    def test_idempotent_insert(self):
        t = VectorHashTable(8)
        k = np.array([42], dtype=np.int64)
        s1 = t.insert(k)
        s2 = t.insert(k)
        assert s1[0] == s2[0]

    def test_probe_counting(self):
        c = OpCounter()
        t = VectorHashTable(8, counter=c)
        t.insert(np.array([1, 2, 3], dtype=np.int64))
        assert c.hash_probes >= 3

    def test_capacity_power_of_two_and_load(self):
        for n in (1, 5, 33, 1000):
            t = VectorHashTable(n)
            assert t.cap & (t.cap - 1) == 0
            assert t.cap >= 4 * n

    def test_empty_lookup(self):
        t = VectorHashTable(4)
        found, slots = t.lookup(np.empty(0, dtype=np.int64))
        assert found.shape[0] == 0


class TestKernelBlocking:
    """Fast kernels must be invariant to the flop-budget blocking."""

    @pytest.mark.parametrize("budget", [1, 17, 1000, DEFAULT_FLOP_BUDGET])
    def test_msa_blocking_invariant(self, budget, small_triple):
        a, b, m = small_triple
        want = scipy_masked_spgemm(a, b, m)
        got = masked_spgemm_msa_fast(a, b, m, flop_budget=budget)
        assert_csr_equal(got, want, msg=f"budget={budget}")

    @pytest.mark.parametrize("budget", [1, 17, 1000])
    def test_hash_blocking_invariant(self, budget, small_triple):
        a, b, m = small_triple
        want = scipy_masked_spgemm(a, b, m)
        got = masked_spgemm_hash_fast(a, b, m, flop_budget=budget)
        assert_csr_equal(got, want)

    @pytest.mark.parametrize("budget", [1, 17, 1000])
    def test_inner_pull_blocking_bitwise_invariant(self, budget, small_triple):
        """Pull blocks only reorder COO pieces before ``from_coo``: values
        and counters are bit-identical to a single unblocked pass."""
        a, b, m = small_triple
        want_c, got_c = OpCounter(), OpCounter()
        want = masked_spgemm_inner_fast(a, b, m, counter=want_c,
                                        pull_budget=1 << 40)
        got = masked_spgemm_inner_fast(a, b, m, counter=got_c,
                                       pull_budget=budget)
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.data, want.data)
        assert got_c.as_dict() == want_c.as_dict()
        assert_csr_equal(got, scipy_masked_spgemm(a, b, m))

    @pytest.mark.parametrize("dense_budget", [8, 64, 1 << 22])
    def test_msa_dense_budget_invariant(self, dense_budget, small_triple):
        a, b, m = small_triple
        want = scipy_masked_spgemm(a, b, m)
        got = masked_spgemm_msa_fast(a, b, m, dense_budget=dense_budget)
        assert_csr_equal(got, want)

    def test_counters_track_products(self, small_triple):
        a, b, m = small_triple
        c = OpCounter()
        masked_spgemm_msa_fast(a, b, m, counter=c)
        assert c.accum_inserts == total_flops(a, b)
        assert c.accum_allowed == m.nnz
