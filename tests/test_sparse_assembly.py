"""CSR assembly: ``from_coo``'s sorted fast path and composite-key sort,
``sort_indices`` verification, the filtering structural ops and
``sorted_unique`` — each checked bit for bit against the lexsort-through-COO
construction they replace."""

import numpy as np
import pytest

from repro.graphs import rmat
from repro.graphs.relabel import degree_sort_permutation, relabel_by_degree
from repro.sparse import CSR, sorted_unique

from .conftest import random_csr


def lexsort_from_coo(shape, rows, cols, vals=None, *, sum_duplicates=True):
    """The two-key lexsort construction ``CSR.from_coo`` used to run on
    every input: the bitwise oracle for the fast paths."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    if vals is None:
        vals = np.ones(rows.shape[0], dtype=np.float64)
    else:
        vals = np.asarray(vals)
        if vals.dtype.kind not in "fc":
            vals = vals.astype(np.float64)
    nrows, ncols = int(shape[0]), int(shape[1])
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    if rows.size:
        dup = (rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])
        if dup.any():
            if not sum_duplicates:
                raise ValueError("duplicate coordinates present")
            keep = np.concatenate(([True], ~dup))
            seg = np.cumsum(keep) - 1
            out_vals = np.zeros(int(seg[-1]) + 1, dtype=vals.dtype)
            np.add.at(out_vals, seg, vals)
            rows, cols, vals = rows[keep], cols[keep], out_vals
    indptr = np.zeros(nrows + 1, dtype=np.int64)
    np.add.at(indptr, rows + 1, 1)
    np.cumsum(indptr, out=indptr)
    return CSR((nrows, ncols), indptr, cols, vals, sorted_indices=True, check=False)


def assert_bitwise(got: CSR, want: CSR):
    assert got.shape == want.shape
    assert got.sorted_indices and want.sorted_indices
    assert got.indptr.dtype == want.indptr.dtype == np.int64
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert got.data.dtype == want.data.dtype
    assert got.data.tobytes() == want.data.tobytes()
    got.check()


def check_from_coo(shape, rows, cols, vals=None):
    got = CSR.from_coo(shape, rows, cols, vals)
    assert_bitwise(got, lexsort_from_coo(shape, rows, cols, vals))
    return got


def coo_of(mat: CSR):
    rows = np.repeat(np.arange(mat.nrows, dtype=np.int64), np.diff(mat.indptr))
    return rows, mat.indices.copy(), mat.data.copy()


class TestFromCooOracle:
    def _triples(self, seed, n=400, shape=(30, 40), dups=True):
        rng = np.random.default_rng(seed)
        if dups:
            rows = rng.integers(0, shape[0], n)
            cols = rng.integers(0, shape[1], n)
        else:
            flat = rng.choice(shape[0] * shape[1], size=n, replace=False)
            rows, cols = flat // shape[1], flat % shape[1]
        return rows, cols, rng.standard_normal(n)

    @pytest.mark.parametrize("dups", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sorted_reversed_shuffled(self, seed, dups):
        rows, cols, vals = self._triples(seed, dups=dups)
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        check_from_coo((30, 40), rows, cols, vals)
        check_from_coo((30, 40), rows[::-1], cols[::-1], vals[::-1])
        perm = np.random.default_rng(seed + 10).permutation(rows.size)
        check_from_coo((30, 40), rows[perm], cols[perm], vals[perm])

    @pytest.mark.parametrize("order", [(0, 1, 2), (0, 2, 1), (1, 0, 2), (2, 1, 0)])
    def test_order_dependent_duplicate_sums(self, order):
        # (1e16 + 1) - 1e16 == 0 but (1e16 - 1e16) + 1 == 1: the sum of a
        # duplicate run depends on its order, which must be input order
        dup_vals = np.array([1e16, 1.0, -1e16])[list(order)]
        # a reversed filler row, so the input takes a real sort
        filler = np.arange(199, -1, -1)
        rows = np.concatenate([[1, 0, 1], np.full(200, 2), [1, 0]])
        cols = np.concatenate([[3, 5, 3], filler, [3, 1]])
        vals = np.concatenate([[dup_vals[0], 7.0, dup_vals[1]], filler + 0.5,
                               [dup_vals[2], 9.0]])
        got = check_from_coo((3, 200), rows, cols, vals)
        want = (dup_vals[0] + dup_vals[1]) + dup_vals[2]
        assert got.data[got.indptr[1]] == want
        # the same run with the other entries already in order
        check_from_coo((3, 6), [0, 0, 1, 1, 1, 2], [1, 5, 3, 3, 3, 0],
                       [9.0, 7.0, *dup_vals, 8.0])

    @pytest.mark.parametrize("pieces", [2, 3, 17, 40])
    def test_concatenated_sorted_runs(self, pieces):
        # a few sorted runs (a sorted matrix plus new entries, row-ordered
        # partitions in any order) take the merging sort, many the
        # unstable one; both must match, duplicates across runs included
        rng = np.random.default_rng(pieces)
        parts = []
        for _ in range(pieces):
            rows, cols, vals = self._triples(int(rng.integers(1 << 30)), n=60,
                                             dups=False)
            order = np.lexsort((cols, rows))
            parts.append((rows[order], cols[order], vals[order] * 1e16))
        rows, cols, vals = (np.concatenate(x) for x in zip(*parts))
        check_from_coo((30, 40), rows, cols, vals)

    def test_empty_single_dense_row_and_gaps(self):
        empty = check_from_coo((4, 5), [], [], [])
        assert empty.nnz == 0 and np.array_equal(empty.indptr, np.zeros(5))
        check_from_coo((0, 0), [], [], [])
        check_from_coo((4, 5), [3], [4], [2.5])
        check_from_coo((3, 64), np.ones(64, dtype=np.int64), np.arange(64)[::-1],
                       np.arange(64.0))
        got = check_from_coo((9, 4), [0, 8, 4, 8], [1, 0, 3, 2], [1.0, 2.0, 3.0, 4.0])
        assert np.array_equal(got.row_nnz(), [1, 0, 0, 0, 1, 0, 0, 0, 2])

    @pytest.mark.parametrize("ncols", [2**60, 2**63 // 5, 2**63 // 5 + 1, 2**62, 2**63 - 1])
    def test_huge_shapes_at_and_past_the_key_limit(self, ncols):
        # nrows * ncols >= 2**62 throughout; past 2**63 the composite key
        # row * ncols + col would overflow and the lexsort fallback runs
        shape = (5, ncols)
        rows = np.array([4, 0, 4, 2, 0, 4])
        cols = np.array([ncols - 1, 0, 0, ncols - 1, 0, ncols - 1])
        vals = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        got = check_from_coo(shape, rows, cols, vals)
        assert np.array_equal(got.indices, [0, ncols - 1, 0, ncols - 1])
        assert np.array_equal(got.data, [7.0, 4.0, 3.0, 7.0])

    def test_value_dtypes(self):
        check_from_coo((2, 3), [1, 0, 1], [0, 2, 0], [1, 2, 3])
        check_from_coo((2, 3), [1, 0, 1], [0, 2, 0], np.array([1j, 2.0, 3.0]))
        check_from_coo((2, 3), [1, 0], [0, 2], np.array([1.0, 2.0], np.float32))
        check_from_coo((2, 3), [1, 0, 1], [0, 2, 0])

    @pytest.mark.parametrize("rows,cols", [
        ([0, 0], [1, 1]),            # sorted input with a duplicate
        ([1, 0, 1], [2, 0, 2]),      # unsorted input with a duplicate
    ])
    def test_sum_duplicates_false_still_raises(self, rows, cols):
        vals = np.ones(len(rows))
        with pytest.raises(ValueError, match="duplicate"):
            CSR.from_coo((2, 3), rows, cols, vals, sum_duplicates=False)
        with pytest.raises(ValueError, match="duplicate"):
            lexsort_from_coo((2, 3), rows, cols, vals, sum_duplicates=False)

    def test_sum_duplicates_false_accepts_distinct(self):
        got = CSR.from_coo((2, 3), [1, 0], [0, 2], [1.0, 2.0], sum_duplicates=False)
        assert_bitwise(got, lexsort_from_coo((2, 3), [1, 0], [0, 2], [1.0, 2.0]))

    def test_range_checks_unchanged(self):
        with pytest.raises(ValueError, match="row index"):
            CSR.from_coo((2, 2), [2], [0], [1.0])
        with pytest.raises(ValueError, match="column index"):
            CSR.from_coo((2, 2), [0], [-1], [1.0])

    def test_sorted_input_is_not_aliased(self):
        rows = np.array([0, 1, 1], dtype=np.int64)
        cols = np.array([2, 0, 1], dtype=np.int64)
        vals = np.array([1.0, 2.0, 3.0])
        got = CSR.from_coo((2, 3), rows, cols, vals)
        assert not np.shares_memory(got.indices, cols)
        assert not np.shares_memory(got.data, vals)
        cols[:] = 0
        vals[:] = 0.0
        assert np.array_equal(got.indices, [2, 0, 1])
        assert np.array_equal(got.data, [1.0, 2.0, 3.0])


def unflagged(mat: CSR) -> CSR:
    return CSR(mat.shape, mat.indptr, mat.indices, mat.data, sorted_indices=False)


def unsorted_with_duplicates(seed=0, shape=(25, 30), n=300) -> CSR:
    """An unflagged CSR whose rows hold columns in random order, with
    duplicates."""
    rng = np.random.default_rng(seed)
    rows = np.sort(rng.integers(0, shape[0], n))
    cols = rng.integers(0, shape[1], n)
    vals = rng.standard_normal(n)
    vals[::7] = 0.0
    indptr = np.zeros(shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
    return CSR(shape, indptr, cols, vals)


class TestSortIndices:
    def test_unflagged_sorted_is_verified_without_copy(self):
        a = random_csr(40, 50, 5, seed=3)
        u = unflagged(a)
        s = u.sort_indices()
        assert s.sorted_indices and not u.sorted_indices
        for got, orig in zip(s.segment_arrays(), u.segment_arrays()):
            assert np.shares_memory(got, orig)
        assert_bitwise(s, lexsort_from_coo(a.shape, *coo_of(u)))

    def test_row_boundary_may_step_down(self):
        # row 0 ends at column 5, row 1 starts at column 2
        m = CSR((2, 6), np.array([0, 2, 4]), np.array([1, 5, 2, 3]),
                np.array([1.0, 2.0, 3.0, 4.0]))
        s = m.sort_indices()
        assert s.sorted_indices and s.indices is m.indices

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_unsorted_and_duplicate_rows_canonicalise_as_before(self, seed):
        m = unsorted_with_duplicates(seed)
        s = m.sort_indices()
        assert_bitwise(s, lexsort_from_coo(m.shape, *coo_of(m)))
        assert s.nnz < m.nnz

    def test_adjacent_equal_columns_are_not_sorted(self):
        m = CSR((1, 4), np.array([0, 2]), np.array([3, 3]), np.array([1.0, 2.0]))
        s = m.sort_indices()
        assert s.nnz == 1 and s.data[0] == 3.0

    def test_empty(self):
        m = CSR((3, 4), np.zeros(4, dtype=np.int64), np.empty(0, dtype=np.int64),
                np.empty(0))
        s = m.sort_indices()
        assert s.sorted_indices and s.nnz == 0
        assert_bitwise(s, lexsort_from_coo((3, 4), [], [], []))

    def test_flagged_is_returned_as_is(self):
        a = random_csr(10, 10, 3, seed=1)
        assert a.sorted_indices and a.sort_indices() is a


def operands(shape=(30, 35)):
    a = random_csr(*shape, 5, seed=7)
    return {
        "flagged": a,
        "unflagged": unflagged(a),
        "unsorted": unsorted_with_duplicates(1, shape=shape),
    }


class TestStructuralOpsBitwise:
    """Each op against its old route: COO, filter or relabel, lexsort."""

    @pytest.mark.parametrize("kind", ["flagged", "unflagged", "unsorted"])
    def test_triangles(self, kind):
        m = operands()[kind]
        r, c, v = coo_of(m)
        for k in (-2, -1, 0, 1, 3):
            lo, up = c - r <= k, c - r >= k
            assert_bitwise(m.tril(k), lexsort_from_coo(m.shape, r[lo], c[lo], v[lo]))
            assert_bitwise(m.triu(k), lexsort_from_coo(m.shape, r[up], c[up], v[up]))

    @pytest.mark.parametrize("kind", ["flagged", "unflagged", "unsorted"])
    def test_select_rows_and_drop_zeros(self, kind):
        m = operands()[kind]
        r, c, v = coo_of(m)
        sel = np.zeros(m.nrows, dtype=bool)
        sel[[0, 3, 4, 17, 29]] = True
        keep = sel[r]
        want = lexsort_from_coo(m.shape, r[keep], c[keep], v[keep])
        assert_bitwise(m.select_rows(np.flatnonzero(sel)), want)
        assert_bitwise(m.select_rows(sel), want)
        vz = v.copy()
        vz[::3] = 0.0
        z = CSR(m.shape, m.indptr, m.indices, vz, sorted_indices=m.sorted_indices)
        nz = np.abs(vz) > 0.0
        assert_bitwise(z.drop_zeros(), lexsort_from_coo(m.shape, r[nz], c[nz], vz[nz]))

    def test_drop_zeros_filters_unsorted_rows_before_summing(self):
        # unsorted duplicates cancelling to zero: the filter sees the raw
        # entries (both survive) and their zero sum is stored
        m = CSR((1, 3), np.array([0, 4]), np.array([2, 0, 2, 1]),
                np.array([1.0, 5.0, -1.0, 0.0]))
        r, c, v = coo_of(m)
        nz = v != 0.0
        got = m.drop_zeros()
        assert_bitwise(got, lexsort_from_coo(m.shape, r[nz], c[nz], v[nz]))
        assert np.array_equal(got.indices, [0, 2]) and got.data[1] == 0.0

    @pytest.mark.parametrize("kind", ["flagged", "unflagged", "unsorted"])
    def test_transpose(self, kind):
        m = operands()[kind]
        r, c, v = coo_of(m)
        assert_bitwise(m.transpose(), lexsort_from_coo((m.ncols, m.nrows), c, r, v))

    def test_transpose_wide(self):
        # more than 2**16 columns: the int64 stable sort, not the radix one
        m = CSR.from_coo((3, 70000), [0, 0, 2, 1], [69999, 5, 5, 65536],
                         [1.0, 2.0, 3.0, 4.0])
        r, c, v = coo_of(m)
        assert_bitwise(m.transpose(), lexsort_from_coo((70000, 3), c, r, v))

    @pytest.mark.parametrize("kind", ["flagged", "unflagged", "unsorted"])
    def test_permute(self, kind):
        m = operands((35, 35))[kind]
        perm = np.random.default_rng(5).permutation(35)
        inv = np.empty_like(perm)
        inv[perm] = np.arange(35)
        r, c, v = coo_of(m)
        assert_bitwise(m.permute(perm), lexsort_from_coo(m.shape, inv[r], inv[c], v))

    @pytest.mark.parametrize("bad", [[0, 1, 5], [0, 1, -1], [0, 0, 1], [0, 1]])
    def test_permute_rejects_non_permutations(self, bad):
        m = CSR.from_coo((3, 3), [0, 1, 2], [1, 2, 0])
        with pytest.raises(ValueError, match="permutation"):
            m.permute(np.array(bad))


class TestSortedUnique:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_np_unique(self, seed):
        rng = np.random.default_rng(seed)
        for n, hi in ((0, 5), (1, 5), (50, 10), (2000, 300), (2000, 1 << 40)):
            x = rng.integers(0, hi, n)
            got = sorted_unique(x)
            want = np.unique(x)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    def test_does_not_modify_input(self):
        x = np.array([3, 1, 3, 2])
        sorted_unique(x)
        assert np.array_equal(x, [3, 1, 3, 2])


class TestRelabelUnchanged:
    @pytest.mark.parametrize("scale,seed", [(6, 1), (8, 2), (10, 3)])
    @pytest.mark.parametrize("ascending", [False, True])
    def test_rmat_degree_permutation(self, scale, seed, ascending):
        g = rmat(scale, seed=seed)
        deg = g.row_nnz()
        key = deg if ascending else -deg
        want = np.lexsort((np.arange(g.nrows), key))
        got = degree_sort_permutation(g, ascending=ascending)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)
        inv = np.empty_like(want)
        inv[want] = np.arange(g.nrows)
        r, c, v = coo_of(g)
        assert_bitwise(
            relabel_by_degree(g, ascending=ascending),
            lexsort_from_coo(g.shape, inv[r], inv[c], v),
        )
