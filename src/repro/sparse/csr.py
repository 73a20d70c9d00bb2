"""Compressed Sparse Row (CSR) matrix container.

This is the storage format used throughout the reproduction, mirroring the
paper's choice (Section 2.1): three arrays — row pointers ``indptr``, column
indices ``indices`` and values ``data``.  The container is deliberately thin:
kernels operate on the raw NumPy arrays, and the class mostly provides
construction, validation, conversion and structural helpers.

Invariants (checked by :meth:`CSR.check`):

* ``indptr`` has length ``nrows + 1``, is non-decreasing, starts at 0 and
  ends at ``nnz``.
* ``indices`` and ``data`` have length ``nnz``.
* all column indices are in ``[0, ncols)``.
* when ``sorted_indices`` is claimed, column indices are strictly increasing
  within each row (which also implies no duplicates).
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

__all__ = ["CSR", "sorted_unique"]

INDEX_DTYPE = np.int64
VALUE_DTYPE = np.float64
# largest nrows * ncols whose composite keys row * ncols + col fit in int64
_KEY_LIMIT = 2**63
# up to this many descents (a few sorted runs: row-ordered pieces, or a
# sorted matrix concatenated with new entries) NumPy's stable sort, which
# merges runs, beats its unstable sort
_FEW_RUNS = 16


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values of an integer array.

    The result equals ``np.unique(values)``, computed by a sort and an
    adjacent-difference filter.  ``np.unique`` on integers is hash-based in
    recent NumPy and several times slower on the index and key arrays the
    kernels and the delta engine deduplicate.
    """
    out = np.sort(np.asarray(values).ravel())
    if out.size > 1:
        keep = np.empty(out.size, dtype=bool)
        keep[0] = True
        np.not_equal(out[1:], out[:-1], out=keep[1:])
        out = out[keep]
    return out


def _indptr(rows: np.ndarray, nrows: int) -> np.ndarray:
    """Row pointers of entries whose row ids ``rows`` are in row order."""
    indptr = np.zeros(nrows + 1, dtype=INDEX_DTYPE)
    np.cumsum(np.bincount(rows, minlength=nrows), out=indptr[1:])
    return indptr


class CSR:
    """A CSR sparse matrix over NumPy arrays.

    Parameters
    ----------
    shape:
        ``(nrows, ncols)``.
    indptr, indices, data:
        The standard CSR arrays.  They are converted to the canonical dtypes
        (int64 indices, float64 values by default) but **not** copied when
        already canonical.
    sorted_indices:
        Declare that each row's column indices are strictly increasing.  Most
        kernels in :mod:`repro.core` require sorted, duplicate-free rows; use
        :meth:`sort_indices` to establish the invariant.
    check:
        Validate the invariants at construction time.
    """

    # _csc_memo holds (fingerprint_key, CSC) — an ExecutionSession parks the
    # derived transpose here so a constant operand is transposed once per
    # content even across sessions; see repro.engine.session.
    __slots__ = ("shape", "indptr", "indices", "data", "sorted_indices",
                 "_csc_memo")

    def __init__(
        self,
        shape: Tuple[int, int],
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
        *,
        sorted_indices: bool = False,
        check: bool = True,
    ) -> None:
        self.shape = (int(shape[0]), int(shape[1]))
        self.indptr = np.ascontiguousarray(indptr, dtype=INDEX_DTYPE)
        self.indices = np.ascontiguousarray(indices, dtype=INDEX_DTYPE)
        if data.dtype.kind in "fc":
            self.data = np.ascontiguousarray(data)
        else:
            self.data = np.ascontiguousarray(data, dtype=VALUE_DTYPE)
        self.sorted_indices = bool(sorted_indices)
        self._csc_memo = None
        if check:
            self.check()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, shape: Tuple[int, int], dtype=VALUE_DTYPE) -> "CSR":
        """An all-zero matrix of the given shape."""
        return cls(
            shape,
            np.zeros(shape[0] + 1, dtype=INDEX_DTYPE),
            np.empty(0, dtype=INDEX_DTYPE),
            np.empty(0, dtype=dtype),
            sorted_indices=True,
            check=False,
        )

    @classmethod
    def from_coo(
        cls,
        shape: Tuple[int, int],
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray | None = None,
        *,
        sum_duplicates: bool = True,
    ) -> "CSR":
        """Build a CSR matrix from coordinate triples.

        Duplicate ``(row, col)`` entries are summed in input order
        (``sum_duplicates=True``, the default) or rejected.  The result has
        sorted row segments.  Input already in ``(row, col)`` order is
        verified in ``O(nnz)`` and not sorted again, so row-ordered kernel
        and partition outputs assemble by concatenation.
        """
        rows = np.asarray(rows, dtype=INDEX_DTYPE)
        cols = np.asarray(cols, dtype=INDEX_DTYPE)
        if vals is None:
            vals = np.ones(rows.shape[0], dtype=VALUE_DTYPE)
        else:
            vals = np.asarray(vals)
            if vals.dtype.kind not in "fc":
                vals = vals.astype(VALUE_DTYPE)
        if not (rows.shape == cols.shape == vals.shape):
            raise ValueError("rows, cols, vals must have identical shapes")
        nrows, ncols = int(shape[0]), int(shape[1])
        if rows.size:
            if rows.min() < 0 or rows.max() >= nrows:
                raise ValueError("row index out of range")
            if cols.min() < 0 or cols.max() >= ncols:
                raise ValueError("column index out of range")
        if nrows * ncols <= _KEY_LIMIT:
            # one composite key per entry; its order is (row, col) order
            keys = rows * ncols + cols
            step = np.diff(keys)
            descents = int(np.count_nonzero(step < 0))
            if descents:
                # the stable order is lexsort((cols, rows)), so duplicate
                # runs are summed in input order; the unstable sort is
                # faster on scattered keys and agrees when all are distinct
                stable = descents <= _FEW_RUNS
                order = np.argsort(keys, kind="stable" if stable else None)
                step = np.diff(keys[order])
                if not (stable or step.all()):
                    order = np.argsort(keys, kind="stable")
                rows, cols, vals = rows[order], cols[order], vals[order]
            else:
                # already in order: skip the sort, but never alias the
                # caller's arrays
                cols, vals = cols.copy(), vals.copy()
            dup = step == 0
        else:
            # rows * ncols + cols would overflow int64: sort on both keys
            order = np.lexsort((cols, rows))
            rows, cols, vals = rows[order], cols[order], vals[order]
            dup = (rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])
        if dup.any():
            if not sum_duplicates:
                raise ValueError("duplicate coordinates present")
            # segment-reduce duplicate runs
            keep = np.concatenate(([True], ~dup))
            seg = np.cumsum(keep) - 1
            out_vals = np.zeros(int(seg[-1]) + 1, dtype=vals.dtype)
            np.add.at(out_vals, seg, vals)
            rows, cols, vals = rows[keep], cols[keep], out_vals
        indptr = _indptr(rows, nrows)
        return cls((nrows, ncols), indptr, cols, vals, sorted_indices=True, check=False)

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "CSR":
        """Build from a 2-D dense array, dropping explicit zeros."""
        dense = np.asarray(dense)
        if dense.ndim != 2:
            raise ValueError("dense array must be 2-D")
        rows, cols = np.nonzero(dense)
        return cls.from_coo(dense.shape, rows, cols, dense[rows, cols])

    @classmethod
    def from_segment_arrays(
        cls,
        shape: Tuple[int, int],
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
        *,
        sorted_indices: bool = False,
    ) -> "CSR":
        """Rewrap the three CSR arrays without copying or re-validating.

        The zero-copy counterpart of :meth:`segment_arrays` used by the
        shared-memory executor (:mod:`repro.parallel.shm`): the arrays are
        typically views into attached shared segments whose invariants were
        established by the publishing process, so ``check`` is skipped.  The
        arrays must already be contiguous and of the canonical dtypes or the
        constructor will fall back to copying.
        """
        return cls(
            shape, indptr, indices, data, sorted_indices=sorted_indices, check=False
        )

    def segment_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The ``(indptr, indices, data)`` arrays in publication order.

        Together with ``shape`` and ``sorted_indices`` this is everything a
        peer process needs to rebuild the matrix via
        :meth:`from_segment_arrays` without a round trip through COO.
        """
        return self.indptr, self.indices, self.data

    @classmethod
    def from_scipy(cls, mat) -> "CSR":
        """Build from a ``scipy.sparse`` matrix (used by tests/oracles)."""
        m = mat.tocsr()
        m.sum_duplicates()
        m.sort_indices()
        return cls(
            m.shape,
            m.indptr.astype(INDEX_DTYPE),
            m.indices.astype(INDEX_DTYPE),
            m.data.astype(VALUE_DTYPE),
            sorted_indices=True,
        )

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def nrows(self) -> int:
        return self.shape[0]

    @property
    def ncols(self) -> int:
        return self.shape[1]

    @property
    def nnz(self) -> int:
        return int(self.indices.shape[0])

    def row_nnz(self) -> np.ndarray:
        """Array of per-row nonzero counts."""
        return np.diff(self.indptr)

    def row(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        """Views of the column indices and values of row ``i``."""
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    def iter_rows(self) -> Iterator[Tuple[int, np.ndarray, np.ndarray]]:
        """Yield ``(i, cols, vals)`` for every row (including empty rows)."""
        for i in range(self.nrows):
            cols, vals = self.row(i)
            yield i, cols, vals

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def check(self) -> "CSR":
        """Validate structural invariants; raise ``ValueError`` on breakage."""
        nrows, ncols = self.shape
        if self.indptr.shape[0] != nrows + 1:
            raise ValueError("indptr has wrong length")
        if self.indptr[0] != 0:
            raise ValueError("indptr must start at 0")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        nnz = int(self.indptr[-1])
        if self.indices.shape[0] != nnz or self.data.shape[0] != nnz:
            raise ValueError("indices/data length mismatch with indptr")
        if nnz and (self.indices.min() < 0 or self.indices.max() >= ncols):
            raise ValueError("column index out of range")
        if self.sorted_indices and not self._rows_increasing():
            raise ValueError("indices not strictly increasing within rows")
        return self

    def _rows_increasing(self) -> bool:
        """Whether column indices are strictly increasing within every row
        (an ``O(nnz)`` scan; a row boundary may step down)."""
        nnz = self.nnz
        if nnz < 2:
            return True
        bad = np.diff(self.indices) <= 0
        starts = self.indptr[1:-1]
        bad[starts[(starts > 0) & (starts < nnz)] - 1] = False
        return not bad.any()

    def _row_ids(self) -> np.ndarray:
        """The row index of every stored entry."""
        return np.repeat(
            np.arange(self.nrows, dtype=INDEX_DTYPE), np.diff(self.indptr)
        )

    # ------------------------------------------------------------------
    # conversions / structural ops
    # ------------------------------------------------------------------
    def copy(self) -> "CSR":
        return CSR(
            self.shape,
            self.indptr.copy(),
            self.indices.copy(),
            self.data.copy(),
            sorted_indices=self.sorted_indices,
            check=False,
        )

    def astype(self, dtype) -> "CSR":
        return CSR(
            self.shape,
            self.indptr,
            self.indices,
            self.data.astype(dtype),
            sorted_indices=self.sorted_indices,
            check=False,
        )

    def to_coo(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(rows, cols, vals)`` coordinate arrays."""
        return self._row_ids(), self.indices.copy(), self.data.copy()

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=self.data.dtype)
        rows, cols, vals = self.to_coo()
        np.add.at(out, (rows, cols), vals)
        return out

    def to_scipy(self):
        """Convert to ``scipy.sparse.csr_matrix`` (tests/oracles only)."""
        import scipy.sparse as sp

        return sp.csr_matrix(
            (self.data.copy(), self.indices.copy(), self.indptr.copy()),
            shape=self.shape,
        )

    def sort_indices(self) -> "CSR":
        """Return an equivalent CSR with sorted, duplicate-summed rows.

        A flagged matrix is returned as is.  An unflagged one whose rows
        are already strictly increasing is verified in ``O(nnz)`` and comes
        back flagged over the same arrays (no copy); only a matrix with an
        unsorted or duplicated row is rebuilt through :meth:`from_coo`.
        """
        if self.sorted_indices:
            return self
        if self._rows_increasing():
            return CSR(
                self.shape, self.indptr, self.indices, self.data,
                sorted_indices=True, check=False,
            )
        rows, cols, vals = self.to_coo()
        return CSR.from_coo(self.shape, rows, cols, vals)

    def transpose(self) -> "CSR":
        """Transpose.  The result has sorted rows (CSR of the transpose is
        the CSC of the original, so this also serves as the CSC builder).

        One stable sort of the column indices of the row-ordered entries
        groups them by column with rows still increasing inside each group.
        """
        src = self.sort_indices()
        keys = src.indices
        if self.ncols <= 1 << 16:
            # NumPy sorts 16-bit keys stably by radix sort
            keys = keys.astype(np.uint16)
        order = np.argsort(keys, kind="stable")
        return CSR(
            (self.ncols, self.nrows),
            _indptr(src.indices, self.ncols),
            src._row_ids()[order],
            src.data[order],
            sorted_indices=True,
            check=False,
        )

    def pattern(self) -> "CSR":
        """Same structure with all stored values set to 1.0."""
        return CSR(
            self.shape,
            self.indptr,
            self.indices,
            np.ones(self.nnz, dtype=VALUE_DTYPE),
            sorted_indices=self.sorted_indices,
            check=False,
        )

    def drop_zeros(self, tol: float = 0.0) -> "CSR":
        """Remove stored entries with ``|value| <= tol``."""
        keep = np.abs(self.data) > tol
        if keep.all():
            return self
        return self._keep_entries(keep)

    def select_rows(self, mask_or_index: np.ndarray) -> "CSR":
        """Keep only rows selected by a boolean mask or index array; other
        rows become empty (the shape is unchanged)."""
        sel = np.zeros(self.nrows, dtype=bool)
        sel[mask_or_index] = True
        return self._keep_entries(sel[self._row_ids()])

    def _keep_entries(self, keep: np.ndarray) -> "CSR":
        """The stored entries where ``keep`` is True, as a sorted CSR.

        Rows that are already in order are filtered without a COO rebuild;
        an unsorted matrix takes the :meth:`from_coo` route, which sums the
        duplicates that survive the filter (``keep`` sees them unsummed).
        """
        if not (self.sorted_indices or self._rows_increasing()):
            rows, cols, vals = self.to_coo()
            return CSR.from_coo(self.shape, rows[keep], cols[keep], vals[keep])
        return CSR(
            self.shape,
            _indptr(self._row_ids()[keep], self.nrows),
            self.indices[keep],
            self.data[keep],
            sorted_indices=True,
            check=False,
        )

    def replace_rows(self, rows: np.ndarray, source: "CSR") -> "CSR":
        """Splice ``source``'s rows ``rows`` into this matrix.

        The delta-patch primitive of :mod:`repro.engine.delta`: the result
        keeps this matrix's rows everywhere except ``rows``, which are
        taken verbatim (indices *and* values) from the equal-shaped
        ``source``.  One vectorised ``O(nnz)`` scatter — no COO round
        trip, no re-sort — so patching a cached result costs the payload
        copy, not a rebuild.  Both matrices must carry the
        ``sorted_indices`` invariant (every engine product does); the
        result carries it too.  ``rows`` may be unsorted or contain
        duplicates; an empty ``rows`` returns ``self`` unchanged.
        """
        if source.shape != self.shape:
            raise ValueError(
                f"replace_rows requires an equal-shaped source: "
                f"{self.shape} vs {source.shape}"
            )
        if not (self.sorted_indices and source.sorted_indices):
            raise ValueError(
                "replace_rows requires sorted_indices on both matrices; "
                "call sort_indices() first"
            )
        rows = sorted_unique(np.asarray(rows, dtype=INDEX_DTYPE))
        if rows.size == 0:
            return self
        if int(rows[0]) < 0 or int(rows[-1]) >= self.nrows:
            raise ValueError("row index out of range")
        sel = np.zeros(self.nrows, dtype=bool)
        sel[rows] = True
        counts = np.where(sel, np.diff(source.indptr), np.diff(self.indptr))
        indptr = np.zeros(self.nrows + 1, dtype=INDEX_DTYPE)
        np.cumsum(counts, out=indptr[1:])
        nnz = int(indptr[-1])
        dtype = np.result_type(self.data.dtype, source.data.dtype)
        indices = np.empty(nnz, dtype=INDEX_DTYPE)
        data = np.empty(nnz, dtype=dtype)
        for mat, pick in ((self, ~sel), (source, sel)):
            take = np.flatnonzero(pick)
            lens = np.diff(mat.indptr)[take]
            total = int(lens.sum())
            if not total:
                continue
            rep = np.repeat(np.arange(take.size, dtype=INDEX_DTYPE), lens)
            off = np.arange(total, dtype=INDEX_DTYPE) - np.repeat(
                np.cumsum(lens) - lens, lens
            )
            src = mat.indptr[take][rep] + off
            dst = indptr[take][rep] + off
            indices[dst] = mat.indices[src]
            data[dst] = mat.data[src]
        return CSR(
            self.shape, indptr, indices, data, sorted_indices=True, check=False
        )

    def permute(self, perm: np.ndarray) -> "CSR":
        """Symmetric permutation ``P A P^T`` for a square matrix: row and
        column ``i`` of the result is row/column ``perm[i]`` of ``self``."""
        if self.nrows != self.ncols:
            raise ValueError("permute requires a square matrix")
        perm = np.asarray(perm, dtype=INDEX_DTYPE)
        if perm.shape != (self.nrows,) or not np.array_equal(
            np.sort(perm), np.arange(self.nrows)
        ):
            raise ValueError("perm must be a permutation of range(n)")
        inv = np.empty_like(perm)
        inv[perm] = np.arange(self.nrows, dtype=INDEX_DTYPE)
        rows, cols, vals = self.to_coo()
        return CSR.from_coo(self.shape, inv[rows], inv[cols], vals)

    def tril(self, k: int = -1) -> "CSR":
        """Lower-triangular part (entries with ``col - row <= k``)."""
        return self._keep_entries(self.indices - self._row_ids() <= k)

    def triu(self, k: int = 1) -> "CSR":
        """Upper-triangular part (entries with ``col - row >= k``)."""
        return self._keep_entries(self.indices - self._row_ids() >= k)

    # ------------------------------------------------------------------
    # comparisons
    # ------------------------------------------------------------------
    def equals(self, other: "CSR", *, rtol: float = 1e-10, atol: float = 1e-12) -> bool:
        """Structural and numerical equality (after canonicalisation)."""
        if self.shape != other.shape:
            return False
        a, b = self.sort_indices(), other.sort_indices()
        if a.nnz != b.nnz:
            return False
        return (
            np.array_equal(a.indptr, b.indptr)
            and np.array_equal(a.indices, b.indices)
            and np.allclose(a.data, b.data, rtol=rtol, atol=atol)
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CSR(shape={self.shape}, nnz={self.nnz}, "
            f"sorted={self.sorted_indices}, dtype={self.data.dtype})"
        )
