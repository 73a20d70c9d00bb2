"""Vectorized Inner (pull-based dot-product) kernel.

The fast counterpart of Section 4.1: for every output cell ``(i, j)`` the
kernel may produce, compute the sparse dot product ``A[i,:] . B[:,j]`` with
``B`` in CSC.  The cells are the mask's nonzeros, or — with
``complement=True`` — every column *not* in ``M[i,:]`` of each row that has
A entries (pulling over the complement of the mask: the direction-optimising
regime of push-pull BFS/BC, where the visited set is large and the product
mostly lands on it).

Vectorization strategy — the kernel visits only rows with cells (rows with
A entries and, for a plain mask, mask entries), in blocks; per block:

1. scatter the block's A rows into a dense **position map**
   ``pos[local_i * ncols(A) + k] = index of A[i,k]`` (``-1`` elsewhere).
   When ``rows * ncols(A)`` cells do not fit, the A columns the rows touch
   are first numbered ``1..w`` in a column map (``0`` = untouched) and the
   map is ``pos[local_i * (w + 1) + id(k)]`` (column 0 never matches), so
   its size follows the columns the block touches, not ``ncols(A)``.  Both
   buffers are leased from the scratch arena and reset only at the cells
   written — MSA's dirty-cell trick, so a block costs ``O(nnz(A rows))``
   to set up;
2. enumerate the block's cells (mask entries, or the complement cells) and
   expand the CSC column of each: every cell pulls the ``(k, value)`` pairs
   of ``B[:,j]`` (this *is* the pull traffic, the paper's
   ``nnz(M) * nnz(B)/n``);
3. look each pulled ``k`` up in the map (one gather, two through the
   column map), multiply the matches and accumulate them per cell with the
   semiring add.  Columns of the CSC are sorted by ``k``, so every cell
   accumulates in ascending ``k`` — the order MSA adds the same products
   in, hence bit-identical values.

A block holds about ``pull_budget`` pulls, and at most
:data:`~repro.core.kernels.batch.DENSE_BUDGET` map cells, bounded before the
block is cut by ``rows * min(ncols(A), nnz(A rows) + 1)`` — and, under a
complemented mask, at most that many complement cells (``rows * ncols(B)``).
Cells with no matched product produce no output entry (the paper's note
under Figure 1: the mask can contain entries the product never makes).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ...machine import OpCounter
from ...observe.tracer import traced_kernel
from ...semiring import PLUS_TIMES, Semiring
from ...sparse import CSC, CSR
from .arena import get_arena
from .batch import DENSE_BUDGET, plan_flop_blocks, rows_entries
from .compiled import add_at as _c_add_at

__all__ = ["masked_spgemm_inner_fast"]

DEFAULT_PULL_BUDGET = 1 << 22


@traced_kernel("inner")
def masked_spgemm_inner_fast(
    a: CSR,
    b: CSR,
    mask: CSR,
    *,
    complement: bool = False,
    semiring: Semiring = PLUS_TIMES,
    counter: Optional[OpCounter] = None,
    b_csc: Optional[CSC] = None,
    pull_budget: int = DEFAULT_PULL_BUDGET,
) -> CSR:
    """Vectorized pull-based (Inner) masked SpGEMM (see module docs)."""
    a = a.sort_indices()
    mask = mask.sort_indices()
    n = b.ncols
    a_nnz = a.row_nnz()
    m_nnz = mask.row_nnz()
    has_a = a_nnz > 0
    if complement:
        # every column outside M[i, :] of a row with A entries is scanned
        scans = int((n - m_nnz[has_a]).sum())
    else:
        scans = mask.nnz
    if counter is not None:
        counter.mask_scans += scans
    if a.nnz == 0 or b.nnz == 0 or scans == 0:
        return CSR.empty((a.nrows, n))
    csc = b_csc if b_csc is not None else CSC.from_csr(b)
    col_nnz = csc.col_nnz()

    # the rows with cells, and their pulls (B entries read) + cells scanned:
    # the block planner's work measure
    cs = np.zeros(mask.nnz + 1, dtype=np.int64)
    np.cumsum(col_nnz[mask.indices], out=cs[1:])
    masked_pulls = cs[mask.indptr[1:]] - cs[mask.indptr[:-1]]
    if complement:
        visit = np.flatnonzero(has_a & (m_nnz < n))
        work = b.nnz - masked_pulls[visit] + n - m_nnz[visit]
    else:
        visit = np.flatnonzero(has_a & (m_nnz > 0))
        work = masked_pulls[visit]
    a_cum = np.zeros(visit.shape[0] + 1, dtype=np.int64)
    np.cumsum(a_nnz[visit], out=a_cum[1:])

    ident = semiring.add_identity
    mult = semiring.mult_ufunc
    add_ufunc = semiring.add_ufunc
    out_rows = []
    out_cols = []
    out_vals = []
    arena = get_arena()
    with arena.lease("inner.pos", np.int64, -1) as pos_lease, \
            arena.lease("inner.cols", np.int64, 0) as col_lease:
        colmap = col_lease.require(a.ncols)
        for plo, phi in plan_flop_blocks(work, pull_budget):
            for lo, hi in _map_blocks(a_cum, plo, phi, a.ncols, n if complement else 0):
                blk = visit[lo:hi]
                a_pos, a_loc = rows_entries(a.indptr, blk)
                a_cols = a.indices[a_pos]
                if (hi - lo) * a.ncols <= DENSE_BUDGET:
                    # the full-width map fits: columns are their own ids
                    touched, stride, a_ids = None, a.ncols, a_cols
                else:
                    # ids 1..w of the touched columns: one occurrence per
                    # column survives the scatter and names the column
                    seen = np.arange(a_cols.shape[0], dtype=np.int64)
                    colmap[a_cols] = seen
                    touched = a_cols[colmap[a_cols] == seen]
                    stride = touched.shape[0] + 1
                    colmap[touched] = np.arange(1, stride, dtype=np.int64)
                    a_ids = colmap[a_cols]
                posmap = pos_lease.require((hi - lo) * stride)
                a_flat = a_loc * stride + a_ids
                posmap[a_flat] = a_pos

                c_loc, c_cols = _block_cells(mask, blk, n, complement)
                starts = csc.indptr[c_cols]
                counts = col_nnz[c_cols]
                slot = np.repeat(np.arange(c_cols.shape[0], dtype=np.int64), counts)
                # flat CSC position of every pulled entry, cell by cell
                pull = np.arange(slot.shape[0], dtype=np.int64) + np.repeat(
                    starts - (np.cumsum(counts) - counts), counts
                )
                k_ids = csc.indices[pull]
                if touched is not None:
                    k_ids = colmap[k_ids]
                    colmap[touched] = 0
                a_idx = posmap[np.repeat(c_loc * stride, counts) + k_ids]
                posmap[a_flat] = -1  # reset only the dirtied cells
                match = a_idx >= 0
                mslots = slot[match]
                prods = np.asarray(
                    mult(a.data[a_idx[match]], csc.data[pull[match]]),
                    dtype=np.float64,
                )
                vals = np.full(c_cols.shape[0], ident, dtype=np.float64)
                _c_add_at(vals, mslots, prods, add_ufunc)
                hit = np.zeros(c_cols.shape[0], dtype=bool)
                hit[mslots] = True
                if counter is not None:
                    counter.flops += int(mslots.shape[0])
                    counter.useful_flops += int(np.count_nonzero(hit))
                out_rows.append(blk[c_loc[hit]])
                out_cols.append(c_cols[hit])
                out_vals.append(vals[hit])

    if out_rows:
        rows = np.concatenate(out_rows)
        cols = np.concatenate(out_cols)
        vals = np.concatenate(out_vals)
    else:
        rows = cols = np.empty(0, dtype=np.int64)
        vals = np.empty(0, dtype=np.float64)
    if counter is not None:
        counter.output_nnz += int(rows.shape[0])
    return CSR.from_coo((a.nrows, n), rows, cols, vals)


def _map_blocks(a_cum, lo, hi, width, cell_width):
    """Cut visited rows ``[lo, hi)`` into blocks whose position map —
    ``rows * min(width, A entries + 1)`` cells — and complement cells
    (``rows * cell_width``) fit :data:`DENSE_BUDGET`; at least one row each."""
    cap = hi - lo if cell_width == 0 else max(1, DENSE_BUDGET // cell_width)
    while lo < hi:
        base = int(a_cum[lo])
        good, bad = lo + 1, min(hi, lo + cap) + 1
        while bad - good > 1:
            mid = (good + bad) // 2
            cells = (mid - lo) * min(width, int(a_cum[mid]) - base + 1)
            if cells <= DENSE_BUDGET:
                good = mid
            else:
                bad = mid
        yield lo, good
        lo = good


def _block_cells(mask, blk, n, complement):
    """``(local_row, col)`` of the cells rows ``blk`` pull, in row then
    column order: their mask entries, or under a complemented mask the
    columns outside ``M[i, :]``."""
    m_pos, m_loc = rows_entries(mask.indptr, blk)
    m_cols = mask.indices[m_pos]
    if not complement:
        return m_loc, m_cols
    free = np.ones((blk.shape[0], n), dtype=bool)
    free[m_loc, m_cols] = False
    loc, cols = np.nonzero(free)
    return loc, cols.astype(np.int64, copy=False)
