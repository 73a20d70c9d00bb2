"""Vectorized MSA kernel.

The fast counterpart of Algorithm 2: per row batch it

1. marks allowed positions by scattering the mask into a dense state array
   (``set_allowed``),
2. scatters the allowed products into a dense value array with the
   semiring's ``add_ufunc.at`` (``insert``; masked-out products are filtered
   *before* the multiply-accumulate, preserving the lazy-evaluation
   semantics of the INSERT lambda),
3. gathers the output through the mask in mask order (``remove``), which
   keeps the row sorted exactly as the reference does.

The dense arrays cover ``batch_rows x ncols`` and are reused across batches
— the same "dirty-cell reset" trick the scalar MSA uses, amortised — and,
via the scratch arena (:mod:`repro.core.kernels.arena`), across *calls*:
iterative workloads re-lease the same state/value buffers instead of
reallocating and re-zeroing them every invocation.

Two batching tiers (``batch=`` knob, see :mod:`repro.core.kernels.batch`):

* ``"perrow"`` — the historical contiguous flop-budget row blocks;
* ``"bucket"`` — rows grouped by power-of-two flops/row size class and run
  as whole-array chunks with keys-only (lazily multiplied) expansion, plus
  direct-to-CSR output via :class:`~repro.core.kernels.batch.FusedSlab`
  when a two-phase symbolic bound (``row_nnz``) is supplied.

Both tiers produce bit-for-bit identical matrices and ``OpCounter`` totals
— every charged quantity is a per-row sum, invariant to row grouping.

The complemented variant flips step 1/2's membership test and gathers
through the set of actually-touched positions instead of the mask.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ...machine import OpCounter
from ...observe import probes as _probes
from ...observe.tracer import traced_kernel
from ...semiring import PLUS_TIMES, Semiring
from ...sparse import CSR, sorted_unique
from .arena import get_arena
from .batch import FusedSlab, bucket_batches, expand_keys, per_row_flops, \
    resolve_tier, rows_entries
from .compiled import add_at as _c_add_at
from .expand import DEFAULT_FLOP_BUDGET, expand_products, iter_row_blocks

__all__ = ["masked_spgemm_msa_fast"]


@traced_kernel("msa")
def masked_spgemm_msa_fast(
    a: CSR,
    b: CSR,
    mask: CSR,
    *,
    complement: bool = False,
    semiring: Semiring = PLUS_TIMES,
    counter: Optional[OpCounter] = None,
    flop_budget: int = DEFAULT_FLOP_BUDGET,
    dense_budget: int = 1 << 22,
    batch: str = "auto",
    row_nnz: Optional[np.ndarray] = None,
) -> CSR:
    """Vectorized MSA masked SpGEMM (see module docs).

    ``batch`` selects the batching tier (``"auto"`` | ``"bucket"`` |
    ``"perrow"``); ``row_nnz`` optionally carries the exact two-phase
    symbolic bound, enabling fused direct-to-CSR output on the bucketed
    tier (ignored on the per-row tier).
    """
    a = a.sort_indices()
    b = b.sort_indices()
    mask = mask.sort_indices()
    n = b.ncols
    max_width = max(1, dense_budget // max(1, n))
    per_row = per_row_flops(a, b)
    tier = resolve_tier(a, b, batch, per_row=per_row)
    ident = semiring.add_identity
    add_at = semiring.add_ufunc.at

    out_rows = []
    out_cols = []
    out_vals = []
    slab = (
        FusedSlab((a.nrows, n), row_nnz)
        if tier == "bucket" and row_nnz is not None
        else None
    )

    def blocks():
        # flop-budget blocks, further split so width * n dense cells fit the
        # dense budget (the MSA's working set)
        for blo, bhi in iter_row_blocks(a, b, flop_budget):
            for sub in range(blo, bhi, max_width):
                yield sub, min(bhi, sub + max_width)

    # dense per-batch accumulators, addressed by local_row * n + col; leased
    # from the arena so iterative callers reuse them across invocations (the
    # per-batch dirty-cell resets below are exactly the arena's cleanliness
    # contract)
    arena = get_arena()
    with arena.lease("msa.state", np.bool_, False) as state_lease, \
            arena.lease(("msa.values", float(ident)), np.float64, ident) as values_lease, \
            arena.lease("msa.set", np.bool_, False) as set_lease:
        if tier == "bucket":
            _msa_bucketed(
                a, b, mask, per_row, n, complement, semiring, counter,
                flop_budget, max_width, state_lease, values_lease, set_lease,
                slab, out_rows, out_cols, out_vals,
            )
        else:
            _msa_blocks(
                a, b, mask, blocks(), n, complement, semiring, counter,
                add_at, ident, state_lease, values_lease,
                out_rows, out_cols, out_vals,
            )

    if slab is not None:
        c = slab.finish()
        if counter is not None:
            counter.output_nnz += c.nnz
        return c
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


def _msa_bucketed(
    a, b, mask, per_row, n, complement, semiring, counter, flop_budget,
    max_width, state_lease, values_lease, set_lease, slab,
    out_rows, out_cols, out_vals,
):
    """The bucketed tier: one whole-array pass per same-size-class chunk."""
    pr = _probes._INSTALLED
    ident = semiring.add_identity
    mult = semiring.mult_ufunc
    add_ufunc = semiring.add_ufunc
    nn = np.int64(n)
    for bkt, rows in bucket_batches(per_row, flop_budget, width_cap=max_width):
        need = rows.size * n
        state = state_lease.require(need)
        values = values_lease.require(need)
        m_pos, m_local = rows_entries(mask.indptr, rows)
        m_cols = mask.indices[m_pos]
        m_flat = m_local * nn + m_cols
        nm = int(m_flat.shape[0])
        if bkt:
            p_local, p_src, p_bpos = expand_keys(a, b, rows)
            p_flat = p_local * nn + b.indices[p_bpos]
        else:
            p_src = p_bpos = p_flat = np.empty(0, dtype=np.int64)
        if counter is not None:
            counter.accum_allowed += nm
            counter.accum_inserts += int(p_flat.shape[0])
        if pr is not None:
            pr.hist("batch.bucket_occupancy").record(int(rows.size))

        if complement:
            state[m_flat] = True  # True == forbidden in this mode
            keep = ~state[p_flat]
            kept = p_flat[keep]
            vals_kept = np.asarray(
                mult(a.data[p_src[keep]], b.data[p_bpos[keep]]),
                dtype=np.float64,
            )
            _c_add_at(values, kept, vals_kept, add_ufunc)
            if counter is not None:
                counter.flops += int(keep.sum())
            touched = sorted_unique(kept)
            gathered = values[touched].copy()
            g_rows = rows[touched // nn]
            g_cols = touched % nn
            # reset only the dirtied cells
            values[touched] = ident
            state[m_flat] = False
            if counter is not None:
                counter.accum_removes += int(touched.shape[0])
                counter.spa_resets += int(touched.shape[0] + nm)
            if pr is not None:
                pr.hist("msa.reset_cells").record(int(touched.shape[0] + nm))
        else:
            state[m_flat] = True  # True == ALLOWED
            keep = state[p_flat]
            kept = p_flat[keep]
            vals_kept = np.asarray(
                mult(a.data[p_src[keep]], b.data[p_bpos[keep]]),
                dtype=np.float64,
            )
            _c_add_at(values, kept, vals_kept, add_ufunc)
            if counter is not None:
                counter.flops += int(keep.sum())
            is_set = set_lease.require(need)
            is_set[kept] = True
            emit = is_set[m_flat]
            sel = m_flat[emit]
            gathered = values[sel].copy()
            g_rows = rows[m_local[emit]]
            g_cols = m_cols[emit]
            values[m_flat] = ident
            state[m_flat] = False
            is_set[kept] = False
            if counter is not None:
                counter.accum_removes += nm
                counter.spa_resets += nm
            if pr is not None:
                pr.hist("msa.touched_per_mask_pct").record(
                    int(100 * int(emit.sum()) // max(1, nm))
                )
                pr.hist("msa.reset_cells").record(nm)
                if rows.size:
                    hits = np.bincount(m_local[emit], minlength=rows.size)
                    pr.hist("mask.row_hits").record_array(hits)
                    pr.hist("mask.row_misses").record_array(
                        np.bincount(m_local, minlength=rows.size) - hits
                    )
        if slab is not None:
            slab.write(g_rows, g_cols, gathered)
        elif g_rows.shape[0]:
            out_rows.append(g_rows)
            out_cols.append(g_cols)
            out_vals.append(gathered)


def _msa_blocks(
    a, b, mask, blocks, n, complement, semiring, counter, add_at, ident,
    state_lease, values_lease, out_rows, out_cols, out_vals,
):
    """The per-row tier's block loop over leased dense scratch."""
    pr = _probes._INSTALLED  # one read; recordings below are per block
    for lo, hi in blocks:
        width = hi - lo
        need = width * n
        state = state_lease.require(need)
        values = values_lease.require(need)
        mlo, mhi = int(mask.indptr[lo]), int(mask.indptr[hi])
        m_rows_local = (
            np.repeat(np.arange(lo, hi, dtype=np.int64), np.diff(mask.indptr[lo : hi + 1]))
            - lo
        )
        m_cols = mask.indices[mlo:mhi]
        m_flat = m_rows_local * np.int64(n) + m_cols

        prod_rows, prod_cols, prod_vals = expand_products(a, b, lo, hi, semiring)
        p_flat = (prod_rows - lo) * np.int64(n) + prod_cols
        if counter is not None:
            counter.accum_allowed += int(m_flat.shape[0])
            counter.accum_inserts += int(p_flat.shape[0])

        if complement:
            # mark mask positions NOTALLOWED, keep products outside them
            state[m_flat] = True  # True == forbidden in this mode
            keep = ~state[p_flat]
            kept = p_flat[keep]
            add_at(values, kept, prod_vals[keep])
            if counter is not None:
                counter.flops += int(keep.sum())
            touched = sorted_unique(kept)
            gathered = values[touched]
            out_rows.append(touched // n + lo)
            out_cols.append(touched % n)
            out_vals.append(gathered)
            # reset only the dirtied cells
            values[touched] = ident
            state[m_flat] = False
            if counter is not None:
                counter.accum_removes += int(touched.shape[0])
                counter.spa_resets += int(touched.shape[0] + m_flat.shape[0])
            if pr is not None:
                pr.hist("msa.reset_cells").record(
                    int(touched.shape[0] + m_flat.shape[0])
                )
        else:
            state[m_flat] = True  # True == ALLOWED
            keep = state[p_flat]
            kept = p_flat[keep]
            add_at(values, kept, prod_vals[keep])
            if counter is not None:
                counter.flops += int(keep.sum())
            # mark SET positions: a parallel boolean scatter
            is_set = np.zeros_like(state)
            is_set[kept] = True
            emit = is_set[m_flat]
            gathered = values[m_flat[emit]]
            out_rows.append(m_rows_local[emit] + lo)
            out_cols.append(m_cols[emit])
            out_vals.append(gathered)
            values[m_flat] = ident
            state[m_flat] = False
            if counter is not None:
                counter.accum_removes += int(m_flat.shape[0])
                counter.spa_resets += int(m_flat.shape[0])
            if pr is not None:
                # touched cells vs nnz(m): what fraction of the mask's dense
                # footprint the row block actually used (the reset-list
                # amortisation the paper's Section 5.2 argues for)
                nm = int(m_flat.shape[0])
                pr.hist("msa.touched_per_mask_pct").record(
                    int(100 * int(emit.sum()) // max(1, nm))
                )
                pr.hist("msa.reset_cells").record(nm)
                if hi > lo:
                    hits = np.bincount(
                        m_rows_local[emit], minlength=hi - lo
                    )
                    pr.hist("mask.row_hits").record_array(hits)
                    pr.hist("mask.row_misses").record_array(
                        np.bincount(m_rows_local, minlength=hi - lo) - hits
                    )
