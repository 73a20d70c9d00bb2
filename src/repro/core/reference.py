"""Reference (pseudocode-faithful) masked SpGEVM/SpGEMM implementations.

Each function here transcribes one algorithm of the paper as directly as
Python allows, operating row-by-row via the accumulator interface of
Section 5.1 and instrumented with an :class:`repro.machine.OpCounter`.
They are the *specification*: slow, obviously-correct, and the source of
the operation profiles the machine model consumes.  The vectorized fast
paths live in :mod:`repro.core.kernels` and are tested for exact agreement
with these references.

Naming follows the paper: ``u`` is the current row of A, ``m`` the current
row of the mask, ``v`` the output row being produced.
"""

from __future__ import annotations

import heapq
import math
from typing import List, Optional, Tuple

import numpy as np

from ..machine import OpCounter
from ..semiring import PLUS_TIMES, Semiring
from ..sparse import CSR, CSC
from .accumulators import (
    MCA,
    MSA,
    HashAccumulator,
    HashComplement,
    MSAComplement,
    MaskIterator,
    MaskedAccumulator,
    RowIterator,
    heap_insert,
    heap_pop,
)

__all__ = [
    "spgevm_esc",
    "spgevm_accumulator",
    "spgevm_accumulator_complement",
    "spgevm_mca",
    "spgevm_heap",
    "spgevm_heap_complement",
    "spgevm_inner",
    "masked_spgemm_reference",
    "gustavson_spgemm",
    "REFERENCE_ALGOS",
]


# ----------------------------------------------------------------------
# Masked SpGEVM: v = m .* (u @ B)  — one output row
# ----------------------------------------------------------------------
def spgevm_accumulator(
    m_cols: np.ndarray,
    u_cols: np.ndarray,
    u_vals: np.ndarray,
    b: CSR,
    accum: MaskedAccumulator,
    semiring: Semiring,
) -> Tuple[List[int], List[float]]:
    """Algorithm 2 (MSA) — also drives the Hash accumulator, which shares
    the interface.  Three steps: mark allowed keys from the mask, insert all
    products (lazily), gather through the mask in mask order."""
    for j in m_cols:
        accum.set_allowed(int(j))
    mult = semiring.mult
    for k, uk in zip(u_cols, u_vals):
        b_cols, b_vals = b.row(int(k))
        uk_f = float(uk)
        for j, bkj in zip(b_cols, b_vals):
            accum.insert(int(j), lambda uk_f=uk_f, bkj=float(bkj): mult(uk_f, bkj))
    out_cols: List[int] = []
    out_vals: List[float] = []
    for j in m_cols:
        value = accum.remove(int(j))
        if value is not None:
            out_cols.append(int(j))
            out_vals.append(value)
    return out_cols, out_vals


def spgevm_accumulator_complement(
    m_cols: np.ndarray,
    u_cols: np.ndarray,
    u_vals: np.ndarray,
    b: CSR,
    accum: MaskedAccumulator,
    semiring: Semiring,
) -> Tuple[List[int], List[float]]:
    """Complemented-mask variant (Section 5.2, last paragraph): the default
    state is ALLOWED, mask entries are marked NOTALLOWED, and the gather
    walks the accumulator's inserted-key list (sorted for a sorted output)
    instead of the mask."""
    for j in m_cols:
        accum.set_not_allowed(int(j))
    mult = semiring.mult
    for k, uk in zip(u_cols, u_vals):
        b_cols, b_vals = b.row(int(k))
        uk_f = float(uk)
        for j, bkj in zip(b_cols, b_vals):
            accum.insert(int(j), lambda uk_f=uk_f, bkj=float(bkj): mult(uk_f, bkj))
    out_cols = sorted(accum.inserted_keys())
    out_vals: List[float] = []
    kept: List[int] = []
    for j in out_cols:
        value = accum.remove(int(j))
        if value is not None:
            kept.append(int(j))
            out_vals.append(value)
    return kept, out_vals


def spgevm_mca(
    m_cols: np.ndarray,
    u_cols: np.ndarray,
    u_vals: np.ndarray,
    b: CSR,
    accum: MCA,
    semiring: Semiring,
    counter: OpCounter,
) -> Tuple[List[int], List[float]]:
    """Algorithm 3 (MCA): for each nonzero u_k, two-pointer-merge the sorted
    B row against the sorted mask row; matches are inserted at the mask
    *rank* (idx), which is the compressed key."""
    mult = semiring.mult
    for k, uk in zip(u_cols, u_vals):
        b_cols, b_vals = b.row(int(k))
        uk_f = float(uk)
        r = 0
        rlen = len(b_cols)
        for idx in range(len(m_cols)):
            j = int(m_cols[idx])
            counter.mask_scans += 1
            while r < rlen and int(b_cols[r]) < j:
                r += 1
            if r >= rlen:
                break
            if int(b_cols[r]) == j:
                accum.insert(idx, mult(uk_f, float(b_vals[r])))
    out_cols: List[int] = []
    out_vals: List[float] = []
    for idx in range(len(m_cols)):
        value = accum.remove(idx)
        if value is not None:
            out_cols.append(int(m_cols[idx]))
            out_vals.append(value)
    return out_cols, out_vals


def spgevm_heap(
    m_cols: np.ndarray,
    u_cols: np.ndarray,
    u_vals: np.ndarray,
    b: CSR,
    semiring: Semiring,
    counter: OpCounter,
    n_inspect: float = 1,
) -> Tuple[List[int], List[float]]:
    """Algorithm 4 (Heap): merge the scaled B rows through a min-heap of row
    iterators and 2-way-merge the merged stream against the sorted mask.
    ``n_inspect`` is the Algorithm-5 parameter (1 = Heap, inf = HeapDot)."""
    mask_iter = MaskIterator(np.asarray(m_cols, dtype=np.int64))
    pq: List[RowIterator] = []
    for k, uk in zip(u_cols, u_vals):
        b_cols, b_vals = b.row(int(k))
        it = RowIterator(b_cols, b_vals, int(k), float(uk))
        heap_insert(pq, it, mask_iter, n_inspect, counter)
    out_cols: List[int] = []
    out_vals: List[float] = []
    prev_key: Optional[int] = None
    mult, add = semiring.mult, semiring.add
    while pq:
        min_iter = heap_pop(pq, counter)
        # advance the shared mask cursor to the stream position
        while mask_iter.valid() and mask_iter.col < min_iter.col:
            counter.mask_scans += 1
            mask_iter.advance()
        if not mask_iter.valid():
            break
        if mask_iter.col == min_iter.col:
            j = min_iter.col
            counter.flops += 1
            prod = mult(min_iter.scale, min_iter.val)
            if prev_key == j:
                out_vals[-1] = add(out_vals[-1], prod)
            else:
                prev_key = j
                out_cols.append(j)
                out_vals.append(prod)
        heap_insert(pq, min_iter.advance(), mask_iter, n_inspect, counter)
    return out_cols, out_vals


def spgevm_heap_complement(
    m_cols: np.ndarray,
    u_cols: np.ndarray,
    u_vals: np.ndarray,
    b: CSR,
    semiring: Semiring,
    counter: OpCounter,
) -> Tuple[List[int], List[float]]:
    """Heap scheme for complemented masks (Section 5.5, last paragraph):
    emit products whose column is in the merged stream but NOT in the mask.
    NInspect is always 0 in this mode."""
    mcols = np.asarray(m_cols, dtype=np.int64)
    mpos = 0
    mlen = len(mcols)
    pq: List[RowIterator] = []
    for k, uk in zip(u_cols, u_vals):
        b_cols, b_vals = b.row(int(k))
        it = RowIterator(b_cols, b_vals, int(k), float(uk))
        if it.valid():
            heapq.heappush(pq, it)
            counter.heap_pushes += 1
    out_cols: List[int] = []
    out_vals: List[float] = []
    prev_key: Optional[int] = None
    mult, add = semiring.mult, semiring.add
    while pq:
        min_iter = heap_pop(pq, counter)
        j = min_iter.col
        while mpos < mlen and int(mcols[mpos]) < j:
            counter.mask_scans += 1
            mpos += 1
        masked_out = mpos < mlen and int(mcols[mpos]) == j
        if not masked_out:
            counter.flops += 1
            prod = mult(min_iter.scale, min_iter.val)
            if prev_key == j:
                out_vals[-1] = add(out_vals[-1], prod)
            else:
                prev_key = j
                out_cols.append(j)
                out_vals.append(prod)
        it = min_iter.advance()
        if it.valid():
            heapq.heappush(pq, it)
            counter.heap_pushes += 1
    return out_cols, out_vals


def spgevm_inner(
    cells: np.ndarray,
    u_cols: np.ndarray,
    u_vals: np.ndarray,
    b_csc: CSC,
    semiring: Semiring,
    counter: OpCounter,
) -> Tuple[List[int], List[float]]:
    """Pull-based algorithm (Section 4.1): one sorted-merge dot product
    ``u . B[:,j]`` per candidate column j — the mask's nonzeros, or under a
    complemented mask the columns outside it."""
    out_cols: List[int] = []
    out_vals: List[float] = []
    mult, add = semiring.mult, semiring.add
    for j in cells:
        col_rows, col_vals = b_csc.col(int(j))
        counter.mask_scans += 1
        # sorted two-pointer intersection of u and B[:, j]
        p, q = 0, 0
        acc = None
        ulen, clen = len(u_cols), len(col_rows)
        while p < ulen and q < clen:
            uk = int(u_cols[p])
            rk = int(col_rows[q])
            if uk == rk:
                counter.flops += 1
                prod = mult(float(u_vals[p]), float(col_vals[q]))
                acc = prod if acc is None else add(acc, prod)
                p += 1
                q += 1
            elif uk < rk:
                p += 1
            else:
                q += 1
        if acc is not None:
            counter.useful_flops += 1
            out_cols.append(int(j))
            out_vals.append(acc)
    return out_cols, out_vals


def spgevm_esc(
    m_cols: np.ndarray,
    u_cols: np.ndarray,
    u_vals: np.ndarray,
    b: CSR,
    semiring: Semiring,
    counter: OpCounter,
    *,
    complement: bool = False,
) -> Tuple[List[int], List[float]]:
    """Masked Expand-Sort-Compress (extension; see kernels.esc_kernel):
    expand all products of the row, filter through the mask, sort by
    column, compress runs with the semiring add."""
    allowed = set(int(j) for j in m_cols)
    mult, add = semiring.mult, semiring.add
    pairs: List[Tuple[int, float]] = []
    for k, uk in zip(u_cols, u_vals):
        b_cols, b_vals = b.row(int(k))
        uk_f = float(uk)
        for j, bkj in zip(b_cols, b_vals):
            counter.accum_inserts += 1
            inside = int(j) in allowed
            if inside != complement:
                counter.flops += 1
                pairs.append((int(j), mult(uk_f, float(bkj))))
    pairs.sort(key=lambda p: p[0])
    out_cols: List[int] = []
    out_vals: List[float] = []
    for j, v in pairs:
        if out_cols and out_cols[-1] == j:
            out_vals[-1] = add(out_vals[-1], v)
        else:
            out_cols.append(j)
            out_vals.append(v)
    return out_cols, out_vals


# ----------------------------------------------------------------------
# Full-matrix drivers
# ----------------------------------------------------------------------
REFERENCE_ALGOS = ("inner", "msa", "hash", "mca", "heap", "heapdot", "esc")


def masked_spgemm_reference(
    a: CSR,
    b: CSR,
    mask: CSR,
    *,
    algo: str = "msa",
    complement: bool = False,
    semiring: Semiring = PLUS_TIMES,
    counter: Optional[OpCounter] = None,
    b_csc: Optional[CSC] = None,
) -> CSR:
    """Row-by-row masked SpGEMM ``C = M .* (A @ B)`` using the named
    reference algorithm.  See :func:`repro.core.masked_spgemm` for the
    user-facing dispatcher (which can also select the fast kernels and the
    1P/2P output formation).
    """
    algo = algo.lower()
    if algo not in REFERENCE_ALGOS:
        raise ValueError(f"unknown algorithm {algo!r}; expected one of {REFERENCE_ALGOS}")
    if a.ncols != b.nrows:
        raise ValueError("inner dimensions of A and B do not agree")
    if mask.shape != (a.nrows, b.ncols):
        raise ValueError("mask shape must match output shape")
    if complement and algo == "mca":
        raise ValueError(f"{algo} does not support complemented masks")
    a = a.sort_indices()
    b = b.sort_indices()
    mask = mask.sort_indices()
    counter = counter if counter is not None else OpCounter()
    add, ident = semiring.add, semiring.add_identity

    out_rows: List[int] = []
    out_cols: List[int] = []
    out_vals: List[float] = []

    if algo == "inner":
        csc = b_csc if b_csc is not None else CSC.from_csr(b)
        all_cols = np.arange(b.ncols, dtype=np.int64)
        for i in range(a.nrows):
            m_cols, _ = mask.row(i)
            u_cols, u_vals = a.row(i)
            if complement:
                # pull over !M: every column outside M[i, :] of a row with
                # A entries (an empty A row has nothing to pull)
                if len(u_cols) == 0:
                    continue
                cells = np.setdiff1d(all_cols, m_cols)
            elif len(m_cols) == 0:
                continue
            else:
                cells = m_cols
            cols, vals = spgevm_inner(cells, u_cols, u_vals, csc, semiring, counter)
            out_rows.extend([i] * len(cols))
            out_cols.extend(cols)
            out_vals.extend(vals)
    elif algo in ("msa", "hash"):
        accum: Optional[MaskedAccumulator] = None
        if algo == "msa":
            accum = (
                MSAComplement(b.ncols, add, ident, counter)
                if complement
                else MSA(b.ncols, add, ident, counter)
            )
        for i in range(a.nrows):
            m_cols, _ = mask.row(i)
            u_cols, u_vals = a.row(i)
            if not complement and (len(m_cols) == 0 or len(u_cols) == 0):
                continue
            if complement and len(u_cols) == 0:
                continue
            if algo == "hash":
                if complement:
                    # bound: the row's unmasked product size
                    bound = int(sum(len(b.row(int(k))[0]) for k in u_cols))
                    accum = HashComplement(max(1, bound), add, ident, counter)
                else:
                    accum = HashAccumulator(max(1, len(m_cols)), add, ident, counter)
            if complement:
                cols, vals = spgevm_accumulator_complement(
                    m_cols, u_cols, u_vals, b, accum, semiring
                )
            else:
                cols, vals = spgevm_accumulator(
                    m_cols, u_cols, u_vals, b, accum, semiring
                )
            accum.reset()
            out_rows.extend([i] * len(cols))
            out_cols.extend(cols)
            out_vals.extend(vals)
    elif algo == "mca":
        for i in range(a.nrows):
            m_cols, _ = mask.row(i)
            u_cols, u_vals = a.row(i)
            if len(m_cols) == 0 or len(u_cols) == 0:
                continue
            accum = MCA(len(m_cols), add, ident, counter)
            cols, vals = spgevm_mca(m_cols, u_cols, u_vals, b, accum, semiring, counter)
            out_rows.extend([i] * len(cols))
            out_cols.extend(cols)
            out_vals.extend(vals)
    elif algo == "esc":
        for i in range(a.nrows):
            m_cols, _ = mask.row(i)
            u_cols, u_vals = a.row(i)
            if len(u_cols) == 0:
                continue
            if not complement and len(m_cols) == 0:
                continue
            cols, vals = spgevm_esc(
                m_cols, u_cols, u_vals, b, semiring, counter,
                complement=complement,
            )
            out_rows.extend([i] * len(cols))
            out_cols.extend(cols)
            out_vals.extend(vals)
    else:  # heap / heapdot
        n_inspect = math.inf if algo == "heapdot" else 1
        for i in range(a.nrows):
            m_cols, _ = mask.row(i)
            u_cols, u_vals = a.row(i)
            if len(u_cols) == 0:
                continue
            if complement:
                cols, vals = spgevm_heap_complement(
                    m_cols, u_cols, u_vals, b, semiring, counter
                )
            else:
                if len(m_cols) == 0:
                    continue
                cols, vals = spgevm_heap(
                    m_cols, u_cols, u_vals, b, semiring, counter, n_inspect
                )
            out_rows.extend([i] * len(cols))
            out_cols.extend(cols)
            out_vals.extend(vals)

    counter.output_nnz += len(out_cols)
    c = CSR.from_coo(
        (a.nrows, b.ncols),
        np.asarray(out_rows, dtype=np.int64),
        np.asarray(out_cols, dtype=np.int64),
        np.asarray(out_vals, dtype=np.float64),
    )
    # semiring zeros may legitimately appear (e.g. sums cancelling); keep
    # them, as GraphBLAS does — structure is meaningful.
    return c


def gustavson_spgemm(
    a: CSR,
    b: CSR,
    *,
    semiring: Semiring = PLUS_TIMES,
    counter: Optional[OpCounter] = None,
) -> CSR:
    """Plain (unmasked) row-parallel Gustavson SpGEMM — Algorithm 1.  Used
    as the multiply-then-mask baseline of Figure 1 and by the apps when no
    mask applies."""
    if a.ncols != b.nrows:
        raise ValueError("inner dimensions of A and B do not agree")
    counter = counter if counter is not None else OpCounter()
    add, mult = semiring.add, semiring.mult
    out_rows: List[int] = []
    out_cols: List[int] = []
    out_vals: List[float] = []
    spa: dict = {}
    for i in range(a.nrows):
        u_cols, u_vals = a.row(i)
        if len(u_cols) == 0:
            continue
        spa.clear()
        for k, uk in zip(u_cols, u_vals):
            b_cols, b_vals = b.row(int(k))
            uk_f = float(uk)
            for j, bkj in zip(b_cols, b_vals):
                counter.flops += 1
                prod = mult(uk_f, float(bkj))
                jj = int(j)
                if jj in spa:
                    spa[jj] = add(spa[jj], prod)
                else:
                    spa[jj] = prod
        for jj in sorted(spa):
            out_rows.append(i)
            out_cols.append(jj)
            out_vals.append(spa[jj])
    counter.output_nnz += len(out_cols)
    return CSR.from_coo(
        (a.nrows, b.ncols),
        np.asarray(out_rows, dtype=np.int64),
        np.asarray(out_cols, dtype=np.int64),
        np.asarray(out_vals, dtype=np.float64),
    )
