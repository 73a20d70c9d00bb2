"""Row-granular structural diff of CSR operands.

The delta-aware engine (:mod:`repro.engine.delta`) needs to answer "which
rows of this operand changed since the previous call?" in time proportional
to the *change*, not the matrix.  Two tiers cooperate:

* :func:`block_digests` — a chunked digest vector: one blake2b digest per
  block of :data:`DELTA_BLOCK_ROWS` rows (per-row counts + the block's
  index slice, plus its value slice when ``values=True``).  Comparing two
  digest vectors (:func:`dirty_blocks`) localises every change to a block
  in ``O(nblocks)`` without touching clean payload bytes.
* :func:`changed_rows` — the exact per-row refinement, vectorised: rows
  whose counts differ are dirty outright; equal-count candidate rows are
  compared element-wise by mapping each new element back to its old
  position through the row pointers.  Restricted to the dirty blocks'
  candidate rows, this costs ``O(dirty-block nnz)``.

Values are compared **bitwise** (byte equality), not numerically: the
delta engine's contract is bit-for-bit identity with a full recompute, so
``-0.0`` vs ``0.0`` and NaN payload changes must count as changes.  A row
that merely reordered equal entries also counts as dirty — conservative,
never wrong.
"""

from __future__ import annotations

import hashlib
from typing import Optional

import numpy as np

from .csr import CSR, INDEX_DTYPE, sorted_unique

__all__ = [
    "DELTA_BLOCK_ROWS",
    "block_digests",
    "dirty_blocks",
    "changed_rows",
]

#: default row-block granularity of the chunked digest vector — small
#: enough that one flipped edge dirties a sliver of the digest work,
#: large enough that the vector stays tiny (nrows/256 digests)
DELTA_BLOCK_ROWS = 256


def _buf(arr: np.ndarray) -> memoryview:
    return memoryview(np.ascontiguousarray(arr))


def block_digests(
    mat: CSR, *, block_rows: int = DELTA_BLOCK_ROWS, values: bool = True
) -> np.ndarray:
    """Per-row-block digest vector of a CSR operand.

    Returns an ``("S16",)`` array of ``ceil(nrows / block_rows)`` blake2b
    digests; block ``i`` covers rows ``[i*block_rows, (i+1)*block_rows)``
    and digests the block's per-row counts, its index slice and (with
    ``values=True``) its value slice.  Equal blocks ⇒ equal digests;
    unequal digests ⇒ the block contains at least one changed row.
    """
    if block_rows <= 0:
        raise ValueError("block_rows must be positive")
    nrows = mat.nrows
    nblocks = -(-nrows // block_rows) if nrows else 0
    out = np.empty(nblocks, dtype="S16")
    counts = np.diff(mat.indptr)
    for bi in range(nblocks):
        lo = bi * block_rows
        hi = min(nrows, lo + block_rows)
        plo, phi = int(mat.indptr[lo]), int(mat.indptr[hi])
        h = hashlib.blake2b(digest_size=16)
        h.update(_buf(counts[lo:hi]))
        h.update(_buf(mat.indices[plo:phi]))
        if values:
            h.update(mat.data.dtype.str.encode())
            h.update(_buf(mat.data[plo:phi]))
        out[bi] = h.digest()
    return out


def dirty_blocks(old: np.ndarray, new: np.ndarray) -> np.ndarray:
    """Indices of blocks whose digests differ between two digest vectors
    (as produced by :func:`block_digests` with the same granularity)."""
    if old.shape != new.shape:
        raise ValueError(
            "digest vectors differ in length; the operands were digested "
            "with different shapes or block granularities"
        )
    return np.flatnonzero(old != new)


def changed_rows(
    old: CSR,
    new: CSR,
    *,
    rows: Optional[np.ndarray] = None,
    values: bool = True,
) -> np.ndarray:
    """Exact sorted array of rows on which ``old`` and ``new`` differ.

    ``rows`` restricts the comparison to candidate rows (the dirty blocks'
    rows); ``None`` compares every row.  With ``values=False`` only the
    structure (per-row counts and column indices) is compared — the mask
    case, whose stored values never influence the product.  Value bytes
    are compared bitwise (see module docs).
    """
    if old.shape != new.shape:
        raise ValueError(
            f"cannot diff operands of different shapes: {old.shape} vs {new.shape}"
        )
    if rows is None:
        cand = np.arange(new.nrows, dtype=INDEX_DTYPE)
    else:
        cand = sorted_unique(np.asarray(rows, dtype=INDEX_DTYPE))
        if cand.size and (int(cand[0]) < 0 or int(cand[-1]) >= new.nrows):
            raise ValueError("candidate row index out of range")
    if cand.size == 0:
        return cand
    old_counts = np.diff(old.indptr)
    new_counts = np.diff(new.indptr)
    count_diff = old_counts[cand] != new_counts[cand]
    dirty = [cand[count_diff]]
    eq = cand[~count_diff]
    lens = new_counts[eq]
    total = int(lens.sum())
    if total:
        rep = np.repeat(np.arange(eq.size, dtype=INDEX_DTYPE), lens)
        off = np.arange(total, dtype=INDEX_DTYPE) - np.repeat(
            np.cumsum(lens) - lens, lens
        )
        new_pos = new.indptr[eq][rep] + off
        old_pos = old.indptr[eq][rep] + off
        neq = new.indices[new_pos] != old.indices[old_pos]
        if values:
            nd, od = new.data[new_pos], old.data[old_pos]
            if nd.dtype != od.dtype:
                neq[:] = True
            else:
                byte_neq = nd.view(np.uint8).reshape(nd.size, -1) != od.view(
                    np.uint8
                ).reshape(od.size, -1)
                neq |= byte_neq.any(axis=1)
        if neq.any():
            hit = np.bincount(rep[neq], minlength=eq.size) > 0
            dirty.append(eq[hit])
    out = np.concatenate(dirty) if len(dirty) > 1 else dirty[0]
    out.sort()
    return out
