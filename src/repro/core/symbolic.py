"""Symbolic phase for two-phase (2P) masked SpGEMM — paper Section 6.

The symbolic phase inspects only indices (no value arithmetic) and returns
the exact number of output nonzeros per row, letting the numeric phase write
into an exactly-sized allocation.  The paper's finding — reproduced by the
cost model and asserted by the benches — is that for *masked* SpGEMM the
mask already bounds the output so well that paying a second sweep (2P) is
usually slower than the one-phase (1P) approach; this module exists so both
variants are real code paths, not just cost-model annotations.

Also provides the 1P scratch-size bound: ``min(nnz(m_i), flops_i)`` per row
for a plain mask (the mask is the paper's "good initial approximation" for
the output size), and ``flops_i`` for a complemented mask.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..machine import OpCounter, flops_per_row
from ..sparse import CSR, sorted_unique
from .kernels.expand import DEFAULT_FLOP_BUDGET, expand_products, iter_row_blocks, row_keys

__all__ = ["symbolic_masked", "one_phase_bound"]


def symbolic_masked(
    a: CSR,
    b: CSR,
    mask: CSR,
    *,
    complement: bool = False,
    counter: Optional[OpCounter] = None,
    flop_budget: int = DEFAULT_FLOP_BUDGET,
) -> np.ndarray:
    """Exact per-row output nonzero counts of ``M .* (A @ B)`` (pattern
    only).  Index traversal mirrors the numeric phase; every inspected
    product is charged to ``counter.symbolic_flops``."""
    a = a.sort_indices()
    b = b.sort_indices()
    mask = mask.sort_indices()
    n = b.ncols
    out = np.zeros(a.nrows, dtype=np.int64)
    m_rows_all = np.repeat(np.arange(mask.nrows, dtype=np.int64), mask.row_nnz())
    m_keys_all = row_keys(m_rows_all, mask.indices, n)
    for lo, hi in iter_row_blocks(a, b, flop_budget):
        prod_rows, prod_cols, _ = expand_products(a, b, lo, hi, _PatternSemiring)
        if prod_rows.shape[0] == 0:
            continue
        if counter is not None:
            counter.symbolic_flops += int(prod_rows.shape[0])
        p_keys = sorted_unique(row_keys(prod_rows, prod_cols, n))
        if m_keys_all.shape[0] == 0:
            inside = np.zeros(p_keys.shape[0], dtype=bool)
        else:
            idx = np.searchsorted(m_keys_all, p_keys)
            idx_c = np.minimum(idx, m_keys_all.shape[0] - 1)
            inside = m_keys_all[idx_c] == p_keys
        keep = p_keys[~inside] if complement else p_keys[inside]
        out += np.bincount(keep // n, minlength=a.nrows)
    return out


class _PatternSemiring:
    """Value-free stand-in semiring for symbolic expansion."""

    @staticmethod
    def mult_ufunc(x, y):
        return np.zeros(np.broadcast(x, y).shape, dtype=np.float64)


def one_phase_bound(
    a: CSR, b: CSR, mask: CSR, *, complement: bool = False
) -> Tuple[np.ndarray, int]:
    """Per-row scratch bound and its total for the 1P approach."""
    fl = flops_per_row(a, b)
    if complement:
        bound = np.minimum(fl, b.ncols)
    else:
        bound = np.minimum(mask.row_nnz(), fl)
    return bound, int(bound.sum())
