"""Sparse-matrix substrate: CSR/CSC containers, element-wise ops, IO.

The paper works exclusively in CSR (CSC only for the pull-based inner
product); this subpackage provides those formats over raw NumPy arrays plus
the structural helpers the applications need (masking, triangular extraction,
degree-sorted relabeling lives in :mod:`repro.graphs.relabel`).
"""

from .csr import CSR, sorted_unique
from .csc import CSC
from .dcsr import DCSC, DCSR
from .diff import DELTA_BLOCK_ROWS, block_digests, changed_rows, dirty_blocks
from .ops import (
    apply_mask,
    ewise_add,
    ewise_mult,
    mask_pattern,
    nnz_overlap,
    pattern_difference,
    pattern_intersection,
    pattern_union,
    reduce_sum,
    row_reduce,
)
from .io import load_npz, read_mtx, save_npz, write_mtx

__all__ = [
    "CSR",
    "CSC",
    "DCSR",
    "DCSC",
    "DELTA_BLOCK_ROWS",
    "block_digests",
    "changed_rows",
    "dirty_blocks",
    "apply_mask",
    "ewise_add",
    "ewise_mult",
    "mask_pattern",
    "nnz_overlap",
    "pattern_difference",
    "pattern_intersection",
    "pattern_union",
    "reduce_sum",
    "row_reduce",
    "sorted_unique",
    "read_mtx",
    "write_mtx",
    "save_npz",
    "load_npz",
]
