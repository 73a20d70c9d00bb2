"""Vertex relabeling helpers.

Triangle counting (paper Section 8.2) requires "vertices in the original
graph [to] be sorted in non-increasing order of their degrees" before taking
``L = tril(A)`` — the standard trick [29] that bounds the work of
``L .* (L @ L)``.
"""

from __future__ import annotations

import numpy as np

from ..sparse import CSR

__all__ = ["degree_sort_permutation", "relabel_by_degree"]


def degree_sort_permutation(a: CSR, *, ascending: bool = False) -> np.ndarray:
    """Permutation ``perm`` such that vertex ``i`` of the relabeled graph is
    vertex ``perm[i]`` of the original, ordered by degree (non-increasing by
    default).  Ties broken by vertex id for determinism."""
    deg = a.row_nnz()
    key = deg if ascending else -deg
    return np.argsort(key, kind="stable").astype(np.int64)


def relabel_by_degree(a: CSR, *, ascending: bool = False) -> CSR:
    """Symmetric permutation of a square adjacency so that degrees are
    non-increasing (the triangle-counting preprocessing step)."""
    return a.permute(degree_sort_permutation(a, ascending=ascending))
