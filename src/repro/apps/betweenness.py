"""Batched Betweenness Centrality via masked SpGEMM — paper Section 8.4.

Multi-source Brandes [8] in the GraphBLAS formulation [11]: a batch of
``s`` sources is processed as ``s x n`` sparse matrices.

Forward (BFS) sweep — uses the **complemented** mask:

    frontier_{d+1} = !numsp_pattern .* (frontier_d @ A)     (PLUS_TIMES)
    numsp += frontier_{d+1}

``numsp`` accumulates shortest-path counts; the complemented mask prevents
re-discovering visited vertices — the paper's canonical use of mask
complement.  Each new frontier is disjoint from ``numsp`` (and each level's
``delta`` contribution from the accumulated ``delta``: BFS levels are
disjoint), so accumulation inserts the new level's entries into the sorted
accumulated ones without re-sorting them.

Backward (dependency) sweep — uses the **plain** mask:

    w_d   = frontier_d .* ((1 + delta) / numsp)             (element-wise)
    t_d   = frontier_{d-1} .* (w_d @ A^T)                   (masked SpGEMM)
    delta += t_d .* numsp_{(d-1) pattern values}

Finally ``bc(v) = sum_q delta[q, v]`` over the batch, excluding each
source's own row entry (Brandes's ``w != s`` guard).

For undirected graphs ``A^T = A``; we multiply by ``A`` transposed
explicitly so directed graphs are also handled.

The paper's metric is TEPS = ``batch_size * num_edges / total_time`` with a
batch of 512; batch size is a parameter here (laptop-scale benches use
smaller batches, see EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..engine import resolve_session
from ..machine import OpCounter
from ..observe import timed_span
from ..semiring import PLUS_TIMES
from ..sparse import CSR
from ..core import masked_spgemm
from ..core.masked_spgemm import supports_complement

__all__ = ["betweenness_centrality", "BetweennessResult"]


@dataclass
class BetweennessResult:
    """Outcome of one batched BC run."""

    centrality: np.ndarray  #: length-n BC scores (sum over the batch)
    depth: int
    spgemm_seconds: float
    total_seconds: float
    teps: float
    #: masked-SpGEMM time split by stage (paper Sec. 8.4 measures both):
    #: forward uses the complemented mask, backward the plain mask
    forward_seconds: float = 0.0
    backward_seconds: float = 0.0
    counter: OpCounter = field(default_factory=OpCounter)


def _row_ids(mat: CSR) -> np.ndarray:
    """The row index of every stored entry of ``mat``."""
    return np.repeat(np.arange(mat.nrows, dtype=np.int64), mat.row_nnz())


def _lookup(mat: CSR, rows: np.ndarray, cols: np.ndarray, default: float) -> np.ndarray:
    """Values of ``mat`` at the given coordinates (``default`` if absent)."""
    if mat.nnz == 0:
        return np.full(rows.shape[0], default)
    keys = _row_ids(mat) * np.int64(mat.ncols) + mat.indices
    q = rows * np.int64(mat.ncols) + cols
    idx = np.searchsorted(keys, q)
    idx_c = np.minimum(idx, keys.shape[0] - 1)
    hit = keys[idx_c] == q
    out = np.full(rows.shape[0], default)
    out[hit] = mat.data[idx_c[hit]]
    return out


def _add_disjoint(acc: CSR, new: CSR) -> CSR:
    """``acc + new`` for matrices with disjoint patterns.

    Equal, bit for bit, to ``CSR.from_coo`` over both matrices' entries, but
    ``acc``'s entries are never sorted again: one ``searchsorted`` finds where
    each of ``new``'s keys lands among ``acc``'s sorted keys and one scatter
    places both.
    """
    acc, new = acc.sort_indices(), new.sort_indices()
    ncols = np.int64(acc.ncols)
    old_keys = _row_ids(acc) * ncols + acc.indices
    new_keys = _row_ids(new) * ncols + new.indices
    at = np.searchsorted(old_keys, new_keys)
    if old_keys.size and np.any(
        old_keys[np.minimum(at, old_keys.size - 1)] == new_keys
    ):
        raise AssertionError("BC accumulation: level patterns overlap")
    dest = at + np.arange(new.nnz, dtype=np.int64)
    is_new = np.zeros(acc.nnz + new.nnz, dtype=bool)
    is_new[dest] = True
    indices = np.empty(is_new.size, dtype=np.int64)
    data = np.empty(is_new.size, dtype=np.result_type(acc.data, new.data))
    indices[dest], data[dest] = new.indices, new.data
    indices[~is_new], data[~is_new] = acc.indices, acc.data
    return CSR(acc.shape, acc.indptr + new.indptr, indices, data,
               sorted_indices=True, check=False)


def betweenness_centrality(
    a: CSR,
    sources: Optional[Sequence[int]] = None,
    *,
    batch_size: int = 512,
    algo: str = "auto",
    impl: str = "auto",
    phases: int = 1,
    counter: Optional[OpCounter] = None,
    seed: int = 0,
    call_log: Optional[list] = None,
    backend: Optional[str] = None,
    shards=None,
    session=None,
) -> BetweennessResult:
    """Betweenness centrality restricted to a batch of source vertices.

    With ``sources=range(n)`` (and an unweighted graph) the scores match
    Brandes / networkx exactly (unnormalised, directed-sum convention:
    for undirected graphs networkx halves the scores).

    ``backend`` (``algo="auto"`` only) forces the execution backend of the
    per-level masked SpGEMMs.  ``shards`` passes the shard-grid knob
    through to every level's masked SpGEMM (see ``docs/sharding.md``).
    ``session`` controls cross-call caching —
    an :class:`~repro.engine.ExecutionSession`, ``None`` (default: open a
    loop-local one only when ``shards`` is set), or ``False`` to disable.
    With a session on a process backend ``A`` and ``A^T`` publish once and
    only the small frontier/numsp operands move per call.  Without shards
    the default runs sessionless: every level's frontier and ``numsp`` are
    new operands, so a session would fingerprint each of them and never
    hit its plan cache.
    """
    if not supports_complement(algo):
        raise ValueError(
            f"{algo} cannot run BC: the forward sweep needs a complemented "
            "mask (the paper excludes MCA and Inner here too)"
        )
    n = a.nrows
    if a.ncols != n:
        raise ValueError("adjacency must be square")
    # unweighted shortest paths: only the pattern of A matters
    a = a.pattern()
    if sources is None:
        rng = np.random.default_rng(seed)
        k = min(batch_size, n)
        sources = rng.choice(n, size=k, replace=False)
    sources = np.asarray(list(sources), dtype=np.int64)
    s = sources.shape[0]
    counter = counter if counter is not None else OpCounter()
    session, owned = resolve_session(session, auto=shards is not None)
    # stage spans: per-step forward (complemented mask) / backward (plain
    # mask) breakdowns appear in trace exports; timed_span also feeds the
    # result's *_seconds fields when tracing is off
    try:
        return _betweenness_body(
            a, sources, s, algo=algo, impl=impl, phases=phases,
            counter=counter, call_log=call_log, backend=backend,
            shards=shards, session=session,
        )
    finally:
        if owned and session is not None:
            session.close()


def _betweenness_body(
    a: CSR,
    sources: np.ndarray,
    s: int,
    *,
    algo: str,
    impl: str,
    phases: int,
    counter: OpCounter,
    call_log: Optional[list],
    backend: Optional[str],
    shards,
    session,
) -> BetweennessResult:
    n = a.nrows
    with timed_span("bc.run", {"batch": s, "algo": algo}) as sp_total:
        a_t = a.transpose()

        # frontier_0: one unit entry per source row
        frontier = CSR.from_coo(
            (s, n), np.arange(s, dtype=np.int64), sources, np.ones(s)
        )
        numsp = frontier.copy()
        frontiers: List[CSR] = [frontier]
        spgemm_time = 0.0
        forward_time = 0.0
        backward_time = 0.0

        # ---- forward sweep ----
        level = 0
        while frontier.nnz:
            if call_log is not None:
                call_log.append((frontier, a, numsp, True))
            level += 1
            with timed_span(
                "bc.forward", {"depth": level, "frontier_nnz": frontier.nnz},
                counter=counter,
            ) as sp_f:
                frontier = masked_spgemm(
                    frontier, a, numsp, algo=algo, impl=impl, phases=phases,
                    complement=True, semiring=PLUS_TIMES, counter=counter,
                    backend=backend
                    if (algo == "auto" or shards is not None)
                    else None,
                    shards=shards, session=session,
                )
            spgemm_time += sp_f.seconds
            forward_time += sp_f.seconds
            if frontier.nnz == 0:
                break
            frontiers.append(frontier)
            numsp = _add_disjoint(numsp, frontier)

        depth = len(frontiers) - 1

        # ---- backward sweep ----
        delta = CSR.empty((s, n))
        for d in range(depth, 0, -1):
            f_d = frontiers[d]
            rows, cols, _ = f_d.to_coo()
            # w = f_d .* ((1 + delta) / numsp)
            dvals = _lookup(delta, rows, cols, 0.0)
            spv = _lookup(numsp, rows, cols, 1.0)
            w = CSR.from_coo((s, n), rows, cols, (1.0 + dvals) / spv)
            if call_log is not None:
                call_log.append((w, a_t, frontiers[d - 1], False))
            with timed_span(
                "bc.backward", {"depth": d}, counter=counter
            ) as sp_b:
                t_d = masked_spgemm(
                    w, a_t, frontiers[d - 1], algo=algo, impl=impl,
                    phases=phases, semiring=PLUS_TIMES, counter=counter,
                    backend=backend
                    if (algo == "auto" or shards is not None)
                    else None,
                    shards=shards, session=session,
                )
            spgemm_time += sp_b.seconds
            backward_time += sp_b.seconds
            # delta += t_d .* numsp (on t_d's pattern)
            t_d = t_d.sort_indices()
            contrib = t_d.data * _lookup(numsp, _row_ids(t_d), t_d.indices, 0.0)
            delta = _add_disjoint(
                delta, CSR(t_d.shape, t_d.indptr, t_d.indices, contrib,
                           sorted_indices=True, check=False)
            )

        # centrality: column sums of delta, excluding each source's own entry
        out = np.zeros(n)
        dr, dc, dv = delta.to_coo()
        own = dc == sources[dr]
        np.add.at(out, dc[~own], dv[~own])
    total = sp_total.seconds
    teps = s * a.nnz / total if total > 0 else 0.0
    return BetweennessResult(
        centrality=out,
        depth=depth,
        spgemm_seconds=spgemm_time,
        total_seconds=total,
        teps=teps,
        forward_seconds=forward_time,
        backward_seconds=backward_time,
        counter=counter,
    )
