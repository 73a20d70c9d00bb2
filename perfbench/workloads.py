"""Workload inputs, oracles and the op each workload times.

Inputs are Graph500 R-MAT graphs built here in plain NumPy, so the program
under test only ever receives the finished graph.  The structure of each
workload's graph is fixed (``STRUCTURE_SEED``); ``--seed`` draws a random
vertex relabelling, as Graph500 itself does, and BC's sources follow the
relabelling.  Every seed therefore gives a different adjacency matrix
with the same amount of work per op: run-to-run spread then measures the
host and the program, not which R-MAT a seed happened to draw (across
structure seeds k-truss flops per op moved by 23% and BC's by 20%).

The oracles use ``scipy.sparse`` and ``networkx`` only; nothing here
imports ``repro`` at module level, so the parent process that builds
inputs and oracles never loads the program.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

GRAPH500_PARAMS = (0.57, 0.19, 0.19, 0.05)
EDGE_FACTOR = 16
STRUCTURE_SEED = 0
KTRUSS_K = 5
BC_BATCH = 64


@dataclass(frozen=True)
class Workload:
    name: str
    app: str  # "tc" | "ktruss" | "bc"
    scale: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("tc-rmat12", "tc", 12),
        Workload("ktruss-rmat10", "ktruss", 10),
        Workload("bc-rmat11", "bc", 11),
    )
}


# ----------------------------------------------------------------------
# inputs (parent side, no repro import)
# ----------------------------------------------------------------------
def rmat_coo(scale: int, seed: int):
    """Directed R-MAT edge draws: ``EDGE_FACTOR * 2**scale`` (row, col)."""
    a, b, c, _ = GRAPH500_PARAMS
    m = EDGE_FACTOR << scale
    rng = np.random.default_rng(seed)
    rows = np.zeros(m, dtype=np.int64)
    cols = np.zeros(m, dtype=np.int64)
    for _ in range(scale):
        r = rng.random(m)
        rows = (rows << 1) | (r >= a + b)
        cols = (cols << 1) | (((r >= a) & (r < a + b)) | (r >= a + b + c))
    return rows, cols


def symmetric_csr(n: int, rows: np.ndarray, cols: np.ndarray):
    """Sorted, duplicate-free symmetric pattern without self loops."""
    keep = rows != cols
    r = np.concatenate([rows[keep], cols[keep]])
    c = np.concatenate([cols[keep], rows[keep]])
    keys = np.unique(r * np.int64(n) + c)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
    return indptr, keys % n


def make_inputs(name: str, seed: int, scale: int | None = None) -> dict:
    """The graph (and BC's sources) for one workload and seed.

    ``scale`` overrides the workload's R-MAT scale (smoke tests use 6-7).
    """
    wl = WORKLOADS[name]
    scale = wl.scale if scale is None else scale
    n = 1 << scale
    rows, cols = rmat_coo(scale, STRUCTURE_SEED)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n).astype(np.int64)
    indptr, indices = symmetric_csr(n, perm[rows], perm[cols])
    out = {"n": np.int64(n), "indptr": indptr, "indices": indices}
    if wl.app == "bc":
        # sources: a fixed sample of non-isolated vertices of the base graph,
        # carried through the relabelling
        base_ptr, _ = symmetric_csr(n, rows, cols)
        live = np.flatnonzero(np.diff(base_ptr))
        base = np.random.default_rng(STRUCTURE_SEED).choice(
            live, size=min(BC_BATCH, live.size), replace=False
        )
        out["sources"] = perm[base]
    return out


def _scipy_graph(inputs: dict):
    import scipy.sparse as sp

    n = int(inputs["n"])
    ones = np.ones(inputs["indices"].size)
    return sp.csr_matrix((ones, inputs["indices"], inputs["indptr"]), shape=(n, n))


def edge_keys(n: int, indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    return np.unique(rows * np.int64(n) + indices)


def oracle(name: str, inputs: dict) -> dict:
    """Independent expected output (scipy / networkx), once per run."""
    import scipy.sparse as sp

    app = WORKLOADS[name].app
    a = _scipy_graph(inputs)
    n = a.shape[0]
    if app == "tc":
        low = sp.tril(a, -1).tocsr()
        return {"triangles": np.int64(round(low.multiply(low @ low).sum()))}
    if app == "ktruss":
        cur = a
        while True:
            s = cur.multiply(cur @ cur).tocsr()
            s.data = (s.data >= KTRUSS_K - 2).astype(np.float64)
            s.eliminate_zeros()
            if s.nnz == cur.nnz:
                break
            cur = s
        cur.sort_indices()
        return {"truss_keys": edge_keys(n, cur.indptr, cur.indices)}
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(n))
    coo = sp.triu(a, 1).tocoo()
    g.add_edges_from(zip(coo.row.tolist(), coo.col.tolist()))
    bc = nx.betweenness_centrality_subset(
        g, [int(s) for s in inputs["sources"]], list(range(n)), normalized=False
    )
    return {"centrality": 2.0 * np.array([bc[v] for v in range(n)])}


# ----------------------------------------------------------------------
# the op (child side: runs with repro imported)
# ----------------------------------------------------------------------
def build_graph(inputs: dict):
    from repro.sparse import CSR

    n = int(inputs["n"])
    indices = inputs["indices"]
    return CSR((n, n), inputs["indptr"], indices, np.ones(indices.size))


def make_op(name: str, inputs: dict):
    """``op(graph, counter) -> result`` through the public app entry point,
    with default ``algo="auto"`` and nothing passed in but the counter."""
    import repro.apps as apps

    app = WORKLOADS[name].app
    if app == "tc":
        return lambda g, counter: apps.triangle_count_detail(g, counter=counter)
    if app == "ktruss":
        return lambda g, counter: apps.ktruss(g, k=KTRUSS_K, counter=counter)
    sources = inputs["sources"]
    return lambda g, counter: apps.betweenness_centrality(
        g, sources=sources, counter=counter
    )


def check(name: str, result, expected: dict) -> bool:
    """Whether one op's output matches the oracle."""
    app = WORKLOADS[name].app
    if app == "tc":
        return int(result.triangles) == int(expected["triangles"])
    if app == "ktruss":
        t = result.truss
        got = edge_keys(t.nrows, t.indptr, t.indices)
        return np.array_equal(got, expected["truss_keys"])
    want = expected["centrality"]
    got = np.asarray(result.centrality)
    tol = 1e-9 * max(1.0, float(np.abs(want).max(initial=0.0)))
    return got.shape == want.shape and bool(np.all(np.abs(got - want) <= tol))


def digest(name: str, result) -> str:
    """Bit-exact fingerprint of an op's output (traced vs untraced)."""
    app = WORKLOADS[name].app
    h = hashlib.blake2b(digest_size=16)
    if app == "tc":
        h.update(np.int64(result.triangles).tobytes())
    elif app == "ktruss":
        t = result.truss
        for arr in (t.indptr, t.indices, t.data):
            h.update(np.ascontiguousarray(arr).tobytes())
        h.update(np.int64(result.iterations).tobytes())
    else:
        h.update(np.ascontiguousarray(result.centrality).tobytes())
    return h.hexdigest()
