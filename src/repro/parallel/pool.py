"""Persistent process pool for the shared-memory execution backend.

Spawning workers is the dominant fixed cost of process parallelism in
Python (interpreter + NumPy import on ``spawn``; page-table copy on
``fork``).  The applications this library targets are *iterative* —
k-truss rounds, betweenness-centrality batches, Markov-clustering
expansions — so the pool is created once, kept warm, and reused by every
subsequent process-backend call; ``atexit`` (or an explicit
:func:`shutdown_pool` / the :func:`process_pool` context manager) tears it
down.

Task protocol: the parent publishes the CSR operands into shared memory
(:mod:`repro.parallel.shm`) and submits one :class:`PartitionTask` per row
partition.  A task carries only segment *addresses*, the partition's row
range, and scalar knobs — a few hundred bytes — while workers attach the
segments as zero-copy NumPy views.  Each worker runs the planned kernel
under its own :class:`~repro.machine.OpCounter` and returns its partial
output as COO triples plus the counter, which the caller merges exactly
like the thread backend, so results and counters are identical across
``serial`` / ``thread`` / ``process``.

Semirings cross the boundary by *name* for the standard registry
(:data:`repro.semiring.STANDARD_SEMIRINGS`) and by pickle otherwise;
semirings capturing unpicklable state make
:func:`encode_semiring` return ``None`` and the caller falls back to the
thread backend rather than failing.
"""

from __future__ import annotations

import atexit
import pickle
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import multiprocessing as mp

import numpy as np

from ..machine import OpCounter, host_cpus
from ..observe.tracer import NULL_SPAN as _NULL_CM
from ..semiring import STANDARD_SEMIRINGS, Semiring
from . import shm as _shm

__all__ = [
    "PartitionTask",
    "ShardTask",
    "get_pool",
    "shutdown_pool",
    "pool_size",
    "pool_pids",
    "pool_stats",
    "process_pool",
    "process_backend_available",
    "run_tasks",
    "encode_semiring",
    "decode_semiring",
]


def process_backend_available() -> bool:
    """Whether this platform can run the shared-memory process backend."""
    if not _shm.HAVE_SHARED_MEMORY:
        return False
    methods = mp.get_all_start_methods()
    return "fork" in methods or "spawn" in methods


def _context() -> mp.context.BaseContext:
    # fork is dramatically cheaper to bring up and inherits the importable
    # package state; spawn is the portable fallback.
    if "fork" in mp.get_all_start_methods():
        return mp.get_context("fork")
    return mp.get_context("spawn")  # pragma: no cover - non-fork platforms


# ----------------------------------------------------------------------
# the singleton pool
# ----------------------------------------------------------------------
_POOL: Optional[ProcessPoolExecutor] = None
_POOL_WORKERS = 0
#: lifetime task counters (coordinator side) — the runtime sampler's
#: queue-depth series reads submitted - completed
_POOL_TASKS = {"submitted": 0, "completed": 0}


def get_pool(workers: int) -> ProcessPoolExecutor:
    """The persistent pool, grown (never shrunk) to at least ``workers``,
    but never beyond the CPUs this process may use (:func:`host_cpus`).

    Above that ceiling a call's partitions queue on the pool instead of
    forking more workers; partitions are independent, so results are
    unchanged.  Growing replaces the pool — a rare event once an
    application reaches its steady-state worker count; reuse is the common
    case and costs a dictionary read.
    """
    global _POOL, _POOL_WORKERS
    if workers < 1:
        raise ValueError("workers must be >= 1")
    workers = min(workers, host_cpus())
    if _POOL is None or _POOL_WORKERS < workers:
        if _POOL is not None:
            _POOL.shutdown(wait=True, cancel_futures=True)
        _POOL = ProcessPoolExecutor(max_workers=workers, mp_context=_context())
        _POOL_WORKERS = workers
    return _POOL


def shutdown_pool() -> None:
    """Shut the persistent pool down (workers exit; attachments die with
    them).  Safe to call when no pool exists; the next process-backend
    call simply spawns a fresh one."""
    global _POOL, _POOL_WORKERS
    if _POOL is not None:
        _POOL.shutdown(wait=True, cancel_futures=True)
        _POOL = None
        _POOL_WORKERS = 0


def pool_size() -> int:
    """Current worker count of the persistent pool (0 = not running)."""
    return _POOL_WORKERS


def pool_pids() -> Tuple[int, ...]:
    """Pids of the live pool worker processes (empty when no pool runs).

    Workers spawn lazily, so right after :func:`get_pool` this may be
    shorter than :func:`pool_size`; after a dispatch it is the fleet the
    heartbeat series should cover.
    """
    if _POOL is None:
        return ()
    procs = getattr(_POOL, "_processes", None) or {}
    return tuple(sorted(pid for pid, p in list(procs.items()) if p.is_alive()))


def pool_stats() -> dict:
    """Coordinator-side pool gauges for samplers and ``metrics()``.

    ``tasks_inflight`` is submitted-minus-completed at this instant —
    the queue depth the runtime sampler's ring buffer tracks.
    """
    submitted = _POOL_TASKS["submitted"]
    completed = _POOL_TASKS["completed"]
    return {
        "size": _POOL_WORKERS,
        "pids": list(pool_pids()),
        "tasks_submitted": submitted,
        "tasks_completed": completed,
        "tasks_inflight": max(0, submitted - completed),
    }


@contextmanager
def process_pool(workers: int):
    """Context manager guaranteeing pool teardown on exit.

    For one-shot scripts; long-running applications should rely on the
    persistent pool + ``atexit`` instead and keep the spawn cost amortised.
    """
    try:
        yield get_pool(workers)
    finally:
        shutdown_pool()


# ----------------------------------------------------------------------
# semiring transfer
# ----------------------------------------------------------------------
def encode_semiring(semiring: Semiring):
    """Portable token for a semiring, or ``None`` if untransferable."""
    std = STANDARD_SEMIRINGS.get(semiring.name)
    if std is semiring:
        return ("named", semiring.name)
    try:
        return ("pickled", pickle.dumps(semiring))
    except Exception:
        return None


def decode_semiring(token) -> Semiring:
    kind, payload = token
    if kind == "named":
        return STANDARD_SEMIRINGS[payload]
    return pickle.loads(payload)


# ----------------------------------------------------------------------
# tasks
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PartitionTask:
    """One row partition of one masked-SpGEMM call (picklable, tiny)."""

    a: _shm.CSRSegments
    b: _shm.CSRSegments
    mask: _shm.CSRSegments
    b_csc: Optional[_shm.CSRSegments]
    #: ("range", lo, hi) for contiguous partitions, ("rows", ndarray) else
    rows: tuple
    algo: str
    phases: int
    complement: bool
    impl: str
    semiring: tuple
    #: record worker-side spans and ship them back with the result
    trace: bool = False
    #: record worker-side probe histograms and ship them back likewise
    probe: bool = False
    #: kernel batching tier ("auto" | "bucket" | "perrow"); the planner's
    #: per-band resolution rides along so workers run the same tier
    batch: str = "auto"
    #: ship a compact worker heartbeat (pid, RSS, CPU, tasks done, form
    #: cache occupancy) back with the result — set while a
    #: :class:`~repro.observe.runtime.RuntimeSampler` is installed
    heartbeat: bool = False


def _run_task(task: PartitionTask):
    """Worker entry point: attach, slice, run, return COO + counter (+spans).

    Runs in a pool worker.  The returned row indices are *global* (the
    contiguous fast path offsets them), so the parent's merge is a plain
    concatenation, identical to the serial and thread backends.

    When ``task.trace`` is set, a worker-local tracer is installed for the
    duration of the task: the partition span and every nested kernel span
    it encloses come back serialized in the payload, and the coordinator
    merges them onto its timeline (:meth:`repro.observe.Tracer.ingest`).
    The tracer is uninstalled in ``finally`` — the pool is persistent, and
    later untraced calls must not pay for (or leak into) this one.
    """
    from ..core.masked_spgemm import masked_spgemm
    from .executor import row_block, row_slice

    tracer = None
    prev = None
    probes = None
    prev_probes = None
    if task.trace:
        from ..observe.tracer import Tracer, set_tracer

        tracer = Tracer()
        prev = set_tracer(tracer)
    if task.probe:
        from ..observe.probes import ProbeRegistry, set_probes

        probes = ProbeRegistry()
        prev_probes = set_probes(probes)
    try:
        a = _shm.attach_csr(task.a)
        b = _shm.attach_csr(task.b)
        mask = _shm.attach_csr(task.mask)
        b_csc = _shm.attach_csc(task.b_csc)
        semiring = decode_semiring(task.semiring)
        counter = OpCounter()

        if task.rows[0] == "range":
            rows_attr = int(task.rows[2]) - int(task.rows[1])
        else:
            rows_attr = int(np.asarray(task.rows[1]).size)
        span_cm = (
            tracer.span(
                "parallel.partition",
                {"backend": "process", "algo": task.algo, "rows": rows_attr},
                counter=counter,
            )
            if tracer is not None else _NULL_CM
        )
        # compute inside the span, build the payload after it closes so the
        # partition span itself is part of the exported records
        with span_cm:
            empty = None
            if task.rows[0] == "range":
                lo, hi = task.rows[1], task.rows[2]
                if hi <= lo:
                    empty = True
                else:
                    a_s, m_s, offset = (
                        row_block(a, lo, hi), row_block(mask, lo, hi), lo,
                    )
            else:
                rows = np.asarray(task.rows[1], dtype=np.int64)
                if rows.size == 0:
                    empty = True
                else:
                    a_s, m_s, offset = row_slice(a, rows), row_slice(mask, rows), 0
            if empty:
                r = cc = np.empty(0, np.int64)
                v = np.empty(0, np.float64)
            else:
                c = masked_spgemm(
                    a_s,
                    b,
                    m_s,
                    algo=task.algo,
                    phases=task.phases,
                    complement=task.complement,
                    semiring=semiring,
                    impl=task.impl,
                    counter=counter,
                    b_csc=b_csc,
                    batch=getattr(task, "batch", "auto"),
                )
                r, cc, v = c.to_coo()
                if offset:
                    r = r + offset
        return _coo_payload(r, cc, v, counter, tracer, probes,
                            _worker_heartbeat(task))
    finally:
        if probes is not None:
            from ..observe.probes import set_probes

            set_probes(prev_probes)
        if tracer is not None:
            from ..observe.tracer import set_tracer

            set_tracer(prev)


@dataclass(frozen=True)
class ShardTask:
    """One shard-grid cell of one masked-SpGEMM call (picklable, tiny).

    Operands are *doubly-compressed* shard segments: the A row block and
    the mask cell as DCSR, the B column panel as the DCSR of its transpose
    (rewrapped worker-side — the same convention CSC uses to cross the
    boundary).  ``bands`` restricts the plan's row bands to the block, in
    block-local coordinates; ``row_offset``/``col_offset`` lift the cell's
    COO output back into the global frame.
    """

    a: _shm.DCSRSegments  #: A row block, shape (block_h, K)
    b_t: _shm.DCSRSegments  #: transpose of the B column panel, shape (panel_w, K)
    mask: _shm.DCSRSegments  #: mask cell, shape (block_h, panel_w)
    cell: Tuple[int, int]  #: (row-block index, column-panel index)
    row_offset: int
    col_offset: int
    #: ((algo, rows_desc), ...) — rows_desc is ("range", lo, hi) or
    #: ("rows", ndarray), both local to the row block
    bands: tuple
    phases: int
    complement: bool
    impl: str
    semiring: tuple
    trace: bool = False
    probe: bool = False
    #: the cell's apportioned share of the plan's modeled cycles/bytes —
    #: stamped into the worker's ``parallel.shard`` span so the prediction
    #: ledger sees the same modeled-vs-measured pairs on every backend
    est_cycles: float = 0.0
    est_bytes: float = 0.0
    #: ship a worker heartbeat back with the result (see PartitionTask)
    heartbeat: bool = False


#: per-worker cache of CSR forms derived from published shards, keyed by
#: (content token, kind).  Conversions copy out of shared memory
#: (``DCSR.to_csr`` materialises fresh arrays), so cached forms outlive the
#: segments; tokens change whenever published bytes change, so a session's
#: values-only rewrite can never be served a stale conversion.
_SHARD_FORMS: "OrderedDict[tuple, object]" = OrderedDict()
_SHARD_FORMS_MAX = 32


def _shard_form(spec: _shm.DCSRSegments, kind: str):
    """The CSR-ish form a kernel wants, cached per worker by content token.

    ``"csr"`` expands the published DCSR; ``"csr_t"`` is its transpose —
    for a B-panel spec (published as the panel's transpose) that makes
    ``"csr"`` the (panel_w, K) transpose usable directly as CSC backing and
    ``"csr_t"`` the (K, panel_w) panel itself.
    """
    key = (spec.token, kind)
    hit = _SHARD_FORMS.get(key)
    if hit is not None:
        _SHARD_FORMS.move_to_end(key)
        return hit
    if kind == "csr":
        out = _shm.attach_dcsr(spec).to_csr()
    elif kind == "csr_t":
        out = _shard_form(spec, "csr").transpose()
    else:  # pragma: no cover - internal misuse
        raise ValueError(f"unknown shard form {kind!r}")
    _SHARD_FORMS[key] = out
    while len(_SHARD_FORMS) > _SHARD_FORMS_MAX:
        _SHARD_FORMS.popitem(last=False)
    return out


def clear_shard_forms() -> None:
    """Drop this process's derived-form cache (tests / pool shutdown)."""
    _SHARD_FORMS.clear()


def _run_shard_task(task: ShardTask):
    """Worker entry point for one shard cell: attach, expand (cached by
    content token), run each band's kernel on the cell, return global COO.

    Mirrors :func:`_run_task`'s tracer/probe discipline — install per task,
    uninstall in ``finally`` — but operates on a (block_h x panel_w) cell:
    every band of the plan that intersects the row block runs against the
    cell's B panel and mask cell, and the COO triples come back already
    lifted by the cell's row/column offsets so the parent's merge is plain
    concatenation across cells.
    """
    from ..core.masked_spgemm import masked_spgemm
    from ..sparse import CSC
    from .executor import row_block, row_slice

    tracer = None
    prev = None
    probes = None
    prev_probes = None
    if task.trace:
        from ..observe.tracer import Tracer, set_tracer

        tracer = Tracer()
        prev = set_tracer(tracer)
    if task.probe:
        from ..observe.probes import ProbeRegistry, set_probes

        probes = ProbeRegistry()
        prev_probes = set_probes(probes)
    try:
        semiring = decode_semiring(task.semiring)
        counter = OpCounter()
        bh, pw = task.mask.shape
        span_cm = (
            tracer.span(
                "parallel.shard",
                {
                    "backend": "process",
                    "cell": list(task.cell),
                    "rows": int(bh),
                    "cols": int(pw),
                    "est_cycles": task.est_cycles,
                    "est_bytes": task.est_bytes,
                },
                counter=counter,
            )
            if tracer is not None else _NULL_CM
        )
        with span_cm:
            a_csr = _shard_form(task.a, "csr")
            b_t = _shard_form(task.b_t, "csr")
            b_csr = _shard_form(task.b_t, "csr_t")
            b_csc = CSC((b_t.ncols, b_t.nrows), b_t)
            mask_csr = _shard_form(task.mask, "csr")
            rs: List[np.ndarray] = []
            cs: List[np.ndarray] = []
            vs: List[np.ndarray] = []
            for algo, rows_desc in task.bands:
                if rows_desc[0] == "range":
                    lo, hi = int(rows_desc[1]), int(rows_desc[2])
                    if hi <= lo:
                        continue
                    a_s = row_block(a_csr, lo, hi)
                    m_s = row_block(mask_csr, lo, hi)
                    offset = lo
                else:
                    rows = np.asarray(rows_desc[1], dtype=np.int64)
                    if rows.size == 0:
                        continue
                    a_s = row_slice(a_csr, rows)
                    m_s = row_slice(mask_csr, rows)
                    offset = 0
                c = masked_spgemm(
                    a_s,
                    b_csr,
                    m_s,
                    algo=algo,
                    phases=task.phases,
                    complement=task.complement,
                    semiring=semiring,
                    impl=task.impl,
                    counter=counter,
                    b_csc=b_csc,
                )
                r, cc, v = c.to_coo()
                rs.append(r + (offset + task.row_offset))
                cs.append(cc + task.col_offset)
                vs.append(v)
            if rs:
                r = np.concatenate(rs)
                cc = np.concatenate(cs)
                v = np.concatenate(vs)
            else:
                r = cc = np.empty(0, np.int64)
                v = np.empty(0, np.float64)
        return _coo_payload(r, cc, v, counter, tracer, probes,
                            _worker_heartbeat(task))
    finally:
        if probes is not None:
            from ..observe.probes import set_probes

            set_probes(prev_probes)
        if tracer is not None:
            from ..observe.tracer import set_tracer

            set_tracer(prev)


#: worker-side lifetime task count — always maintained (one integer add),
#: reported only when a task asks for a heartbeat
_WORKER_TASKS_DONE = 0


def _worker_heartbeat(task) -> Optional[dict]:
    """Build this worker's heartbeat if the task asked for one.

    Runs in the pool worker as part of every task.  The task counter is
    bumped unconditionally so heartbeats stay accurate when a sampler is
    installed mid-run; the (slightly costlier) ``/proc`` reads happen only
    on the sampled path.  ``getattr`` keeps old pickled tasks valid.
    """
    global _WORKER_TASKS_DONE
    _WORKER_TASKS_DONE += 1
    if not getattr(task, "heartbeat", False):
        return None
    from ..observe.runtime import worker_heartbeat

    return worker_heartbeat(
        tasks_completed=_WORKER_TASKS_DONE,
        cached_forms=len(_SHARD_FORMS),
    )


def _coo_payload(rows, cols, vals, counter, tracer=None, probes=None,
                 heartbeat=None):
    spans = tracer.export() if tracer is not None else []
    probe_export = probes.export() if probes is not None else {}
    return rows, cols, vals, counter, spans, probe_export, heartbeat


def run_tasks(
    workers: int, tasks: Sequence, fn=_run_task
) -> Tuple[
    List[Tuple[np.ndarray, np.ndarray, np.ndarray]],
    List[OpCounter],
    List[List[dict]],
    List[dict],
    List[Optional[dict]],
]:
    """Run partition (or shard) tasks on the persistent pool, in order.

    Results come back ordered by partition index (futures are awaited in
    order), which keeps the merged output deterministic.  The third return
    value holds the serialized worker spans as one batch *per task* (all
    empty unless the tasks were submitted with ``trace=True``) — batches
    must stay separate because each task ran under a fresh worker tracer
    whose span ids start at 1, and ``Tracer.ingest`` remaps ids batch by
    batch; flattening would cross-link spans from different tasks.  The
    fourth holds each task's probe-histogram export (empty dict unless
    submitted with ``probe=True``); histogram merges commute, so these may
    be ingested in any order.  The fifth holds each task's worker
    heartbeat (``None`` unless submitted with ``heartbeat=True``) for
    :meth:`repro.observe.runtime.RuntimeSampler.ingest_heartbeats`.
    ``fn`` selects the worker entry point — :func:`_run_task` for
    :class:`PartitionTask`, :func:`_run_shard_task` for
    :class:`ShardTask`; both speak the same payload protocol.  A broken
    pool (a worker was OOM-killed or crashed) is discarded so the next call
    starts clean, and the error propagates to the caller.
    """
    pool = get_pool(workers)
    _POOL_TASKS["submitted"] += len(tasks)
    futures = [pool.submit(fn, t) for t in tasks]
    triples: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    counters: List[OpCounter] = []
    span_batches: List[List[dict]] = []
    probe_batches: List[dict] = []
    heartbeats: List[Optional[dict]] = []
    consumed = 0
    try:
        for fut in futures:
            rows, cols, vals, counter, spans, probe_export, hb = fut.result()
            consumed += 1
            _POOL_TASKS["completed"] += 1
            triples.append((rows, cols, vals))
            counters.append(counter)
            span_batches.append(spans)
            probe_batches.append(probe_export)
            heartbeats.append(hb)
    except BrokenProcessPool:
        shutdown_pool()
        raise
    finally:
        # rebalance abandoned futures on error so the sampler's queue-depth
        # gauge returns to zero instead of reporting phantom in-flight work
        _POOL_TASKS["completed"] += len(tasks) - consumed
    return triples, counters, span_batches, probe_batches, heartbeats


# Registered at import time — not lazily in get_pool — so interpreter exit
# can never strand pool workers or their shm attachments, even when a
# crash unwinds past the first get_pool call.  atexit tolerates both the
# no-pool case (shutdown_pool is a no-op) and duplicate registration
# across reloads.
atexit.register(shutdown_pool)
