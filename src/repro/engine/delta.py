"""Delta-aware masked SpGEMM: recompute only the rows a change can reach.

The paper's iterative applications mutate their operands by a small edge
set per round — k-truss prunes a monotonically shrinking support set
(Section 8.3), MCL's expansion matrix converges, a streaming graph window
slides by a few edges — yet ``C = M .* (A @ B)`` decomposes row-
independently (Buluç & Gilbert), so a change can only affect the output
rows it *reaches*:

* a changed row ``i`` of A (structure or values) dirties output row ``i``;
* a changed row ``j`` of B dirties every output row ``i`` with
  ``A[i, j] != 0`` — found through the session's CSC memo of the *current*
  A (exact: if the new row ``i`` does not reference ``j``, a change in
  ``B[j, :]`` cannot affect it, and if row ``i`` itself changed it is
  already dirty);
* a mask row whose *structure* changed dirties that output row (mask
  values never influence the product, complemented or not).

:func:`delta_execute` diffs consecutive operands against the state cached
on the :class:`~repro.engine.ExecutionSession` — chunked block digests
(:func:`repro.sparse.block_digests`) localise changes, an exact per-row
refinement (:func:`repro.sparse.changed_rows`) inside dirty blocks names
them — and resolves a :class:`DeltaPlan`.  Execution then takes the patch
path: the cached full plan's row bands are intersected with the dirty set
into a ``partial`` :class:`~repro.engine.ExecutionPlan` (same algorithms,
phases, backend, threads and shard grid), only those bands/shard cells
run, and the output is spliced into the cached result via
:meth:`~repro.sparse.CSR.replace_rows`.

Bit-for-bit contract: every kernel in this library assembles each output
row from the same k-set in ascending order regardless of banding, backend
or tier, so a patched row equals the row a full recompute would produce —
in values *and* structure.  The patch differs only in work, which the
``rows_recomputed`` / ``rows_patched`` / ``delta_fallbacks`` counters and
the ``engine.delta`` prediction-ledger rows certify.

Fallback policy: when the dirty fraction exceeds the threshold
(:data:`DELTA_MAX_FRACTION`, or the fraction passed as ``delta=``), a
patch would do most of a full run's work while paying the diff on top, so
the call falls through to the ordinary sessioned plan-and-execute path
(``delta_fallbacks`` is charged).  ``delta="force"`` disables the
fallback — the test hook that proves the patch path alone is exact.
See ``docs/incremental.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..machine import MachineConfig, OpCounter, resolve_machine
from ..observe import tracer as _obs
from ..semiring import PLUS_TIMES, Semiring
from ..sparse import CSR, changed_rows, dirty_blocks, sorted_unique
from ..sparse.diff import DELTA_BLOCK_ROWS
from .executor import execute
from .plan import ExecutionPlan, RowBand

__all__ = ["DELTA_MAX_FRACTION", "DeltaPlan", "delta_execute"]

#: default dirty-row fraction beyond which a patch falls back to a full
#: recompute: past half the rows, slicing + splicing costs more than the
#: recompute saves (the bench history's ktruss-delta scheme tracks this)
DELTA_MAX_FRACTION = 0.5


@dataclass(frozen=True)
class DeltaPlan:
    """Resolved dirty-row analysis for one incremental call.

    Plain data, produced by the diff stage and consumed by the patch
    stage; surfaced on the ``engine.delta`` span for the prediction
    ledger.  ``dirty_rows`` is the union of the three propagation
    channels (sorted, unique).
    """

    nrows: int
    dirty_rows: np.ndarray  #: output rows that must be recomputed
    a_dirty: np.ndarray  #: rows of A that changed (structure or values)
    b_touched: np.ndarray  #: output rows dirtied through changed B rows
    mask_dirty: np.ndarray  #: mask rows whose structure changed

    @property
    def dirty_count(self) -> int:
        return int(self.dirty_rows.size)

    @property
    def fraction(self) -> float:
        return self.dirty_count / max(1, self.nrows)


class _DeltaState:
    """Everything one (problem-slot, session) pair retains between calls."""

    __slots__ = (
        "a", "b", "mask", "fa", "fb", "fm",
        "da", "db", "dm", "plan", "result",
    )

    def __init__(self, a, b, mask, fa, fb, fm, da, db, dm, plan, result):
        self.a, self.b, self.mask = a, b, mask
        self.fa, self.fb, self.fm = fa, fb, fm
        self.da, self.db, self.dm = da, db, dm
        self.plan = plan
        self.result = result


def _resolve_mode(delta):
    """Normalise the ``delta=`` knob to ``(mode, threshold)``."""
    if delta in ("auto", True):
        return "auto", DELTA_MAX_FRACTION
    if delta == "force":
        return "force", 1.0
    if isinstance(delta, (int, float)) and not isinstance(delta, bool):
        frac = float(delta)
        if not (0.0 < frac <= 1.0):
            raise ValueError(
                f"a numeric delta= threshold must lie in (0, 1], got {delta!r}"
            )
        return "auto", frac
    raise ValueError(
        "delta must be 'auto', 'force', a dirty-fraction threshold in "
        f"(0, 1] or None, got {delta!r}"
    )


def _digests(session, mat, fp, *, values: bool) -> np.ndarray:
    """Session-memoised block digest vector of an operand."""
    return session.block_digests(mat, fp=fp, values=values)


def _dirty_rows(session, old, new, f_old, f_new, *, values: bool) -> np.ndarray:
    """Exact dirty rows of one operand between two calls.

    Fast path on equal fingerprints; otherwise block digests localise the
    change and :func:`changed_rows` names the rows inside dirty blocks.
    """
    if values:
        if f_old.key == f_new.key:
            return np.empty(0, dtype=np.int64)
    elif f_old.structure_key == f_new.structure_key:
        return np.empty(0, dtype=np.int64)
    d_old = _digests(session, old, f_old, values=values)
    d_new = _digests(session, new, f_new, values=values)
    blocks = dirty_blocks(d_old, d_new)
    if blocks.size == 0:
        return np.empty(0, dtype=np.int64)
    spans = [
        np.arange(
            int(bi) * DELTA_BLOCK_ROWS,
            min(new.nrows, (int(bi) + 1) * DELTA_BLOCK_ROWS),
            dtype=np.int64,
        )
        for bi in blocks
    ]
    return changed_rows(old, new, rows=np.concatenate(spans), values=values)


def _propagate_b(session, a, fa, b_changed: np.ndarray) -> np.ndarray:
    """Output rows dirtied by changed B rows: ``{i : A[i, j] != 0}`` for
    changed ``j``, through the session's CSC memo of the current A."""
    if b_changed.size == 0:
        return b_changed
    a_csc = session.csc_of(a, fa)
    starts = a_csc.indptr[b_changed]
    lens = a_csc.indptr[b_changed + 1] - starts
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    off = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(lens) - lens, lens
    )
    return sorted_unique(a_csc.indices[np.repeat(starts, lens) + off])


def _patch_plan(plan: ExecutionPlan, dirty: np.ndarray, nrows: int) -> ExecutionPlan:
    """Restrict a cached full plan to the dirty rows.

    Algorithm assignment, phases, partition, threads, backend, panel
    width and shard grid are inherited — the bit-for-bit contract makes a
    stale assignment safe, and inheriting it keeps the patch on the same
    dispatch machinery (bands, shard cells, segments) as the full run.
    Modeled cycles/bytes are scaled by each band's surviving row share so
    the prediction ledger prices the patch, not the full problem.
    """
    sel = np.zeros(nrows, dtype=bool)
    sel[dirty] = True
    bands = []
    for band in plan.bands:
        rows = np.asarray(band.rows)
        keep = rows[sel[rows]]
        if keep.size == 0:
            continue
        share = keep.size / max(1, rows.size)
        bands.append(
            RowBand(
                rows=keep,
                algo=band.algo,
                reason=(band.reason + " [delta]") if band.reason else "delta patch",
                est_cycles=band.est_cycles * share,
                est_bytes=band.est_bytes * share,
                batch=band.batch,
            )
        )
    return ExecutionPlan(
        shape=plan.shape,
        bands=bands,
        complement=plan.complement,
        phases=plan.phases,
        threads=plan.threads,
        partition=plan.partition,
        backend=plan.backend,
        panel_width=plan.panel_width,
        shards=plan.shards,
        machine=plan.machine,
        mode="delta",
        partial=True,
        notes=[f"delta patch: {int(dirty.size)}/{nrows} rows dirty"],
    )


def _slot_key(a, b, mask, *, complement, phases, semiring, impl, backend,
              machine, plan_kwargs) -> tuple:
    """One delta state per distinct problem a session serves."""
    return (
        a.shape, b.shape, mask.shape,
        bool(complement), phases,
        getattr(semiring, "name", None), impl, backend, machine,
        tuple(sorted((k, v) for k, v in plan_kwargs.items() if v is not None)),
    )


def delta_execute(
    a: CSR,
    b: CSR,
    mask: CSR,
    *,
    session,
    delta="auto",
    machine=None,
    complement: bool = False,
    phases: Optional[int] = None,
    semiring: Semiring = PLUS_TIMES,
    impl: str = "auto",
    counter: Optional[OpCounter] = None,
    backend: Optional[str] = None,
    b_csc=None,
    planner=None,
    **plan_kwargs,
) -> CSR:
    """Incremental ``C = M .* (A @ B)`` against the session's cached state.

    The first call on a problem slot (and any call whose operand shapes
    changed, whose dirty fraction exceeds the threshold, or whose session
    state was invalidated) runs the ordinary sessioned plan-and-execute
    path and caches operands, block digests, plan and result.  Subsequent
    calls diff, patch and splice.  Results are bit-for-bit identical to a
    full recompute in every case.
    """
    mode, threshold = _resolve_mode(delta)
    if machine is not None and not isinstance(machine, MachineConfig):
        machine = resolve_machine(machine)
    nrows = a.nrows
    slot = _slot_key(
        a, b, mask, complement=complement, phases=phases, semiring=semiring,
        impl=impl, backend=backend, machine=machine, plan_kwargs=plan_kwargs,
    )
    fa, fb, fm = (
        session.fingerprint(a),
        session.fingerprint(b),
        session.fingerprint(mask),
    )

    def full_run():
        pl = session.plan(
            a, b, mask,
            complement=complement, phases=phases,
            semiring_name=getattr(semiring, "name", None),
            counter=counter, backend=backend,
            machine=machine, planner=planner, **plan_kwargs,
        )
        c = execute(
            pl, a, b, mask,
            semiring=semiring, impl=impl, counter=counter,
            backend=None, b_csc=b_csc, session=session,
        )
        return pl, c

    def store(plan, result):
        session._delta_store(
            slot,
            _DeltaState(
                a, b, mask, fa, fb, fm,
                _digests(session, a, fa, values=True),
                _digests(session, b, fb, values=True),
                _digests(session, mask, fm, values=False),
                plan, result,
            ),
        )

    state = session._delta_get(slot)
    if state is None or (state.fa.shape, state.fb.shape, state.fm.shape) != (
        fa.shape, fb.shape, fm.shape
    ):
        pl, c = full_run()
        if counter is not None:
            counter.rows_recomputed += nrows
        store(pl, c)
        return c

    # identical problem: A and B byte-equal, mask structure-equal
    if (
        fa.key == state.fa.key
        and fb.key == state.fb.key
        and fm.structure_key == state.fm.structure_key
    ):
        session.delta_hits += 1
        if counter is not None:
            counter.rows_patched += nrows
        return state.result

    a_dirty = _dirty_rows(session, state.a, a, state.fa, fa, values=True)
    m_dirty = _dirty_rows(session, state.mask, mask, state.fm, fm, values=False)
    b_changed = _dirty_rows(session, state.b, b, state.fb, fb, values=True)
    b_touched = _propagate_b(session, a, fa, b_changed)
    dirty = sorted_unique(np.concatenate([a_dirty, m_dirty, b_touched]))
    dplan = DeltaPlan(
        nrows=nrows, dirty_rows=dirty, a_dirty=a_dirty,
        b_touched=b_touched, mask_dirty=m_dirty,
    )

    if dplan.dirty_count == 0:
        # differing bytes that cannot reach the output (mask values only)
        session.delta_hits += 1
        if counter is not None:
            counter.rows_patched += nrows
        store(state.plan, state.result)
        return state.result

    if mode != "force" and dplan.fraction > threshold:
        session.delta_fallbacks += 1
        if counter is not None:
            counter.delta_fallbacks += 1
            counter.rows_recomputed += nrows
        pl, c = full_run()
        store(pl, c)
        return c

    patched = _patch_plan(state.plan, dirty, nrows)
    tr = _obs.current()
    patch_cm = (
        tr.span(
            "engine.delta",
            {
                "rows_recomputed": dplan.dirty_count,
                "rows_patched": nrows - dplan.dirty_count,
                "dirty_fraction": dplan.fraction,
                "a_dirty": int(a_dirty.size),
                "b_touched": int(b_touched.size),
                "mask_dirty": int(m_dirty.size),
                "est_cycles": float(sum(bd.est_cycles for bd in patched.bands)),
                "est_bytes": float(sum(bd.est_bytes for bd in patched.bands)),
                "backend": patched.backend,
            },
            counter=counter,
        )
        if tr is not None else _obs.NULL_SPAN
    )
    with patch_cm:
        c_patch = execute(
            patched, a, b, mask,
            semiring=semiring, impl=impl, counter=counter,
            backend=None, b_csc=b_csc, session=session,
        )
        result = state.result.replace_rows(dirty, c_patch)
    session.delta_patches += 1
    if counter is not None:
        counter.rows_recomputed += dplan.dirty_count
        counter.rows_patched += nrows - dplan.dirty_count
    store(state.plan, result)
    return result
