"""The :class:`Planner` — turns (A, B, M, machine) into an
:class:`~repro.engine.plan.ExecutionPlan`.

On the default machine — the host profile (:func:`repro.machine.host_profile`)
— the algorithm comes from a short rule measured on the host: the pull-based
``inner`` kernel when it reads fewer than a third as many B entries as the
product has flops, MSA otherwise (and always under a complemented mask).
The rule picks one algorithm per call (mode ``"rule"``); the worker count is
capped at the CPUs this process may use.

On a paper preset (``machine="haswell"``/``"knl"``) or a fitted config the
machine cost model (:class:`repro.machine.RowCostModel`) drives execution:
the planner evaluates every candidate algorithm's modeled per-row cycles,
assigns each output row to the cheapest one (Figure 7's regime map, computed
rather than eyeballed), decides the 1P/2P phase strategy, picks a row
partition and thread count for the parallel executor, and — given a memory
budget — adds the column panelling of the out-of-core path.

Three banding policies for the cost model:

* ``"cost"`` (default) — per-row argmin over the cost model, with small
  bands consolidated so dispatch overhead cannot swamp the win;
* ``"ratio"`` — the ratio heuristics of the original hybrid dispatcher
  (:func:`repro.core.hybrid.classify_rows`), kept for ablations;
* ``"none"`` — one band, the modeled-cheapest whole-problem algorithm.

Only algorithms with vectorized fast kernels are candidates: the heap
schemes are reference-tier by design (the paper's algorithmic lower bound)
and are plannable only as a forced ``algo=``.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from ..core.hybrid import classify_rows
from ..core.kernels.batch import BATCH_TIERS, BATCHABLE_ALGOS, bucket_census, \
    per_row_flops
from ..core.masked_spgemm import ALGO_LABELS, ALL_ALGOS, supports_complement
from ..machine import RowCostModel
from ..machine.fit import HOST, resolve_machine
from ..parallel.executor import normalize_backend
from .plan import ExecutionPlan, RowBand, ShardGrid

__all__ = ["Planner", "plan", "PLAN_CANDIDATES", "PULL_RULE_RATIO"]

#: default candidate set: the fast-kernel algorithms the executor can run
#: at full speed (heap/heapdot are reference-only and excluded).
PLAN_CANDIDATES = ("inner", "msa", "hash", "mca", "esc")

#: one-line regime rationale per algorithm (paper Sec. 4.3 / Fig. 7)
_REASONS = {
    "inner": "mask much sparser than the product work (pull regime)",
    "mca": "inputs much sparser than the mask (compact accumulator regime)",
    "msa": "comparable densities; dense accumulator is cache-cheap",
    "hash": "comparable densities; compact hash beats an overflowing SPA",
    "esc": "streaming expand-sort-compress cheapest (no accumulator traffic)",
}

_WORD = 8  # bytes per index/value word, as in the paper's analysis

#: the host rule runs ``inner`` when ``PULL_RULE_RATIO * pulls < flops``.
#: Measured on a 2-CPU x86 host (n <= 4096): ``inner`` costs 70-345 ns per
#: pulled B entry and MSA 21-48 ns per flop, so a pull is worth about three
#: flops; Hash and ESC never beat MSA there.
PULL_RULE_RATIO = 3


class Planner:
    """Constructs execution plans from matrix statistics + the host rule
    or the cost model.

    Parameters
    ----------
    machine:
        The :class:`MachineConfig` whose capacities (and, off the host
        profile, cost model) drive every choice; ``None`` is the default
        machine (:func:`repro.machine.default_machine`).
    candidates:
        Algorithms the auto planner may select (default
        :data:`PLAN_CANDIDATES`).
    banding:
        ``"cost"``, ``"ratio"`` or ``"none"`` (see module docs).
    pull_ratio / push_ratio:
        Thresholds for ``banding="ratio"`` (see
        :func:`repro.core.hybrid.classify_rows`).
    min_band_fraction:
        Bands carrying less than this fraction of the modeled work are
        folded into the remaining candidates (dispatch-overhead guard).
    rows_per_thread:
        Target rows per worker when choosing a thread count.
    """

    def __init__(
        self,
        machine=None,
        *,
        candidates: Optional[Sequence[str]] = None,
        banding: str = "cost",
        pull_ratio: float = 8.0,
        push_ratio: float = 8.0,
        min_band_fraction: float = 0.02,
        rows_per_thread: int = 512,
    ) -> None:
        if banding not in ("cost", "ratio", "none"):
            raise ValueError("banding must be 'cost', 'ratio' or 'none'")
        # a machine may be named: a preset ("haswell", "knl") or "fitted"
        # (the host-calibrated config persisted by ``repro.machine fit``)
        self.machine = resolve_machine(machine)
        self.candidates = tuple(candidates) if candidates is not None else PLAN_CANDIDATES
        for c in self.candidates:
            if c not in ALL_ALGOS:
                raise ValueError(f"unknown candidate algorithm {c!r}")
        self.banding = banding
        self.pull_ratio = pull_ratio
        self.push_ratio = push_ratio
        self.min_band_fraction = min_band_fraction
        self.rows_per_thread = rows_per_thread

    # ------------------------------------------------------------------
    def plan(
        self,
        a,
        b,
        mask,
        *,
        complement: bool = False,
        algo: Optional[str] = None,
        phases: Optional[int] = None,
        threads: Optional[int] = None,
        partition: Optional[str] = None,
        backend: Optional[str] = None,
        panel_width: Optional[int] = None,
        memory_budget_bytes: Optional[int] = None,
        shards=None,
        batch: Optional[str] = None,
    ) -> ExecutionPlan:
        """Build a plan for ``C = M .* (A @ B)`` (``!M`` with complement).

        Any of ``algo``, ``phases``, ``threads``, ``partition``, ``backend``
        and ``panel_width`` may be forced; everything left ``None`` (or
        ``algo="auto"``) is decided by the host rule (default machine) or
        the cost model (paper presets, fitted configs).  ``memory_budget_bytes``
        turns on column panelling when the working set exceeds it.  The
        backend heuristic picks ``"process"`` (shared-memory worker pool)
        only when the modeled work amortises the pool's dispatch overhead
        (:attr:`MachineConfig.process_crossover_cycles`).

        ``shards`` turns on the doubly-compressed shard grid (row blocks of
        A x column panels of B/M; see ``docs/sharding.md``): ``None`` keeps
        the plan unsharded, an ``(nrb, ncp)`` tuple forces the grid shape,
        ``"auto"`` shards exactly when the operands' working set exceeds
        :attr:`MachineConfig.shard_memory_budget_bytes`, and an explicit
        :class:`~repro.engine.plan.ShardGrid` is honoured verbatim.  A
        sharded plan is mutually exclusive with ``panel_width`` (its column
        panels already bound the working set).

        ``batch`` forces the fast kernels' batching tier (``"bucket"`` |
        ``"perrow"``; ``None``/``"auto"`` lets the planner decide per band
        from :attr:`MachineConfig.batch_crossover_flops`).  Tiers are
        bit-for-bit identical, so this is purely a performance choice; the
        resolved tier and the band's flops-size-class census land on each
        :class:`~repro.engine.plan.RowBand` for ``explain()``/``as_dict()``.
        """
        if a.ncols != b.nrows:
            raise ValueError(
                f"inner dimensions of A and B do not agree: {a.shape} @ {b.shape}"
            )
        if mask.shape != (a.nrows, b.ncols):
            raise ValueError(
                f"mask shape {mask.shape} must match the output shape "
                f"({a.nrows}, {b.ncols})"
            )
        if phases is not None and phases not in (1, 2):
            raise ValueError("phases must be 1 or 2")
        if algo is not None and algo.lower() == "auto":
            algo = None
        if batch is not None and batch not in BATCH_TIERS:
            raise ValueError(
                f"batch must be one of {BATCH_TIERS} or None, got {batch!r}"
            )

        notes: list = []
        estimates: Dict[str, float] = {}
        # upper-bound flops per output row: every scalar decision below
        # (rule, batch tier, threads, partition, backend) reads it
        row_flops = per_row_flops(a, b)
        flops = int(row_flops.sum())
        if algo is not None:
            bands, mode = self._forced_bands(a, algo, complement), "forced"
            chosen_phases = 1 if phases is None else phases
        elif self._uses_host_rule():
            bands = self._rule_bands(a, b, mask, flops, complement, notes)
            mode = "rule"
            chosen_phases = 1 if phases is None else phases
        else:
            model = RowCostModel(a, b, mask, self.machine, complement=complement)
            cand = [c for c in self.candidates if not complement or supports_complement(c)]
            if complement and len(cand) < len(self.candidates):
                dropped = [c for c in self.candidates if c not in cand]
                notes.append(
                    "complemented mask: dropped "
                    + "/".join(ALGO_LABELS[c] for c in dropped)
                    + " (no complement support)"
                )
            ests = {c: model.estimate(c, phases=1) for c in cand}
            estimates = {
                c: self.machine.seconds(e.total_cycles) for c, e in ests.items()
            }
            if self.banding == "ratio":
                bands, mode = self._ratio_bands(a, b, mask, complement, notes), "ratio"
            elif self.banding == "none":
                bands, mode = self._single_band(a, ests, model), "auto"
            else:
                bands, mode = self._cost_bands(a, ests, notes, model), "auto"
            chosen_phases = (
                phases if phases is not None else self._pick_phases(model, bands, notes)
            )

        self._assign_batch(row_flops, bands, batch, notes)
        if threads is None and mode == "rule" and backend is None:
            threads = self._host_threads(a.nrows, flops, notes)
        elif threads is None:
            threads = self._pick_threads(a.nrows, notes)
        if partition is None:
            partition = self._pick_partition(row_flops, notes)
        if backend is None:
            backend = self._pick_backend(flops, bands, threads, notes)
        else:
            backend = normalize_backend(backend)
        shard_grid = (
            self._pick_shards(a, b, mask, shards, complement, notes)
            if shards is not None
            else None
        )
        if shard_grid is not None and panel_width is not None:
            raise ValueError(
                "panel_width and shards are mutually exclusive: the shard "
                "grid's column panels already bound the working set"
            )
        if (
            panel_width is None
            and memory_budget_bytes is not None
            and shard_grid is None
        ):
            panel_width = self._pick_panel_width(b, mask, memory_budget_bytes, notes)
        if mask.nnz == 0 and not complement:
            notes.append("mask is empty: the output is empty regardless of algorithm")

        return ExecutionPlan(
            shape=(a.nrows, b.ncols),
            bands=bands,
            complement=complement,
            phases=chosen_phases,
            threads=threads,
            partition=partition,
            backend=backend,
            panel_width=panel_width,
            shards=shard_grid,
            machine=self.machine.name,
            mode=mode,
            estimates=estimates,
            notes=notes,
        ).validate()

    # ------------------------------------------------------------------
    # banding policies
    # ------------------------------------------------------------------
    def _uses_host_rule(self) -> bool:
        """Host-profile plans take the measured rule, not the cost model
        (``banding="ratio"``/``"none"`` stay explicit model ablations)."""
        return (
            self.machine.name == HOST
            and self.banding == "cost"
            and "msa" in self.candidates
        )

    def _rule_bands(self, a, b, mask, flops: int, complement: bool, notes):
        """One band for the whole call, chosen by the host pull/push rule.

        ``pulls`` is exactly the number of B entries the ``inner`` kernel
        reads (column ``B[:, j]`` once per mask entry ``(i, j)``); ``flops``
        is what MSA multiplies.  A pull costs about ``PULL_RULE_RATIO``
        flops on the host, so ``inner`` wins only when the mask is that
        much sparser than the product.
        """
        if a.nrows == 0:
            return []
        if complement:
            algo, why = "msa", "complemented mask (inner cannot pull it)"
            notes.append(f"host rule: complemented mask, flops={flops} -> msa")
        else:
            col_nnz = np.bincount(b.indices, minlength=b.ncols)
            pulls = int(col_nnz[mask.indices].sum())
            pull = PULL_RULE_RATIO * pulls < flops
            algo = "inner" if pull and "inner" in self.candidates else "msa"
            why = "pull regime" if algo == "inner" else "push regime"
            notes.append(
                f"host rule: pulls={pulls} (B entries inner reads), "
                f"flops={flops}; {PULL_RULE_RATIO}*pulls "
                f"{'<' if pull else '>='} flops -> {algo}"
            )
        rows = np.arange(a.nrows, dtype=np.int64)
        return [RowBand(rows=rows, algo=algo, reason="host rule: " + why)]

    def _forced_bands(self, a, algo: str, complement: bool):
        key = algo.lower()
        if key not in ALL_ALGOS:
            raise ValueError(
                f"unknown algorithm {algo!r}; expected one of {ALL_ALGOS}"
            )
        if complement and not supports_complement(key):
            raise ValueError(
                f"{ALGO_LABELS[key]} does not support complemented masks"
            )
        rows = np.arange(a.nrows, dtype=np.int64)
        return [RowBand(rows=rows, algo=key, reason="forced by caller")]

    def _single_band(self, a, ests, model):
        if a.nrows == 0:
            return []
        best = min(ests, key=lambda c: float(ests[c].total_cycles))
        return [
            RowBand(
                rows=np.arange(a.nrows, dtype=np.int64),
                algo=best,
                reason="modeled cheapest whole-problem algorithm",
                est_cycles=float(ests[best].total_cycles),
                est_bytes=float(model.row_bytes(best).sum()),
            )
        ]

    def _cost_bands(self, a, ests, notes, model):
        nrows = a.nrows
        if nrows == 0:
            return []
        cand = list(ests)
        cycles = np.stack([ests[c].row_cycles for c in cand])  # (ncand, nrows)
        winner = np.argmin(cycles, axis=0)
        win_cycles = cycles[winner, np.arange(nrows)]
        total = max(float(win_cycles.sum()), 1e-30)
        # consolidate: drop candidates whose winning rows carry a negligible
        # share of the modeled work, then re-pick among the survivors
        shares = {
            i: float(win_cycles[winner == i].sum()) / total for i in range(len(cand))
        }
        keep = [i for i, s in shares.items() if s >= self.min_band_fraction]
        if not keep:
            keep = [max(shares, key=shares.get)]
        if len(keep) < len(cand):
            folded = [cand[i] for i in range(len(cand)) if i not in keep and np.any(winner == i)]
            if folded:
                notes.append(
                    "folded negligible bands (" + ", ".join(folded) + ") into survivors"
                )
            sub = np.argmin(cycles[keep], axis=0)
            winner = np.asarray(keep)[sub]
        bands = []
        for i, c in enumerate(cand):
            rows = np.flatnonzero(winner == i).astype(np.int64)
            if rows.size == 0:
                continue
            bands.append(
                RowBand(
                    rows=rows,
                    algo=c,
                    reason=_REASONS.get(c, "modeled cheapest for these rows"),
                    est_cycles=float(cycles[i, rows].sum()),
                    est_bytes=float(model.row_bytes(c)[rows].sum()),
                )
            )
        return bands

    def _ratio_bands(self, a, b, mask, complement, notes):
        classes = classify_rows(
            a,
            b,
            mask,
            self.machine,
            pull_ratio=self.pull_ratio,
            push_ratio=self.push_ratio,
            complement=complement,
        )
        notes.append(
            f"ratio banding (pull_ratio={self.pull_ratio}, "
            f"push_ratio={self.push_ratio})"
        )
        return [
            RowBand(
                rows=np.asarray(rows, dtype=np.int64),
                algo=algo,
                reason=_REASONS.get(algo, "ratio-classified"),
            )
            for algo, rows in classes.items()
        ]

    # ------------------------------------------------------------------
    # scalar decisions
    # ------------------------------------------------------------------
    def _assign_batch(self, per, bands, forced, notes) -> None:
        """Resolve each band's kernel batching tier and bucket census.

        Batchable algorithms (MSA/Hash/ESC fast kernels) get the bucketed
        tier exactly when the band's upper-bound flops reach the machine's
        ``batch_crossover_flops`` (or whatever ``batch=`` forces); the rest
        are pinned to ``"perrow"``.  Both tiers are bit-for-bit identical,
        so this is a pure performance decision — recorded on the band, with
        a census note mirroring the shard census, so ``explain()`` shows
        what will run batched and why.
        """
        if not bands:
            return
        crossover = int(self.machine.batch_crossover_flops)
        bucketed_rows = 0
        perrow_rows = 0
        any_batchable = False
        for band in bands:
            rows = np.asarray(band.rows)
            band_flops = int(per[rows].sum())
            band.buckets = bucket_census(per[rows])
            if band.algo not in BATCHABLE_ALGOS:
                band.batch = "perrow"
                continue
            any_batchable = True
            if forced is not None and forced != "auto":
                band.batch = forced
            else:
                band.batch = "bucket" if band_flops >= crossover else "perrow"
            if band.batch == "bucket":
                bucketed_rows += band.nrows
            else:
                perrow_rows += band.nrows
        if not any_batchable:
            return
        if forced is not None and forced != "auto":
            notes.append(f"batch tier forced to {forced!r} by caller")
        else:
            notes.append(
                f"batch tiers: {bucketed_rows} rows bucketed, "
                f"{perrow_rows} rows per-row "
                f"(crossover {crossover} upper-bound flops)"
            )

    def _pick_phases(self, model, bands, notes) -> int:
        totals = {1: 0.0, 2: 0.0}
        for band in bands:
            for p in (1, 2):
                est = model.estimate(band.algo, phases=p)
                totals[p] += float(est.row_cycles[band.rows].sum())
        chosen = 1 if totals[1] <= totals[2] else 2
        other = 2 if chosen == 1 else 1
        notes.append(
            f"{chosen}P modeled {totals[other] / max(totals[chosen], 1e-30):.2f}x "
            f"cheaper than {other}P"
        )
        return chosen

    def _pick_threads(self, nrows: int, notes) -> int:
        threads = int(min(self.machine.cores, max(1, nrows // self.rows_per_thread)))
        if threads > 1:
            notes.append(
                f"{threads} threads (~{self.rows_per_thread} rows/worker, "
                f"{self.machine.cores}-core {self.machine.name})"
            )
        return threads

    def _host_threads(self, nrows: int, flops: int, notes) -> int:
        """Worker count of a host-rule plan: one serial pass unless the
        work clears the process crossover.  Measured on a 2-CPU host, GIL-
        bound thread partitions lose to a serial pass below it (1.3-2.2x
        slower at 6.6e4-2.6e5 flops) and never beat process workers."""
        work = float(flops) * self.machine.flop_cycles
        if work < self.machine.process_crossover_cycles:
            notes.append(
                f"serial: work {work:.3g} cycles below the process crossover "
                f"{self.machine.process_crossover_cycles:.3g}"
            )
            return 1
        return self._pick_threads(nrows, notes)

    def _pick_backend(self, flops: int, bands, threads: int, notes) -> str:
        """Cost-model heuristic for the execution backend.

        ``process`` pays a per-call dispatch overhead (publish operands into
        shared memory, attach in workers, pickle results back) that only
        amortises on large problems, so it is selected exactly when the
        modeled whole-problem work clears
        :attr:`MachineConfig.process_crossover_cycles` — the crossover a
        host can re-fit via :func:`repro.machine.calibrate_process_crossover`.
        Below the crossover, multi-worker plans stay on the cheap-to-enter
        thread backend; single-worker plans are serial by construction.
        """
        if threads <= 1:
            return "serial"
        work = float(sum(band.est_cycles for band in bands))
        what = "modeled work"
        if work <= 0.0:
            # forced and host-rule plans carry no modeled cycles; the flop
            # count is the work proxy (an underestimate, hence conservative)
            work = float(flops) * self.machine.flop_cycles
            what = "work (flops x flop_cycles)"
        crossover = self.machine.process_crossover_cycles
        from ..parallel.pool import process_backend_available

        if work >= crossover and process_backend_available():
            notes.append(
                f"process backend: {what} {work:.3g} cycles >= "
                f"crossover {crossover:.3g} (zero-copy shm operands, "
                "persistent pool)"
            )
            return "process"
        notes.append(
            f"thread backend: {what} {work:.3g} cycles below the "
            f"process crossover {crossover:.3g}"
        )
        return "thread"

    def _pick_partition(self, row_flops, notes) -> str:
        fl = row_flops.astype(np.float64)
        mean = float(fl.mean()) if fl.size else 0.0
        if mean <= 0:
            return "block"
        cv = float(fl.std()) / mean
        if cv > 0.25:
            notes.append(f"balanced partition (row-work CV {cv:.2f})")
            return "balanced"
        return "block"

    def _pick_shards(self, a, b, mask, shards, complement: bool, notes):
        """Resolve the ``shards`` knob into a :class:`ShardGrid` (or None).

        ``"auto"`` shards exactly when the operands' index+value working set
        exceeds :attr:`MachineConfig.shard_memory_budget_bytes`, sizing the
        grid so each cell's share of the working set fits the budget (rows
        and columns split as close to square as the factor allows).  A
        resolved grid gets a census note — how many cells actually carry
        mask entries — because those are the only cells the executor will
        dispatch (plain mask; a complemented mask is dense precisely where
        the mask is empty, so nothing prunes).
        """
        nrows, ncols = a.nrows, b.ncols
        grid: Optional[ShardGrid]
        if isinstance(shards, ShardGrid):
            grid = shards.validate((nrows, ncols))
        elif isinstance(shards, str):
            if shards.lower() != "auto":
                raise ValueError(
                    f"shards must be 'auto', an (nrb, ncp) tuple or a "
                    f"ShardGrid, got {shards!r}"
                )
            budget = int(self.machine.shard_memory_budget_bytes)
            footprint = 2 * _WORD * (a.nnz + b.nnz + mask.nnz)
            if budget <= 0 or footprint <= budget or nrows == 0 or ncols == 0:
                notes.append(
                    f"sharding auto: working set ~{footprint} B fits the "
                    f"{budget} B shard budget; unsharded"
                )
                return None
            factor = -(-footprint // budget)  # ceil
            nrb = min(nrows, int(np.ceil(np.sqrt(factor))))
            ncp = min(ncols, int(-(-factor // max(nrb, 1))))
            if nrb * ncp <= 1:
                return None
            grid = ShardGrid.regular((nrows, ncols), nrb, ncp)
            notes.append(
                f"sharding auto: working set ~{footprint} B > budget "
                f"{budget} B; grid {nrb}x{ncp}"
            )
        else:
            nrb, ncp = shards
            nrb = max(1, min(int(nrb), max(1, nrows)))
            ncp = max(1, min(int(ncp), max(1, ncols)))
            if nrb * ncp <= 1:
                notes.append("shard grid 1x1 degenerates to the unsharded path")
                return None
            grid = ShardGrid.regular((nrows, ncols), nrb, ncp)
        if complement:
            notes.append(
                f"complemented mask: all {grid.ncells} shard cells run "
                "(empty mask cells are dense under the complement)"
            )
        else:
            nonempty = _count_nonempty_cells(mask, grid)
            notes.append(
                f"shard grid {grid.nrb}x{grid.ncp}: {nonempty}/{grid.ncells} "
                f"cells carry mask entries ({grid.ncells - nonempty} pruned "
                "before dispatch)"
            )
        return grid

    def _pick_panel_width(self, b, mask, budget_bytes: int, notes):
        if budget_bytes <= 0:
            raise ValueError("memory_budget_bytes must be positive")
        ncols = b.ncols
        footprint = 2 * (b.nnz + mask.nnz) * _WORD
        if footprint <= budget_bytes or ncols == 0:
            return None
        width = max(1, int(ncols * budget_bytes / footprint))
        notes.append(
            f"column panels of width {width} "
            f"(working set ~{footprint} B > budget {budget_bytes} B)"
        )
        return width


def _count_nonempty_cells(mask, grid: ShardGrid) -> int:
    """How many shard cells carry at least one mask entry (one O(nnz) pass)."""
    if mask.nnz == 0:
        return 0
    rb = np.asarray(grid.row_bounds, dtype=np.int64)
    cb = np.asarray(grid.col_bounds, dtype=np.int64)
    rows = np.repeat(np.arange(mask.nrows, dtype=np.int64), mask.row_nnz())
    ri = np.searchsorted(rb, rows, side="right") - 1
    ci = np.searchsorted(cb, mask.indices, side="right") - 1
    return int(np.unique(ri * grid.ncp + ci).size)


def plan(a, b, mask, *, machine=None, **kwargs) -> ExecutionPlan:
    """One-shot convenience: ``Planner(machine).plan(a, b, mask, **kwargs)``."""
    return Planner(machine).plan(a, b, mask, **kwargs)
