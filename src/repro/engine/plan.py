"""The :class:`ExecutionPlan` — an explicit, inspectable record of *how* a
masked SpGEMM will be executed.

The paper's Section 9 names hybrid, regime-aware algorithm selection as the
key future direction; this module is the data structure that direction hangs
off.  A plan fixes every decision the runtime used to scatter across four
competing entry points:

* **row bands** — which algorithm runs which output rows (the per-row
  regime split of Figure 7 / Section 4.3, generalising the old
  ``masked_spgemm_hybrid``),
* **phases** — the 1P/2P output-formation strategy of Section 6,
* **partition / threads / backend** — the row-parallel decomposition
  (Section 3's coarse-grained parallelism, previously hard-wired into
  ``parallel_masked_spgemm``) and which executor carries it out
  (``serial`` | ``thread`` | ``process`` — the shared-memory worker pool),
* **column panels** — the optional memory-bounding of the old
  ``masked_spgemm_chunked``.

Plans are produced by :class:`repro.engine.Planner` (cost-model driven) or
constructed by hand, and consumed by :func:`repro.engine.execute`.  They are
plain data: no matrix references, so a plan can be logged, serialised
(:meth:`ExecutionPlan.as_dict`) and replayed on equal-shaped inputs.
:meth:`ExecutionPlan.explain` renders the *why* — benchmarks and docs print
it so algorithm choices are auditable rather than folklore.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = ["RowBand", "ShardGrid", "ExecutionPlan"]

#: algorithms a plan may reference (kept in sync with repro.core by tests)
_KNOWN_ALGOS = ("inner", "msa", "hash", "mca", "heap", "heapdot", "esc")
_NO_COMPLEMENT = frozenset({"inner", "mca"})
#: batch tiers a band may carry (kept in sync with repro.core.kernels.batch)
_KNOWN_BATCH = ("auto", "bucket", "perrow")


@dataclass
class RowBand:
    """A contiguous-or-scattered set of output rows bound to one algorithm."""

    rows: np.ndarray  #: sorted global row indices this band owns
    algo: str  #: kernel key ("msa", "hash", "mca", "inner", "esc", ...)
    reason: str = ""  #: one-line rationale recorded by the planner
    est_cycles: float = 0.0  #: modeled cycles for this band (0 if not modeled)
    #: modeled memory traffic for this band in bytes (0 if not modeled);
    #: the prediction ledger pairs it with the measured counters
    est_bytes: float = 0.0
    #: batching tier the band's kernel runs ("auto" | "bucket" | "perrow");
    #: planner-resolved from the machine's batch_crossover_flops for
    #: batchable algorithms, "perrow" for the rest
    batch: str = "auto"
    #: flops-size-class census of the band's rows ({bucket_id: nrows},
    #: bucket = bit_length of the row's upper-bound flops); informational,
    #: rendered by explain()/as_dict()
    buckets: Dict[int, int] = field(default_factory=dict)

    @property
    def nrows(self) -> int:
        return int(np.asarray(self.rows).size)

    def is_full(self, total_rows: int) -> bool:
        """Whether this band covers every output row ``[0, total_rows)``."""
        r = np.asarray(self.rows)
        return (
            r.size == total_rows
            and (total_rows == 0 or (int(r[0]) == 0 and int(r[-1]) == total_rows - 1))
        )

    def is_contiguous(self) -> bool:
        r = np.asarray(self.rows)
        if r.size <= 1:
            return True
        return int(r[-1]) - int(r[0]) + 1 == r.size and bool(np.all(np.diff(r) == 1))


@dataclass(frozen=True)
class ShardGrid:
    """A 2-D shard decomposition of the output: row blocks x column panels.

    ``row_bounds``/``col_bounds`` are monotone boundary tuples spanning
    ``[0, nrows]`` / ``[0, ncols]``; cell ``(i, j)`` covers output rows
    ``[row_bounds[i], row_bounds[i+1])`` and columns
    ``[col_bounds[j], col_bounds[j+1])``.  The executor materialises each
    cell's operands doubly-compressed (DCSR row blocks of A, DCSC column
    panels of B, DCSR mask cells) and prunes any cell whose mask cell is
    empty before dispatch — the masked analogue of hypersparse pruning.
    Bounds are plain int tuples so a grid is hashable (plan-cache keys)
    and JSON-able (:meth:`as_dict`).
    """

    row_bounds: Tuple[int, ...]
    col_bounds: Tuple[int, ...]

    @classmethod
    def regular(cls, shape, nrb: int, ncp: int) -> "ShardGrid":
        """An evenly-spaced ``nrb x ncp`` grid over ``shape``."""
        rb = np.linspace(0, int(shape[0]), int(nrb) + 1).astype(np.int64)
        cb = np.linspace(0, int(shape[1]), int(ncp) + 1).astype(np.int64)
        return cls(tuple(int(x) for x in rb), tuple(int(x) for x in cb))

    @property
    def nrb(self) -> int:
        """Number of row blocks."""
        return len(self.row_bounds) - 1

    @property
    def ncp(self) -> int:
        """Number of column panels."""
        return len(self.col_bounds) - 1

    @property
    def ncells(self) -> int:
        return self.nrb * self.ncp

    def row_blocks(self) -> List[Tuple[int, int]]:
        return [
            (self.row_bounds[i], self.row_bounds[i + 1]) for i in range(self.nrb)
        ]

    def col_panels(self) -> List[Tuple[int, int]]:
        return [
            (self.col_bounds[j], self.col_bounds[j + 1]) for j in range(self.ncp)
        ]

    def validate(self, shape) -> "ShardGrid":
        for bounds, dim, what in (
            (self.row_bounds, int(shape[0]), "row_bounds"),
            (self.col_bounds, int(shape[1]), "col_bounds"),
        ):
            if len(bounds) < 2:
                raise ValueError(f"shard {what} needs at least one block")
            if bounds[0] != 0 or bounds[-1] != dim:
                raise ValueError(f"shard {what} must span [0, {dim}]")
            if any(b > c for b, c in zip(bounds, bounds[1:])):
                raise ValueError(f"shard {what} must be non-decreasing")
        return self

    def as_dict(self) -> dict:
        return {
            "grid": [self.nrb, self.ncp],
            "row_bounds": list(self.row_bounds),
            "col_bounds": list(self.col_bounds),
        }


@dataclass
class ExecutionPlan:
    """Every decision needed to run ``C = M .* (A @ B)`` (or ``!M``).

    ``bands`` must cover each output row exactly once.  ``estimates`` holds
    the planner's modeled whole-problem seconds per candidate algorithm (for
    :meth:`explain`); ``notes`` records free-form planner decisions.
    """

    shape: Tuple[int, int]  #: output (and mask) shape
    bands: List[RowBand]
    complement: bool = False
    phases: int = 1  #: 1 (one-phase) or 2 (symbolic + numeric)
    threads: int = 1
    partition: str = "balanced"  #: "block" | "cyclic" | "balanced"
    backend: str = "thread"  #: "serial" | "thread" | "process"
    panel_width: Optional[int] = None  #: column-panel width, or None
    shards: Optional[ShardGrid] = None  #: 2-D shard grid, or None (unsharded)
    machine: str = "haswell"  #: name of the MachineConfig the plan targets
    mode: str = "auto"  #: "auto" | "ratio" | "forced" | "delta"
    #: a partial plan covers only a subset of the output rows (each at most
    #: once) — the delta engine's patch path re-executes dirty rows only and
    #: splices them into a cached result (see docs/incremental.md)
    partial: bool = False
    estimates: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    # ------------------------------------------------------------------
    def algos(self) -> Tuple[str, ...]:
        """Distinct algorithms used, ordered by first appearance."""
        seen: List[str] = []
        for band in self.bands:
            if band.algo not in seen:
                seen.append(band.algo)
        return tuple(seen)

    @property
    def algo(self) -> Optional[str]:
        """The single algorithm when the plan is unbanded, else None."""
        a = self.algos()
        return a[0] if len(a) == 1 else None

    def nrows_per_algo(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for band in self.bands:
            out[band.algo] = out.get(band.algo, 0) + band.nrows
        return out

    # ------------------------------------------------------------------
    def validate(self) -> "ExecutionPlan":
        """Check internal consistency; raises ValueError on a broken plan."""
        nrows = self.shape[0]
        if self.phases not in (1, 2):
            raise ValueError("phases must be 1 or 2")
        if self.threads <= 0:
            raise ValueError("threads must be positive")
        if self.partition not in ("block", "cyclic", "balanced"):
            raise ValueError("partition must be 'block', 'cyclic' or 'balanced'")
        if self.backend not in ("serial", "thread", "process"):
            raise ValueError("backend must be 'serial', 'thread' or 'process'")
        if self.panel_width is not None and self.panel_width <= 0:
            raise ValueError("panel_width must be positive")
        if self.shards is not None:
            if not isinstance(self.shards, ShardGrid):
                raise ValueError("shards must be a ShardGrid or None")
            if self.panel_width is not None:
                raise ValueError(
                    "panel_width and shards are mutually exclusive: the shard "
                    "grid's column panels already bound the working set"
                )
            self.shards.validate(self.shape)
        counts = np.zeros(nrows, dtype=np.int64)
        for band in self.bands:
            if band.algo not in _KNOWN_ALGOS:
                raise ValueError(f"plan references unknown algorithm {band.algo!r}")
            if band.batch not in _KNOWN_BATCH:
                raise ValueError(
                    f"plan references unknown batch tier {band.batch!r}; "
                    f"expected one of {_KNOWN_BATCH}"
                )
            if self.complement and band.algo in _NO_COMPLEMENT:
                raise ValueError(
                    f"plan routes a complemented mask to {band.algo!r}, "
                    "which does not support complement"
                )
            r = np.asarray(band.rows)
            if r.size:
                if int(r.min()) < 0 or int(r.max()) >= nrows:
                    raise ValueError("band rows out of range")
                counts += np.bincount(r, minlength=nrows)
        if self.partial:
            if self.bands and not bool(np.all(counts <= 1)):
                raise ValueError(
                    "partial plan bands must cover each output row at most once"
                )
        else:
            if self.bands and not bool(np.all(counts == 1)):
                raise ValueError(
                    "plan bands must cover every output row exactly once"
                )
            if not self.bands and nrows != 0:
                raise ValueError("plan has no bands but the output has rows")
        return self

    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        """JSON-able summary (row sets abbreviated to counts)."""
        return {
            "shape": list(self.shape),
            "complement": self.complement,
            "phases": self.phases,
            "threads": self.threads,
            "partition": self.partition,
            "backend": self.backend,
            "panel_width": self.panel_width,
            "shards": self.shards.as_dict() if self.shards is not None else None,
            "machine": self.machine,
            "mode": self.mode,
            "partial": self.partial,
            "bands": [
                {
                    "algo": band.algo,
                    "nrows": band.nrows,
                    "reason": band.reason,
                    "est_cycles": band.est_cycles,
                    "est_bytes": band.est_bytes,
                    "batch": band.batch,
                    "buckets": {int(k): int(v) for k, v in band.buckets.items()},
                }
                for band in self.bands
            ],
            "estimates_seconds": dict(self.estimates),
            "notes": list(self.notes),
        }

    def explain(self) -> str:
        """Human-readable account of what will run and why."""
        nrows = max(1, self.shape[0])
        lines = [
            f"ExecutionPlan[{self.mode}] for {self.shape[0]}x{self.shape[1]} "
            f"output on {self.machine} "
            f"({'complemented' if self.complement else 'plain'} mask)",
            f"  phases={self.phases}P  threads={self.threads} "
            f"({self.partition} partition, {self.backend} backend)  "
            + (
                f"column panels of width {self.panel_width}"
                if self.panel_width
                else "no column panels"
            ),
        ]
        if self.partial:
            covered = sum(band.nrows for band in self.bands)
            lines.append(
                f"  partial plan: {covered} of {self.shape[0]} output rows "
                "(delta patch — untouched rows come from the cached result)"
            )
        if self.shards is not None:
            lines.append(
                f"  shard grid {self.shards.nrb}x{self.shards.ncp} "
                "(DCSR row blocks x DCSC column panels; empty mask cells "
                "pruned before dispatch)"
            )
        for i, band in enumerate(self.bands):
            pct = 100.0 * band.nrows / nrows
            cyc = f", ~{band.est_cycles:.3g} cycles" if band.est_cycles else ""
            why = f" — {band.reason}" if band.reason else ""
            tier = f" batch={band.batch}" if band.batch != "auto" else ""
            census = ""
            if band.buckets:
                top = sorted(
                    band.buckets.items(), key=lambda kv: kv[1], reverse=True
                )[:4]
                body = ", ".join(f"2^{k}: {v}" for k, v in sorted(top))
                more = len(band.buckets) - len(top)
                census = f" buckets{{{body}{f', +{more} more' if more > 0 else ''}}}"
            lines.append(
                f"  band {i}: algo={band.algo:<7s} rows={band.nrows}"
                f" ({pct:.1f}%){cyc}{tier}{census}{why}"
            )
        if self.estimates:
            ranked = sorted(self.estimates.items(), key=lambda kv: kv[1])
            pretty = "  <  ".join(f"{k} {v:.3e}s" for k, v in ranked)
            lines.append(f"  modeled candidates (fastest first): {pretty}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.explain()
