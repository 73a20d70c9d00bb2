"""Hybrid masked SpGEMM — the paper's stated future work (Section 9):

    "we will investigate hybrid algorithms that can use different
     accumulators in the same Masked SpGEMM depending on the density of the
     mask and parts of matrices being processed."

This idea is now implemented by the execution engine (:mod:`repro.engine`),
whose planner assigns every output row band the algorithm its regime
favours.  This module keeps two things:

* :func:`classify_rows` — the *ratio-heuristic* row classifier (the
  original hybrid policy, per Figure 7 / Section 4.3): it is one of the
  planner's banding policies (``banding="ratio"``) and stays exposed so the
  ablation bench can sweep its thresholds:

  * ``nnz(m_i) << flops_i``  (mask much sparser than the work) -> **inner**,
  * ``flops_i << nnz(m_i)``  (inputs much sparser than the mask) -> **mca**
    (compact accumulator; heap is reference-only and never faster here),
  * otherwise -> **msa** when the dense accumulator fits the private cache
    for the given machine, else **hash**.

  With ``complement=True`` the inner/mca regimes are unavailable (the
  paper models neither under a complemented mask, Sec. 8.4:
  :data:`~repro.machine.MODEL_NO_COMPLEMENT`) and every row falls through
  to the msa/hash regime.

* :func:`masked_spgemm_hybrid` — the historical front door, now a thin
  wrapper that builds a ratio-banded :class:`~repro.engine.ExecutionPlan`
  and hands it to the engine executor.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..machine import HASWELL, MODEL_NO_COMPLEMENT, MachineConfig, OpCounter, \
    flops_per_row
from ..semiring import PLUS_TIMES, Semiring
from ..sparse import CSR

__all__ = ["masked_spgemm_hybrid", "classify_rows"]


def classify_rows(
    a: CSR,
    b: CSR,
    mask: CSR,
    machine: MachineConfig = HASWELL,
    *,
    pull_ratio: float = 8.0,
    push_ratio: float = 8.0,
    complement: bool = False,
) -> Dict[str, np.ndarray]:
    """Partition row indices into algorithm classes.

    ``pull_ratio``: choose inner when ``flops_i > pull_ratio * nnz(m_i)``.
    ``push_ratio``: choose mca when ``nnz(m_i) > push_ratio * flops_i``.
    ``complement``: complemented masks never route to the regimes the
    model has no complement formula for (:data:`MODEL_NO_COMPLEMENT`:
    inner and mca), so all rows land in the msa/hash regime.
    """
    fl = flops_per_row(a, b).astype(np.float64)
    mn = mask.row_nnz().astype(np.float64)
    rows = np.arange(a.nrows)
    excluded = MODEL_NO_COMPLEMENT if complement else frozenset()
    inner_rows = np.zeros(a.nrows, dtype=bool)
    if "inner" not in excluded:
        inner_rows = fl > pull_ratio * np.maximum(mn, 1.0)
    mca_rows = np.zeros(a.nrows, dtype=bool)
    if "mca" not in excluded:
        mca_rows = (~inner_rows) & (mn > push_ratio * np.maximum(fl, 1.0))
    rest = ~(inner_rows | mca_rows)
    msa_fits = 2 * b.ncols * 8 <= machine.private_cache_bytes
    out: Dict[str, np.ndarray] = {}
    out["inner"] = rows[inner_rows]
    out["mca"] = rows[mca_rows]
    out["msa" if msa_fits else "hash"] = rows[rest]
    return {k: v for k, v in out.items() if v.size}


def masked_spgemm_hybrid(
    a: CSR,
    b: CSR,
    mask: CSR,
    *,
    machine: MachineConfig = HASWELL,
    complement: bool = False,
    semiring: Semiring = PLUS_TIMES,
    counter: Optional[OpCounter] = None,
    pull_ratio: float = 8.0,
    push_ratio: float = 8.0,
    impl: str = "auto",
) -> CSR:
    """Masked SpGEMM with a per-row algorithm choice (see module docs).

    Equivalent to planning with ``banding="ratio"`` and executing; use
    ``masked_spgemm(..., algo="auto")`` for the cost-model-driven choice.
    """
    from ..engine import Planner, execute

    pl = Planner(
        machine,
        banding="ratio",
        pull_ratio=pull_ratio,
        push_ratio=push_ratio,
    ).plan(a, b, mask, complement=complement, phases=1, threads=1)
    return execute(pl, a, b, mask, semiring=semiring, impl=impl, counter=counter)
