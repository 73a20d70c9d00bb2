"""Cost-attribution reports for the machine model.

``explain(A, B, M, machine)`` renders where each algorithm's modeled time
goes (the per-component breakdown of :class:`RowCostModel`), which is the
diagnostic a user reaches for when the model's recommendation is
surprising: it shows *why* MSA's accumulator term explodes on a large
matrix, or why Inner's column fetches dominate on a dense mask.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..sparse import CSR
from .config import HASWELL, MachineConfig
from .cost_model import MODEL_ALGOS, MODEL_NO_COMPLEMENT, RowCostModel

__all__ = ["explain", "breakdown_table"]


def breakdown_table(
    a: CSR,
    b: CSR,
    mask: CSR,
    machine: MachineConfig = HASWELL,
    *,
    algos: Optional[Sequence[str]] = None,
    complement: bool = False,
    phases: int = 1,
) -> Dict[str, Dict[str, float]]:
    """``{algo: {component: cycles}}`` for the given problem."""
    model = RowCostModel(a, b, mask, machine, complement=complement)
    out: Dict[str, Dict[str, float]] = {}
    for algo in algos or MODEL_ALGOS:
        if complement and algo in MODEL_NO_COMPLEMENT:
            continue
        est = model.estimate(algo, phases=phases)
        row = dict(est.breakdown)
        row["TOTAL"] = est.total_cycles
        out[algo] = row
    return out


def explain(
    a: CSR,
    b: CSR,
    mask: CSR,
    machine: MachineConfig = HASWELL,
    *,
    algos: Optional[Sequence[str]] = None,
    complement: bool = False,
    phases: int = 1,
    top: int = 4,
) -> str:
    """Human-readable cost attribution, cheapest algorithm first."""
    table = breakdown_table(
        a, b, mask, machine, algos=algos, complement=complement, phases=phases
    )
    lines = [
        f"Modeled cost attribution on {machine.name} "
        f"(A {a.shape} nnz={a.nnz}, B {b.shape} nnz={b.nnz}, "
        f"mask nnz={mask.nnz}{', complement' if complement else ''}):"
    ]
    for algo in sorted(table, key=lambda k: table[k]["TOTAL"]):
        row = table[algo]
        total = row.pop("TOTAL")
        parts = sorted(row.items(), key=lambda kv: -kv[1])[:top]
        detail = ", ".join(
            f"{name} {100 * v / total:.0f}%" for name, v in parts if v > 0
        )
        lines.append(f"  {algo:10s} {total:12.4g} cycles  ({detail})")
    return "\n".join(lines)
