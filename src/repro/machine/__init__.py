"""Machine model: operation counters, cache simulator, analytic traffic
formulas (paper Section 4), per-row cost model, and a parallel-schedule
simulator used for the scaling experiments.

See DESIGN.md ("Substitutions") for why the reproduction pairs real
wall-clock kernels with this model instead of relying on CPython wall-clock
alone.
"""

from .cache import AccessTrace, CacheSim
from .calibrate import (
    calibrate_machine,
    calibrate_process_crossover,
    measure_backend_overhead,
    measure_touch_costs,
)
from .config import HASWELL, KNL, MACHINES, MachineConfig, host_cpus
from .cost_model import (
    MODEL_ALGOS,
    MODEL_NO_COMPLEMENT,
    DirectionEstimate,
    ModelEstimate,
    RowCostModel,
    estimate_row_cycles,
    estimate_seconds,
    estimate_spmv_direction,
)
from .counters import OpCounter
from .fit import (
    FITTED_PARAMS,
    FIT_SCHEMA_VERSION,
    MACHINE_ENV,
    FitResult,
    default_machine,
    evaluate_config,
    fit_machine,
    host_profile,
    load_fitted,
    load_fitted_payload,
    resolve_machine,
    samples_from_history,
    samples_from_predictions,
    save_fitted,
)
from .kernel_traces import TRACEABLE_ALGOS, build_trace, replay_miss_rate
from .report import breakdown_table, explain
from .scheduler import SCHEDULES, simulate_makespan, speedup_curve
from .traffic import (
    TrafficBreakdown,
    flops_per_row,
    pull_traffic_words,
    push_common_traffic_words,
    total_flops,
    useful_flops_per_row,
)

__all__ = [
    "AccessTrace",
    "CacheSim",
    "calibrate_machine",
    "calibrate_process_crossover",
    "measure_backend_overhead",
    "measure_touch_costs",
    "HASWELL",
    "KNL",
    "MACHINES",
    "MachineConfig",
    "host_cpus",
    "MODEL_ALGOS",
    "MODEL_NO_COMPLEMENT",
    "ModelEstimate",
    "DirectionEstimate",
    "RowCostModel",
    "estimate_row_cycles",
    "estimate_seconds",
    "estimate_spmv_direction",
    "OpCounter",
    "FIT_SCHEMA_VERSION",
    "FITTED_PARAMS",
    "MACHINE_ENV",
    "FitResult",
    "default_machine",
    "host_profile",
    "fit_machine",
    "evaluate_config",
    "samples_from_history",
    "samples_from_predictions",
    "save_fitted",
    "load_fitted",
    "load_fitted_payload",
    "resolve_machine",
    "TRACEABLE_ALGOS",
    "build_trace",
    "replay_miss_rate",
    "breakdown_table",
    "explain",
    "SCHEDULES",
    "simulate_makespan",
    "speedup_curve",
    "TrafficBreakdown",
    "flops_per_row",
    "pull_traffic_words",
    "push_common_traffic_words",
    "total_flops",
    "useful_flops_per_row",
]
