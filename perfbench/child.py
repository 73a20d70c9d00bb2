"""One fresh interpreter of a benchmark run: set up, then a closed loop.

Reads a pickled job from stdin (written by ``run.py``), imports ``repro``
(timed), runs the warm-up op (timed: pool spawn and lazy caches), then
sends one op at a time and times the reference kernel after each.  With
``trace`` the second half of the loop runs under :class:`LayerTracer`.
Prints one JSON line with every per-op record.
"""

from __future__ import annotations

import importlib
import json
import os
import pickle
import resource
import sys
import time

from refkernel import ReferenceKernel, normalise
import workloads

COUNTS = (
    "flops", "output_nnz", "plan_cache_hits", "segments_reused",
    "bytes_republished", "rows_recomputed", "rows_patched", "delta_fallbacks",
)
_TICK = os.sysconf("SC_CLK_TCK")


def proc_cpu(pid: int) -> float:
    """utime + stime of ``pid`` in seconds, 0 once it has gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except FileNotFoundError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _TICK


def proc_hwm_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except FileNotFoundError:
        pass
    return 0


def closed_loop(op, check, digest, seconds, ref, pids, tracer=None):
    """Send ops one after another until ``seconds`` have passed.

    ``op(counter)`` returns the result; ``check(result)`` compares it with
    the oracle; ``pids()`` lists the pool workers whose CPU counts.  A
    raised exception counts as a failed op.  Returns one record per op.
    """
    from repro.machine import OpCounter

    records = []
    deadline = time.perf_counter() + seconds
    while not records or time.perf_counter() < deadline:
        counter = OpCounter()
        before = {p: proc_cpu(p) for p in pids()}
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            result = tracer.op(op, counter) if tracer else op(counter)
            raised = None
        except Exception as exc:  # an op failure is data, not a crash
            result, raised = None, f"{type(exc).__name__}: {exc}"
        raw = time.perf_counter() - t0
        cpu = time.process_time() - c0
        wcpu = sum(proc_cpu(p) - before.get(p, 0.0) for p in pids())
        ref_s = ref.time()
        rec = {
            "raw": raw, "ref": ref_s, "cpu": cpu, "wcpu": wcpu,
            "ok": raised is None and check(result),
            "digest": None if raised else digest(result),
            "counts": {k: getattr(counter, k) for k in COUNTS},
        }
        if raised:
            rec["error"] = raised
        records.append(rec)
    return records


def main() -> int:
    job = pickle.load(sys.stdin.buffer)
    name, inputs, expected = job["workload"], job["inputs"], job["expected"]
    ref = ReferenceKernel()

    t0 = time.perf_counter()
    importlib.import_module("repro")
    importlib.import_module("repro.apps")
    pool = importlib.import_module("repro.parallel.pool")
    import_s = time.perf_counter() - t0

    graph = workloads.build_graph(inputs)
    app_op = workloads.make_op(name, inputs)

    def op(counter):
        return app_op(graph, counter)

    def check(result):
        return workloads.check(name, result, expected)

    def digest(result):
        return workloads.digest(name, result)

    warm = closed_loop(op, check, digest, 0.0, ref, pool.pool_pids)
    setup_raw = import_s + warm[0]["raw"]
    out = {
        "setup_raw": setup_raw,
        "setup_s": normalise(setup_raw, warm[0]["ref"]),
        "warmup": warm,
    }
    seconds = job["seconds"]
    if job["trace"]:
        from layers import LayerTracer, split

        out["ops"] = closed_loop(op, check, digest, seconds / 2, ref, pool.pool_pids)
        with LayerTracer() as tracer:
            out["traced"] = closed_loop(
                op, check, digest, seconds / 2, ref, pool.pool_pids, tracer
            )
        out["split"] = split(tracer.spans)
        tracer.dump(job["trace_path"])
    else:
        out["ops"] = closed_loop(op, check, digest, seconds, ref, pool.pool_pids)
    pids = pool.pool_pids()
    out["workers"] = pool.pool_size()
    out["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + sum(
        proc_hwm_kib(p) for p in pids
    )
    pool.shutdown_pool()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
