"""End-to-end benchmark of the paper's three apps, host-normalised.

    python3 perfbench/run.py --workload tc-rmat12 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --steadiness 10 --workload all --seconds 30

Run from the repository root.  A run builds the workload's graph and its
oracle here (no ``repro`` import), then starts ``CHILDREN`` fresh
interpreters one after another.  Each imports ``repro``, runs a warm-up op
and then a single-client closed loop: the next op is sent only after the
previous one returned, and the reference kernel (``refkernel.py``) is
timed after every op.  Every op is checked against the oracle.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs half of each loop untraced and half under the layer
wrappers of ``layers.py`` and prints the per-layer metrics.  The last
stdout line is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--steadiness N`` runs N seeds per workload and fails
if any end-to-end metric's quartile spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from refkernel import normalise  # noqa: E402
import workloads  # noqa: E402

#: fresh interpreters per run: each gives one set-up sample and a fifth
#: of the loop, so no single process's layout decides the medians
CHILDREN = 5
#: a run must end well inside the 180 s the contract allows
RUN_DEADLINE_S = 170.0
#: the tail is the highest percentile with at least this many ops beyond it
TAIL_BEYOND = 10


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _mean(xs):
    return sum(xs) / len(xs) if xs else 0.0


def tail(values):
    """``(value, percentile, ops beyond)``: the highest percentile with at
    least ``TAIL_BEYOND`` ops above it (the maximum when there are too few
    ops for that)."""
    xs = sorted(values)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, 0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def _child(root, job, deadline):
    """Run ``child.py`` on ``job`` in its own process group; return its
    JSON result.  On timeout the whole group (pool workers included) is
    killed and waited for."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=root, env=env,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(
            pickle.dumps(job), timeout=max(1.0, deadline - time.monotonic())
        )
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{job['workload']}: child {job['index']} timed out")
    finally:
        try:  # reap anything the child left behind in its group
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise RuntimeError(
            f"{job['workload']}: child {job['index']} exited {proc.returncode}"
        )
    return json.loads(out.decode().strip().splitlines()[-1])


def measure(workload, seed, seconds, trace, *, root=".", scale=None):
    """One benchmark run: inputs, oracle, ``CHILDREN`` children, summary."""
    root = os.path.abspath(root)
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        raise FileNotFoundError(f"no repro package under {root}/src")
    start = time.monotonic()
    t0 = time.perf_counter()
    inputs = workloads.make_inputs(workload, seed, scale)
    gen_s = time.perf_counter() - t0
    expected = workloads.oracle(workload, inputs)
    children = []
    for i in range(CHILDREN):
        job = {
            "workload": workload, "index": i, "inputs": inputs,
            "expected": expected, "seconds": seconds / CHILDREN,
            "trace": bool(trace),
            "trace_path": os.path.join(
                root, ".perfbench", f"spans-{workload}-s{seed}-c{i}.json"
            ),
        }
        children.append(_child(root, job, start + RUN_DEADLINE_S))
    return summarise(children, trace, gen_s)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def summarise(children, trace, gen_s=0.0):
    """Fold the children's per-op records into the benchmark's result."""
    ops = [r for c in children for r in c["ops"]]
    traced = [r for c in children for r in c.get("traced", [])]
    every = [r for c in children for r in c["warmup"]] + ops + traced
    attempted = len(every)
    ok = sum(r["ok"] for r in every)
    timed = [r for r in ops if r["ok"]] or ops
    norm = [normalise(r["raw"], r["ref"]) for r in timed]
    t_val, t_pct, t_beyond = tail(norm)
    cpu = [normalise(r["cpu"] + r["wcpu"], r["ref"]) for r in timed]
    digests = {r["digest"] for r in ops}
    bit_identical = not traced or {r["digest"] for r in traced} == digests
    notes = []
    if not bit_identical:
        notes.append("traced outputs differ from untraced outputs")
    if not trace:
        notes += [
            f"call_s.tail is p{t_pct:.1f} of {len(norm)} ops ({t_beyond} beyond it)",
            "peak_rss_mb is an upper bound: pages shared copy-on-write by "
            "forked pool workers count once per process",
            f"host.call_s_raw.p50 = {_median([r['raw'] for r in timed]):.6f} s",
            f"host.cpu_s_raw.per_call = "
            f"{_median([r['cpu'] + r['wcpu'] for r in timed]):.6f} s",
            f"host.ref_s = {_median([r['ref'] for r in timed]):.6f} s",
        ]
        metrics = {
            "call_s.p50": _metric(_median(norm), "s"),
            "call_s.tail": _metric(t_val, "s"),
            "cpu_s.per_call": _metric(_median(cpu), "s"),
            "peak_rss_mb": _metric(
                _median([c["peak_rss_kib"] for c in children]) / 1024, "MiB"
            ),
            "setup_s": _metric(_median([c["setup_s"] for c in children]), "s"),
            "ok_frac": _metric(ok / attempted, "ratio"),
        }
    else:
        metrics = layer_metrics(children, timed, traced, gen_s)
    return {
        "correct": ok == attempted and bit_identical,
        "attempted": attempted,
        "failed": attempted - ok,
        "metrics": metrics,
        "notes": notes,
        "splits": [s for c in children for s in c.get("split", [])],
    }


def layer_metrics(children, ops, traced, gen_s):
    """Per-layer metrics: shares from the traced ops, exact counts from
    the OpCounters, context from the untraced ops."""
    splits = [s for c in children for s in c["split"]]
    if not splits:
        raise RuntimeError("the traced run recorded no ops")

    def share(layer):
        return _metric(_mean([s["share"][layer] for s in splits]), "ratio")

    def calls(layer):
        return _metric(_mean([s["calls"][layer] for s in splits]), "count")

    def count(field):
        return _mean([r["counts"][field] for r in ops])

    session_plans = _mean([s["session_plans"] for s in splits])
    delta_calls = _mean([s["calls"]["engine.delta"] for s in splits])
    cpu_total = sum(r["cpu"] + r["wcpu"] for r in ops)
    untraced_p50 = _median([normalise(r["raw"], r["ref"]) for r in ops])
    traced_p50 = _median([normalise(r["raw"], r["ref"]) for r in traced])
    return {
        "parallel.run_tasks.share": share("parallel.run_tasks"),
        "parallel.run_tasks.calls": calls("parallel.run_tasks"),
        "engine.plan.max_workers": _metric(
            max([s["plan_workers"] for s in splits], default=0), "count"
        ),
        "parallel.workers": _metric(max(c["workers"] for c in children), "count"),
        "parallel.worker_cpu_frac": _metric(
            sum(r["wcpu"] for r in ops) / cpu_total if cpu_total else 0.0, "ratio"
        ),
        "engine.plan.share": share("engine.plan"),
        "engine.plan.calls": calls("engine.plan"),
        "engine.plan.cache_hit_frac": _metric(
            count("plan_cache_hits") / session_plans if session_plans else 0.0,
            "ratio",
        ),
        "core.kernel.share": share("core.kernel"),
        "core.kernel.calls": calls("core.kernel"),
        "core.masked_spgemm.share": share("core.masked_spgemm"),
        "core.masked_spgemm.calls": calls("core.masked_spgemm"),
        "engine.delta.share": share("engine.delta"),
        "engine.delta.rows_patched": _metric(count("rows_patched"), "count"),
        "engine.delta.rows_recomputed": _metric(count("rows_recomputed"), "count"),
        "engine.delta.fallback_frac": _metric(
            count("delta_fallbacks") / delta_calls if delta_calls else 0.0, "ratio"
        ),
        "parallel.segments_reused": _metric(count("segments_reused"), "count"),
        "parallel.bytes_republished": _metric(count("bytes_republished"), "B"),
        "sparse.from_coo.share": share("sparse.from_coo"),
        "sparse.from_coo.calls": calls("sparse.from_coo"),
        "engine.execute.share": share("engine.execute"),
        "apps.share": share("apps"),
        "core.flops": _metric(count("flops"), "count"),
        "core.output_nnz": _metric(count("output_nnz"), "count"),
        "host.ref_s": _metric(_median([r["ref"] for r in ops]), "s"),
        "host.call_s_raw.p50": _metric(_median([r["raw"] for r in ops]), "s"),
        "graphs.gen_s": _metric(gen_s, "s"),
        "observe.trace_overhead": _metric(
            traced_p50 / untraced_p50 if untraced_p50 else 0.0, "ratio"
        ),
    }


def print_result(res):
    for name, m in res["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for note in res["notes"]:
        print(note)
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))


def load_benchmark(root="."):
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return json.load(fh)


def steadiness(names, runs, base_seed, seconds):
    """Run each workload ``runs`` times on consecutive seeds, print each
    end-to-end metric's median and quartile spread beside its bound, and
    return 1 if any run was incorrect or any spread other than
    ``setup_s``'s exceeds its bound."""
    bounds = {m["name"]: m["bound"] for m in load_benchmark()["end_to_end"]}
    worst = 0
    for name in names:
        values = {m: [] for m in bounds}
        for k in range(runs):
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                 "--seed", str(base_seed + k), "--seconds", str(seconds),
                 "--trace", "0"],
                stdout=subprocess.PIPE, check=True,
            )
            res = json.loads(out.stdout.decode().strip().splitlines()[-1])
            if not res["correct"]:
                print(f"{name} seed {base_seed + k}: incorrect output")
                worst = 1
            for m in bounds:
                values[m].append(res["metrics"][m]["value"])
        print(f"== {name}: {runs} runs, seeds {base_seed}..{base_seed + runs - 1}")
        for m, bound in bounds.items():
            med = statistics.median(values[m])
            q1, _, q3 = statistics.quantiles(values[m], n=4)
            spread = (q3 - q1) / med if med else 0.0
            verdict = "ok" if spread <= bound else "OVER"
            if m != "setup_s" and spread > bound:
                worst = 1
            print(f"{m:16s} median {med:.6g}  spread {spread:.4f}  "
                  f"bound {bound}  ({spread / bound:.2f} of bound) {verdict}  "
                  f"runs {' '.join(f'{v:.4g}' for v in values[m])}")
    return worst


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steadiness", type=int, metavar="N", default=0,
                    help="run N seeds per workload and check spreads")
    args = ap.parse_args(argv)
    if args.steadiness:
        names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
        return steadiness(names, args.steadiness, args.seed, args.seconds)
    if args.workload == "all":
        ap.error("--workload all needs --steadiness")
    try:
        res = measure(args.workload, args.seed, args.seconds, args.trace)
    except (FileNotFoundError, RuntimeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print_result(res)
    return 0


if __name__ == "__main__":
    sys.exit(main())
