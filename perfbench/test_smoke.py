"""Smoke tests of the benchmark itself, at R-MAT scale 6-7.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import child  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from refkernel import ReferenceKernel  # noqa: E402

SMOKE_SCALE = {"tc-rmat12": 7, "ktruss-rmat10": 6, "bc-rmat11": 7}
SECONDS = 1.5


@pytest.fixture(scope="module")
def results():
    """One untraced and one traced run of every workload."""
    return {
        (name, trace): run.measure(
            name, 1, SECONDS, trace, root=ROOT, scale=SMOKE_SCALE[name]
        )
        for name in workloads.WORKLOADS
        for trace in (0, 1)
    }


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit(results, trace, capsys):
    spec = run.load_benchmark(ROOT)
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
    for name in workloads.WORKLOADS:
        res = results[name, trace]
        run.print_result(res)
        lines = capsys.readouterr().out.strip().splitlines()
        last = json.loads(lines[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True and last["failed"] == 0
        assert {k: v["unit"] for k, v in last["metrics"].items()} == wanted
        for metric, unit in wanted.items():
            assert any(
                ln.startswith(f"{metric} = ") and ln.endswith(f" {unit}") for ln in lines
            ), metric
        if not trace:
            assert all(last["metrics"][m]["value"] > 0 for m in wanted)


def test_layer_shares_sum_to_one(results):
    for name in workloads.WORKLOADS:
        splits = results[name, 1]["splits"]
        assert splits
        for op in splits:
            assert op["share"]["apps"] >= 0
            assert sum(op["share"].values()) == pytest.approx(1.0, abs=1e-9)


def test_other_seed_changes_graph_not_metric_names(results):
    name = "ktruss-rmat10"
    scale = SMOKE_SCALE[name]
    g1 = workloads.make_inputs(name, 1, scale)
    g2 = workloads.make_inputs(name, 2, scale)
    assert g1["indptr"][-1] == g2["indptr"][-1]
    assert not (
        np.array_equal(g1["indptr"], g2["indptr"])
        and np.array_equal(g1["indices"], g2["indices"])
    )
    other = run.measure(name, 2, SECONDS, 0, root=ROOT, scale=scale)
    assert other["correct"]
    assert set(other["metrics"]) == set(results[name, 0]["metrics"])


def test_injected_failing_op_lowers_ok_frac():
    name = "tc-rmat12"
    inputs = workloads.make_inputs(name, 1, 6)
    expected = workloads.oracle(name, inputs)
    graph = workloads.build_graph(inputs)
    app_op = workloads.make_op(name, inputs)
    calls = []

    def op(counter):
        calls.append(1)
        if len(calls) == 2:
            raise RuntimeError("injected")
        res = app_op(graph, counter)
        if len(calls) == 3:
            res.triangles += 1
        return res

    ref = ReferenceKernel()
    recs = []
    while len(recs) < 5:  # seconds=0: exactly one op per loop
        recs += child.closed_loop(
            op,
            lambda r: workloads.check(name, r, expected),
            lambda r: workloads.digest(name, r),
            0.0, ref, lambda: (),
        )
    assert recs[1]["error"] == "RuntimeError: injected" and not recs[1]["ok"]
    assert not recs[2]["ok"]
    kid = {"warmup": recs[:1], "ops": recs[1:], "setup_s": 1.0, "peak_rss_kib": 1}
    res = run.summarise([kid], 0)
    assert res["metrics"]["ok_frac"]["value"] == pytest.approx(3 / 5)
    assert res["failed"] == 2 and res["correct"] is False


def test_wrappers_restored_and_outputs_unchanged():
    name = "ktruss-rmat10"
    inputs = workloads.make_inputs(name, 3, 6)
    graph = workloads.build_graph(inputs)
    op = workloads.make_op(name, inputs)
    owners = [layers._owner(m, p) for _, m, p in layers.TARGETS]
    before = [owner.__dict__[attr] for owner, attr in owners]
    from repro.machine import OpCounter

    plain = op(graph, OpCounter())
    with layers.LayerTracer() as tracer:
        traced = tracer.op(op, graph, OpCounter())
    assert [owner.__dict__[attr] for owner, attr in owners] == before
    assert workloads.digest(name, plain) == workloads.digest(name, traced)
    names = {s[3] for s in tracer.spans}
    assert {"apps", "core.masked_spgemm", "engine.plan", "sparse.from_coo"} <= names


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bc-rmat11",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
