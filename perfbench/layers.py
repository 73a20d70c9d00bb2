"""Traced-run wrappers: spans around public functions of each layer.

Nothing inside ``src/`` is changed.  :class:`LayerTracer` swaps each
target attribute for a wrapper that records a span, and puts the original
object back on exit.  Two traps decide where the wrappers go:

* ``repro.core.masked_spgemm`` and ``repro.apps.ktruss`` are modules that
  their packages' ``__init__`` shadow with same-named functions, so the
  modules are reached through ``importlib.import_module`` (which returns
  the ``sys.modules`` entry), never by attribute access on the package.
* a name bound by ``from ... import`` at import time is a separate
  reference, so it is wrapped where it was bound: each app module's
  ``masked_spgemm``, ``repro.engine.executor.masked_spgemm`` and
  ``repro.engine.delta.execute``.

A span is ``(id, parent, op, name, site, start, end, workers)``, where
``site`` is the wrapped attribute and ``workers`` the thread count of a
returned plan; spans live in
memory until :meth:`LayerTracer.dump`.  Only the coordinator's main thread
records, so pool workers forked while wrappers are installed stay silent.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time

# (layer name, module, attribute path) — attribute paths with a dot name a
# method on a class in that module
TARGETS = (
    ("core.masked_spgemm", "repro.apps.triangle_counting", "masked_spgemm"),
    ("core.masked_spgemm", "repro.apps.ktruss", "masked_spgemm"),
    ("core.masked_spgemm", "repro.apps.betweenness", "masked_spgemm"),
    ("engine.plan", "repro.engine.planner", "Planner.plan"),
    ("engine.plan", "repro.engine.session", "ExecutionSession.plan"),
    ("engine.execute", "repro.engine.executor", "execute"),
    ("engine.execute", "repro.engine.delta", "execute"),
    ("engine.delta", "repro.engine.delta", "delta_execute"),
    ("core.kernel", "repro.engine.executor", "masked_spgemm"),
    ("core.kernel", "repro.parallel.executor", "masked_spgemm"),
    ("parallel.run_tasks", "repro.parallel.pool", "run_tasks"),
    ("sparse.from_coo", "repro.sparse.csr", "CSR.from_coo"),
)

#: every layer a span can belong to; "apps" is the op's root span, so its
#: self time is the app code no other wrapper covers
LAYERS = ("apps",) + tuple(dict.fromkeys(t[0] for t in TARGETS))


def _owner(module: str, path: str):
    obj = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        obj = getattr(obj, part)
    return obj, attr


class LayerTracer:
    """Install span wrappers on enter, restore the originals on exit."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list = []
        self._op = 0
        self._saved: list = []
        self._pid = os.getpid()
        self._thread = threading.get_ident()

    # -- recording -----------------------------------------------------
    def _recording(self) -> bool:
        return os.getpid() == self._pid and threading.get_ident() == self._thread

    def _call(self, name, site, fn, args, kwargs):
        if not self._recording():
            return fn(*args, **kwargs)
        sid = len(self.spans) + 1
        parent = self._stack[-1] if self._stack else 0
        span = [sid, parent, self._op, name, site, time.perf_counter(), 0.0, 0]
        self.spans.append(span)
        self._stack.append(sid)
        try:
            out = fn(*args, **kwargs)
        finally:
            span[6] = time.perf_counter()
            self._stack.pop()
        if name == "engine.plan":
            span[7] = int(getattr(out, "threads", 0))
        return out

    def op(self, fn, *args, **kwargs):
        """Run one op under a root ``apps`` span with a fresh op id."""
        self._op += 1
        return self._call("apps", "op", fn, args, kwargs)

    # -- install / restore ---------------------------------------------
    def _wrap(self, name, site, orig):
        if isinstance(orig, classmethod):
            func = orig.__func__

            @functools.wraps(func)
            def cm(cls, *args, **kwargs):
                return self._call(name, site, func, (cls,) + args, kwargs)

            return classmethod(cm)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            return self._call(name, site, orig, args, kwargs)

        return wrapper

    def __enter__(self) -> "LayerTracer":
        for name, module, path in TARGETS:
            try:
                owner, attr = _owner(module, path)
                orig = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                # a refactor moved this function: its layer reads 0 and
                # its time falls to the enclosing span, but the run goes on
                print(f"layers: no {module}:{path} to wrap", file=sys.stderr)
                continue
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(name, path, orig))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def dump(self, path: str) -> None:
        keys = ("id", "parent", "op", "name", "site", "start", "end", "workers")
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


def split(spans: list) -> list:
    """Per-op layer split, one dict per op in op order.

    A span's self time is its duration minus its children's durations
    (spans of one thread nest, so children never overlap); a layer's share
    is its spans' self time over the op's root span, so the shares of an
    op sum to 1.  ``calls`` counts a layer's spans, except that a
    ``Planner.plan`` nested in a session's plan (a cache miss) is not a
    second planning call; ``session_plans`` counts session plan calls.
    """
    by_id = {s[0]: s for s in spans}
    child_time: dict = {}
    for s in spans:
        if s[1]:
            child_time[s[1]] = child_time.get(s[1], 0.0) + (s[6] - s[5])
    ops: dict = {}
    for s in spans:
        sid, parent, op, name, site, start, end, workers = s
        rec = ops.setdefault(op, {
            "wall": 0.0,
            "share": dict.fromkeys(LAYERS, 0.0),
            "calls": dict.fromkeys(LAYERS, 0),
            "session_plans": 0,
            "plan_workers": 0,
        })
        rec["share"][name] += (end - start) - child_time.get(sid, 0.0)
        if name == "apps":
            rec["wall"] = end - start
        if not (name == "engine.plan" and parent and by_id[parent][3] == name):
            rec["calls"][name] += 1
        rec["session_plans"] += site == "ExecutionSession.plan"
        rec["plan_workers"] = max(rec["plan_workers"], workers)
    for rec in ops.values():
        rec["share"] = {k: v / rec["wall"] for k, v in rec["share"].items()}
    return list(ops.values())
