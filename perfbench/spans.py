"""Outside-in layer spans for the benchmark's traced run.

The program itself carries no timing hooks at the function level, so the
traced run wraps each layer's public entry point *at the name its caller
looks it up by* — a class attribute for methods (``ServingEngine.step``,
``PagedKVCache.append_token``, ``MXPlusFormat.encode``, ...) and the
importing module's global for free functions (``repro.serve.engine``
calls ``step_time`` through its own module namespace, so that is the
binding replaced). Every original is restored when the ``Spans`` context
exits, even if the run raises.

Each wrapped call records one span ``(name, start, end, parent)`` in
memory; the recorder writes them out with the run id when the run ends.
A span's *self time* is its duration minus the time covered by its
direct child spans, so the self times of all spans plus the root span's
own self time partition the traced wall time exactly.
"""

from __future__ import annotations

import functools
import importlib
import time
from pathlib import Path

import numpy as np

#: Layer span name -> list of (owner, attribute) bindings to wrap. An
#: owner is ``"module:attr.path"``; classes contribute only attributes
#: defined on the class itself (subclass overrides are listed
#: separately so each override is wrapped exactly once).
LAYER_BINDINGS: dict[str, list[tuple[str, str]]] = {
    "serve.cluster.run": [("repro.serve.cluster:ServingCluster", "run")],
    "serve.cluster.route": [
        ("repro.serve.cluster:RoundRobinRouter", "route"),
        ("repro.serve.cluster:LeastKVLoadRouter", "route"),
        ("repro.serve.cluster:PrefixAffinityRouter", "route"),
        ("repro.serve.cluster:QueueDepthRouter", "route"),
        ("repro.serve.cluster:FreeKVAtArrivalRouter", "route"),
    ],
    "serve.engine.step": [("repro.serve.engine:ServingEngine", "step")],
    "serve.engine.submit": [("repro.serve.engine:ServingEngine", "submit")],
    "serve.engine.kv_handoff": [
        ("repro.serve.engine:ServingEngine", "export_kv"),
        ("repro.serve.engine:ServingEngine", "import_kv"),
    ],
    "serve.sched.plan": [
        ("repro.serve.sched:PrefillFirstScheduler", "plan"),
        ("repro.serve.sched:ChunkedPrefillScheduler", "plan"),
        ("repro.serve.sched:DecodePriorityScheduler", "plan"),
    ],
    "gpu.inference.step_time": [("repro.serve.engine", "step_time")],
    "serve.kvcache.append_token": [("repro.serve.kvcache:PagedKVCache", "append_token")],
    "serve.kvcache.try_allocate": [("repro.serve.kvcache:PagedKVCache", "try_allocate")],
    "obs.tracer.emit": [("repro.obs.trace:Tracer", "emit")],
    "obs.export.chrome_trace": [("repro.obs", "chrome_trace")],
    "core.encode": [
        ("repro.core.mx:MXFormat", "encode"),
        ("repro.core.mxplus:MXPlusFormat", "encode"),
    ],
    "core.decode": [
        ("repro.core.mx:MXFormat", "decode"),
        ("repro.core.mxplus:MXPlusFormat", "decode"),
    ],
    "nn.quantize.act": [("repro.nn.quantize:QuantContext", "quantize_act")],
    "nn.quantize.weight": [
        ("repro.nn.quantize:QuantContext", "quantize_weight"),
        ("repro.nn.quantize:QuantContext", "quantize_head_weight"),
    ],
    "nn.quantize.kv": [("repro.nn.quantize:QuantContext", "quantize_kv")],
    "nn.transformer.forward": [("repro.nn.transformer:TransformerLM", "__call__")],
}

#: Root span around the benchmark's own driving code in a traced pass.
ROOT = "bench.driver"


def _size(x) -> int:
    return int(np.size(getattr(x, "data", x)))


def _step_rows(_args, event) -> int:
    return 0 if event is None else event.n_prefill_rows + event.n_decode_rows


#: Work counters recorded at the same boundaries as the spans:
#: span name -> (counter name, fn(args, result) -> amount).
COUNTERS = {
    "core.encode": ("core.encode.elems", lambda args, _r: _size(args[1])),
    "nn.quantize.weight": ("nn.quantize.weight.elems", lambda args, _r: _size(args[1])),
    "nn.transformer.forward": ("nn.transformer.forward.rows", lambda args, _r: _size(args[1])),
    "serve.engine.step": ("serve.engine.step.rows", _step_rows),
}


def _resolve(owner: str):
    module_name, _, path = owner.partition(":")
    obj = importlib.import_module(module_name)
    for part in filter(None, path.split(".")):
        obj = getattr(obj, part)
    return obj


class Spans:
    """Span recorder that installs the layer wrappers while active.

    >>> with Spans("run-0") as spans:   # doctest: +SKIP
    ...     spans.run_root(lambda: cluster.run(requests))
    >>> spans.layer_stats()["serve.engine.step"]["calls"]   # doctest: +SKIP
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn):
        nid = self._nid(name)
        counter = COUNTERS.get(name)
        stack, starts, ends = self._stack, self.start, self.end
        name_ids, parents, counters = self.name_id, self.parent, self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(starts)
            parents.append(stack[-1] if stack else -1)
            name_ids.append(nid)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if counter is not None:
                key, amount = counter
                counters[key] = counters.get(key, 0) + amount(args, result)
            return result

        return wrapper

    def run_root(self, body):
        """Call ``body()`` inside the :data:`ROOT` span; returns its result."""
        return self._wrap(ROOT, body)()

    def __enter__(self) -> "Spans":
        try:
            for name, bindings in LAYER_BINDINGS.items():
                for owner_name, attr in bindings:
                    owner = _resolve(owner_name)
                    if isinstance(owner, type):
                        original = owner.__dict__[attr]
                    else:
                        original = getattr(owner, attr)
                    self._restore.append((owner, attr, original))
                    setattr(owner, attr, self._wrap(name, original))
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> bool:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
        return False

    # -- reporting -----------------------------------------------------
    def _arrays(self):
        nid = np.asarray(self.name_id, dtype=np.int64)
        start = np.asarray(self.start, dtype=float)
        end = np.asarray(self.end, dtype=float)
        parent = np.asarray(self.parent, dtype=np.int64)
        return nid, start, end, parent

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """Per span name: outermost ``calls``, inclusive ``total_s`` (outermost
        spans only, so recursion is not double counted) and ``self_s``."""
        nid, start, end, parent = self._arrays()
        dur = end - start
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_s = dur - child
        # A span nested directly in a span of the same name (a wrapped
        # override calling its wrapped super()) is one logical call.
        outer = np.ones(len(dur), dtype=bool)
        outer[has_parent] = nid[parent[has_parent]] != nid[has_parent]
        n = len(self.names)
        calls = np.bincount(nid[outer], minlength=n)
        total = np.bincount(nid[outer], weights=dur[outer], minlength=n)
        selfs = np.bincount(nid, weights=self_s, minlength=n)
        return {
            name: {
                "calls": int(calls[i]),
                "total_s": float(total[i]),
                "self_s": float(selfs[i]),
            }
            for i, name in enumerate(self.names)
        }

    def write(self, path: Path) -> None:
        """Write every recorded span (and the run id) as a compressed npz."""
        nid, start, end, parent = self._arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            run_id=np.asarray(self.run_id),
            names=np.asarray(self.names),
            name_id=nid,
            start=start,
            end=end,
            parent=parent,
        )
