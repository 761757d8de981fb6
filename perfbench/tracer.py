"""Spans around the library's public functions, installed from outside it.

``Tracer.install`` replaces each function in ``LAYERS`` by a wrapper that
records one span (name, start, end, parent) in flat in-memory arrays.  A
name bound by ``from .x import f`` is a separate reference in every module
that imports it, so the wrapper is put into every ``ordkit`` module
namespace holding the original, and into module-level dict tables whose
tuple values hold it (``cli._OPS``).  Atom constructors are never wrapped:
they run millions of times per sweep.

Self time of a span is its duration minus the durations of its direct
children.  ``summary`` derives per-layer self times and call counts;
``write`` stores the raw spans for later inspection.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

# layer metric prefix -> (module, attribute) or (module, class, method)
LAYERS = {
    "atoms.parse": [
        ("ordkit.systems", "system_from_json"),
        ("ordkit.orders", "qo_from_json"),
        ("ordkit.traces", "trace_from_json"),
        ("ordkit.lang", "fragment_from_json"),
    ],
    "atoms.emit": [
        ("ordkit.systems", "SetSystem", "to_json"),
        ("ordkit.orders", "QuasiOrder", "to_json"),
        ("ordkit.traces", "Trace", "to_json"),
        ("ordkit.lang", "LanguageFragment", "to_json"),
    ],
    "systems.ops": [
        ("ordkit.systems", name)
        for name in ("ew_union", "ew_intersect", "ew_product", "ew_disjoint",
                     "tagged_union", "bang", "perp")
    ],
    "systems.masks": [("ordkit.systems", "SetSystem", "masks")],
    "production.dim": [("ordkit.production", "dim")],
    "production.witness": [("ordkit.production", "longest_production_sequence")],
    **{
        f"kernels.{name}": [("ordkit.kernels", name)]
        for name in ("production_rank", "production_state_rank",
                     "bad_sequence_rank", "ramsey_search")
    },
    **{
        f"orders.{name}": [("ordkit.orders", name)]
        for name in ("otp", "ss", "qo_of", "intersect_qo", "is_coatomic_lattice")
    },
    "ramsey.check_union_bound": [("ordkit.ramsey", "check_union_bound")],
    "ramsey.check_wqo_intersection_bound": [
        ("ordkit.ramsey", "check_wqo_intersection_bound")
    ],
    "traces.direct_image": [("ordkit.traces", "direct_image")],
    "traces.compose": [("ordkit.traces", "compose")],
    "lang.closure_bounded": [("ordkit.lang", "closure_bounded")],
    "lang.shuffle_product": [("ordkit.lang", "shuffle_product")],
    "cli": [("ordkit.cli", "main")],
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [-1]
        self._undo: list = []

    def wrap(self, name: str, fn):
        """``fn`` recording one span named ``name`` per call."""
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        ids, parents, starts, ends, stack = (
            self.ids, self.parents, self.starts, self.ends, self.stack
        )
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(ids)
            ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every function in ``LAYERS``; ``uninstall`` restores them."""
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "ordkit"]
        for layer, targets in LAYERS.items():
            for target in targets:
                owner = sys.modules[target[0]]
                if len(target) == 3:
                    owner = getattr(owner, target[1])
                attr = target[-1]
                original = getattr(owner, attr)
                wrapper = self.wrap(layer, original)
                self._set(owner, attr, wrapper)
                for module in modules:
                    self._rebind(vars(module), original, wrapper)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, namespace: dict, original, wrapper):
        for key, value in list(namespace.items()):
            if value is original:
                self._undo.append((namespace, key, value))
                namespace[key] = wrapper
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if isinstance(v, tuple) and any(x is original for x in v):
                        self._undo.append((value, k, v))
                        value[k] = tuple(wrapper if x is original else x for x in v)

    def uninstall(self):
        for owner, key, value in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)
        self._undo.clear()

    def summary(self) -> dict:
        """Per span name: calls and self seconds."""
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * len(durations)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += durations[i]
        out = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        for i, nid in enumerate(self.ids):
            row = out[self.names[nid]]
            row["calls"] += 1
            row["self_s"] += durations[i] - child[i]
        return out

    def write(self, path: str):
        """One JSON header line, then the id, parent, start and end arrays."""
        header = {
            "names": self.names,
            "spans": len(self.ids),
            "arrays": [["id", "i"], ["parent", "i"], ["start", "d"], ["end", "d"]],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for arr in (self.ids, self.parents, self.starts, self.ends):
                arr.tofile(handle)


def layer_metrics(summary: dict, wall_s: float) -> dict:
    """The per-layer metrics named in BENCHMARK.json, from per-span-name
    calls and self seconds (``Tracer.summary``) and the traced ``wall_s``."""

    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    def hit_ratio(misses, calls):
        return 1.0 - misses / calls if calls else 0.0

    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = get(layer, "self_s")
        m[f"{layer}.calls"] = get(layer, "calls")
    m["production.dim.cache_hit_ratio"] = hit_ratio(
        get("kernels.production_rank", "calls"), get("production.dim", "calls")
    )
    witnesses = get("production.witness", "calls")
    m["production.witness.state_rank_calls_per_witness"] = (
        get("kernels.production_state_rank", "calls") / witnesses if witnesses else 0.0
    )
    m["orders.otp.cache_hit_ratio"] = hit_ratio(
        get("kernels.bad_sequence_rank", "calls"), get("orders.otp", "calls")
    )
    kernel_s = sum(get(layer, "self_s") for layer in LAYERS if layer.startswith("kernels."))
    m["kernels.share"] = kernel_s / wall_s
    return m
