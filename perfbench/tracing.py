"""Spans around the public calls into each layer, recorded from outside.

``install`` replaces each target function with a wrapper that records a
span (name, start, end, parent span, request id) in flat arrays, so the
package itself is not modified.  A layer's busy time is the self time of
its spans: duration minus the part covered by direct child spans.
``<layer>.calls`` counts entries into the layer from outside it.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

# layer -> "module:attribute" targets; an attribute path may pass through a
# class or a module held in an attribute (ring._kernels).
LAYERS = {
    "catalog": [
        "symchar.catalog:parse_space",
        "symchar.catalog:classify",
        "symchar.catalog:dual_of",
        "symchar.catalog:euler_characteristic_dual",
    ],
    "charclass": [
        "symchar.charclass:total_pontrjagin",
        "symchar.charclass:total_stiefel_whitney",
        "symchar.charclass:pontrjagin_numbers",
        "symchar.charclass:stiefel_whitney_numbers",
        "symchar.charclass:bounds_orientably",
    ],
    "ring": [
        "symchar.ring:GradedElement.mul",
        "symchar.ring:GradedElement.pow",
        "symchar.ring:_kernels.mul_trunc",
        "symchar.ring:_kernels.pow_trunc",
        "symchar.ring:_kernels.invert_trunc",
    ],
    "partitions": [
        "symchar.partitions:partitions_of",
        "symchar.partitions:sw_monomials_of",
        "symchar.partitions:format_partition",
    ],
    "transfer": [
        "symchar.transfer:pullback_numbers",
        "symchar.transfer:solve_manifold_numbers",
        "symchar.transfer:mu",
        "symchar.transfer:gl_order",
        "symchar.transfer:deligne_sullivan_check",
    ],
}
LAYER_NAMES = list(LAYERS) + ["cli.encode"]
COUNTERS = ["ring.mul_calls", "charclass.entries", "partitions.enumerated", "cli.encode.bytes"]


def _entries(counters, result):
    counters["charclass.entries"] += len(result.entries)


def _enumerated(counters, result):
    counters["partitions.enumerated"] += len(result)


def _encoded(counters, result):
    counters["cli.encode.bytes"] += len(result)


def _product(counters, result):
    counters["ring.mul_calls"] += 1


_ON_RESULT = {
    "symchar.charclass:pontrjagin_numbers": _entries,
    "symchar.charclass:stiefel_whitney_numbers": _entries,
    "symchar.partitions:partitions_of": _enumerated,
    "symchar.partitions:sw_monomials_of": _enumerated,
    "symchar.ring:GradedElement.mul": _product,
}


class Recorder:
    """Spans of one process, kept in memory until ``summary``/``write``."""

    def __init__(self):
        self.names: list = []
        self.layer_of: list = []
        self.name = array("H")
        self.parent = array("l")
        self.request = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack: list = []
        self.request_id = 0
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.missing: list = []

    def wrap(self, name: str, layer: str, fn, on_result=None):
        nid = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        names, parents, requests = self.name, self.parent, self.request
        starts, ends, stack, counters = self.start, self.end, self.stack, self.counters
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            requests.append(self.request_id)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if on_result is not None:
                on_result(counters, result)
            return result

        return traced

    def wrap_request(self, fn):
        """Root span per request; each call starts a new request id."""
        inner = self.wrap("request", "request", fn)

        def request(*args, **kwargs):
            self.request_id += 1
            return inner(*args, **kwargs)

        return request

    def summary(self) -> dict:
        n = len(self.start)
        child = [0.0] * n
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        stats = {layer: {"calls": 0, "busy_s": 0.0} for layer in LAYER_NAMES + ["request"]}
        layer_of = [self.layer_of[k] for k in self.name]
        for i in range(n):
            layer = layer_of[i]
            entry = stats[layer]
            entry["busy_s"] += end[i] - start[i] - child[i]
            p = parent[i]
            if p < 0 or layer_of[p] != layer:
                entry["calls"] += 1
        return {"layers": stats, "counters": dict(self.counters), "spans": n,
                "missing": list(self.missing)}

    def write(self, path: str, append: bool = False) -> None:
        """Spans as CSV, times in microseconds from the first span."""
        t0 = self.start[0] if self.start else 0.0
        with open(path, "a" if append else "w", encoding="utf-8") as fh:
            if not append:
                fh.write("request,span,parent,name,start_us,end_us\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.request[i]},{i},{self.parent[i]},{self.names[self.name[i]]},"
                    f"{(self.start[i] - t0) * 1e6:.1f},{(self.end[i] - t0) * 1e6:.1f}\n"
                )


def _resolve(target: str):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def install(recorder: Recorder, encode_owner, encode_attr: str) -> None:
    """Wrap every layer target, and ``encode_owner.encode_attr`` as cli.encode.

    Module-level names bound to a target elsewhere in the package (from
    ``from x import f``) are rebound too, so internal calls are seen.
    """
    targets = [(t, layer) for layer, ts in LAYERS.items() for t in ts]
    for target, layer in targets + [(None, "cli.encode")]:
        if target is None:
            owner, attr = encode_owner, encode_attr
        else:
            try:
                owner, attr = _resolve(target)
            except (ImportError, AttributeError):
                recorder.missing.append(target)
                continue
        original = getattr(owner, attr, None)
        if original is None:
            recorder.missing.append(target)
            continue
        name = target.partition(":")[2] if target else "encode"
        hook = _ON_RESULT.get(target, _encoded if target is None else None)
        wrapped = recorder.wrap(name, layer, original, hook)
        setattr(owner, attr, wrapped)
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("symchar") and module is not None:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
