"""Span tracer for the traced run.

`Tracer.install` replaces every public function of the layers below with
a wrapper that records one span per call, at every place the package
binds the function: module globals (so calls the package makes to itself
are seen too, such as `legendre` calling `eval_B` or `omega` calling
`factorize`) and the function fields of registry entries such as
`SEQUENCES`.  Spans live in flat arrays and are written out when the run
ends.  Self time is a span's duration minus the durations of its child
spans; there is one thread, so children nest inside their parent.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import os
import sys
import time
from array import array

LAYERS = ("digits", "valuation", "sequences", "theorems", "cli")
BUILDERS = (
    "eval_B", "eval_T", "eval_M", "legendre", "franel", "hexagonal", "catalan", "delannoy_table",
)

# (metric, unit, better).  The traced run prints exactly these.
PER_LAYER = (
    [("digits.self_s", "s", "lower")]
    + [("digits.kummer_carries.calls", "count", "lower"), ("digits.kummer_carries.self_s", "s", "lower")]
    + [("digits.is_prime.calls", "count", "lower"), ("digits.is_prime.cache_hits", "count", "higher")]
    + [("valuation.self_s", "s", "lower")]
    + [("valuation.factorize.calls", "count", "lower"), ("valuation.factorize.self_s", "s", "lower")]
    + [("valuation.factorize.cache_hits", "count", "higher")]
    + [("valuation.vp_int.calls", "count", "lower"), ("valuation.vp_int.self_s", "s", "lower")]
    + [("valuation.vp_int.bits", "bits", "lower")]
    + [("valuation.omega.calls", "count", "lower"), ("valuation.omega.self_s", "s", "lower")]
    + [("sequences.self_s", "s", "lower")]
    + [
        (f"sequences.{fn}.{stat}", unit, "lower")
        for fn in BUILDERS + ("central_multinomial_product",)
        for stat, unit in (("calls", "count"), ("bits", "bits"), ("self_s", "s"))
    ]
    + [("theorems.self_s", "s", "lower")]
    + [("theorems.predict.calls", "count", "lower"), ("theorems.predict.self_s", "s", "lower")]
    + [("theorems.run_harness.self_s", "s", "lower"), ("theorems.reports", "count", "lower")]
    + [("theorems.run_harness.parallel_efficiency", "ratio", "higher")]
    + [("cli.self_s", "s", "lower"), ("cli.main.self_s", "s", "lower")]
    + [("cli.cmd_omega.self_s", "s", "lower"), ("cli.cmd_verify.self_s", "s", "lower")]
    + [("cli.stdout_bytes", "bytes", "lower")]
    + [("trace.overhead_s", "s", "lower")]
)


def _bits(value) -> int:
    if isinstance(value, int):
        return abs(value).bit_length()
    if isinstance(value, list):
        return sum(abs(v).bit_length() for v in value if isinstance(v, int))
    return 0


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.bits: dict[str, int] = {}
        self.reports = 0
        self.current_op = -1
        self._stack = [-1]
        self._undo: list = []
        self.originals: dict[str, object] = {}

    # --- wrapping

    def _wrap(self, fn, name: str):
        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        layer = name.split(".")[0]
        if name == "valuation.vp_int":
            measure = lambda args, result: _bits(args[0])  # noqa: E731
        elif layer == "sequences":
            measure = lambda args, result: _bits(result)  # noqa: E731
        else:
            measure = None
        counts_reports = name == "theorems.run_harness"
        span_name, parent, op, start, end = self.span_name, self.parent, self.op, self.start, self.end
        stack, clock, tracer = self._stack, time.perf_counter_ns, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            span_name.append(nid)
            parent.append(stack[-1])
            op.append(tracer.current_op)
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if measure is not None:
                tracer.bits[name] = tracer.bits.get(name, 0) + measure(args, result)
            if counts_reports:
                tracer.reports += len(result.reports)
            return result

        return traced

    def install(self) -> None:
        wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            mod = sys.modules[f"valuata.{layer}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                self.originals[f"{layer}.{attr}"] = obj
                wrappers[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}"))

        def swap(obj):
            hit = wrappers.get(id(obj))
            return hit[1] if hit is not None and hit[0] is obj else None

        modules = [m for k, m in list(sys.modules.items()) if k == "valuata" or k.startswith("valuata.")]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("__"):
                    continue
                new = swap(obj)
                if new is not None:
                    self._undo.append((vars(mod), attr, obj))
                    setattr(mod, attr, new)
                elif isinstance(obj, dict):
                    self._swap_registry(obj, swap)
        os.register_at_fork(after_in_child=self.uninstall)

    def _swap_registry(self, registry: dict, swap) -> None:
        """Rebind functions held in a module-level table, e.g. SEQUENCES."""
        for key, entry in list(registry.items()):
            new = swap(entry)
            if new is None and dataclasses.is_dataclass(entry) and not isinstance(entry, type):
                changes = {f.name: swap(getattr(entry, f.name)) for f in dataclasses.fields(entry)}
                changes = {k: v for k, v in changes.items() if v is not None}
                new = dataclasses.replace(entry, **changes) if changes else None
            if new is not None:
                self._undo.append((registry, key, entry))
                registry[key] = new

    def uninstall(self) -> None:
        """Put every original back; also runs in a forked pool worker."""
        while self._undo:
            container, key, original = self._undo.pop()
            container[key] = original

    # --- results

    def stats(self) -> dict[str, dict[str, float]]:
        """calls, self_s and bits per traced function."""
        n = len(self.start)
        child = [0] * n
        dur = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"calls": 0, "self_s": 0.0, "bits": self.bits.get(name, 0)} for name in self.names}
        for i in range(n):
            entry = out[self.names[self.span_name[i]]]
            entry["calls"] += 1
            entry["self_s"] += (dur[i] - child[i]) / 1e9
        return out

    def write(self, path) -> None:
        """One line per span: id, parent, operation, name, start and end in ns."""
        t0 = self.start[0] if len(self.start) else 0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tparent\top\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.parent[i]}\t{self.op[i]}\t{self.names[self.span_name[i]]}\t"
                    f"{self.start[i] - t0}\t{self.end[i] - t0}\n"
                )


def per_layer(stats: dict, cache_hits: dict, extra: dict) -> dict[str, float]:
    """The PER_LAYER metrics from traced-function stats and the run's counters."""
    values: dict[str, float] = dict(extra)
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(
            s["self_s"] for name, s in stats.items() if name.startswith(layer + ".")
        )
    predict = [s for name, s in stats.items() if name.startswith("theorems.predict_")]
    values["theorems.predict.calls"] = sum(s["calls"] for s in predict)
    values["theorems.predict.self_s"] = sum(s["self_s"] for s in predict)
    for name, hits in cache_hits.items():
        values[f"{name}.cache_hits"] = hits
    for metric, _unit, _better in PER_LAYER:
        if metric in values:
            continue
        func, stat = metric.rsplit(".", 1)
        values[metric] = stats.get(func, {}).get(stat, 0)
    return values
