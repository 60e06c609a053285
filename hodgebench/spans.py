"""Outside-in span tracing of hodgedec, for the traced benchmark run.

`Tracer.install` wraps every public function of the hodgedec modules and
rebinds each module attribute that refers to it, in every hodgedec module,
so that callers which look the function up at call time (`hodge` calling
`dec.solve_spd`, `cli` calling its imported `ball_mesh`) reach the wrapper.
A span records its name, start, end, parent and, for a few functions, one
number taken from the call (solve size and iterations, bytes of a file).
Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import statistics
import sys
import time
import types
from array import array


def _solve_extra(args, kwargs, result):
    b = args[1] if len(args) > 1 else kwargs["b"]
    return (len(b), result.iterations)


# name -> extra(args, kwargs, result), recorded with the span
_EXTRAS = {
    "dec.solve_spd": _solve_extra,
    "io.save_json": lambda args, kwargs, result: os.path.getsize(args[1]),
    "io.load_json": lambda args, kwargs, result: os.path.getsize(args[0]),
}


def _span_name(name, args, kwargs):
    if name == "geometry.ball_mesh":
        a = args[0] if args else kwargs["a"]
        return name + (".curved" if a > 0 else ".flat")
    return name


class Tracer:
    """Collects spans while `enabled`; wrappers cost one flag test otherwise.

    Span i has name self.names[self.name_id[i]], parent index self.parent[i]
    (-1 at the top), times self.start[i] and self.end[i], and an optional
    self.extra[i]. Columns of arrays keep a span at about 24 bytes, since the
    flip pass alone makes ~10^5 distance calls per mesh.
    """

    def __init__(self):
        self.enabled = False
        self.names, self._ids = [], {}
        self.name_id, self.parent = array("i"), array("i")
        self.start, self.end = array("d"), array("d")
        self.extra = {}
        self._stack = []
        self._restore = []

    def __len__(self):
        return len(self.start)

    def span(self, name, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span called `name`."""
        if not self.enabled:
            return fn(*args, **kwargs)
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        try:
            result = fn(*args, **kwargs)
        finally:
            self.end[index] = time.perf_counter()
            self._stack.pop()
        extra = _EXTRAS.get(name)
        if extra is not None:
            self.extra[index] = extra(args, kwargs, result)
        return result

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(_span_name(name, args, kwargs), fn, *args, **kwargs)

        return traced

    def install(self, package):
        """Wrap the public functions of every loaded module of `package`."""
        prefix = package.__name__ + "."
        modules = [m for n, m in sys.modules.items() if n.startswith(prefix) and m is not None]
        wrappers = {}
        for module in modules:
            short = module.__name__[len(prefix):]
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr)
                if isinstance(fn, types.FunctionType) and fn.__module__ == module.__name__:
                    wrappers[id(fn)] = (fn, self._wrap(f"{short}.{attr}", fn))
        for module in modules + [package]:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)][1])

    def uninstall(self):
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def write(self, path, summary):
        """Write the spans as columns, times relative to the first span."""
        t0 = self.start[0] if len(self) else 0.0
        with gzip.open(path, "wt") as fh:
            json.dump(
                {
                    "summary": summary,
                    "names": self.names,
                    "name_id": self.name_id.tolist(),
                    "parent": self.parent.tolist(),
                    "start_s": [t - t0 for t in self.start],
                    "end_s": [t - t0 for t in self.end],
                    "extra": {str(i): x for i, x in self.extra.items()},
                },
                fh,
            )


def round_metrics(tracer, first, last, block_sizes):
    """Per-layer metrics of spans first..last-1 of `tracer`, which form one job.

    block_sizes maps a solve size to "vertex" or "face". Times are in
    seconds; self time is a span's time minus that of its direct children.
    No traced function calls itself, so a name's spans never nest.
    """
    names, name_id, parent, start, end, extras = (
        tracer.names, tracer.name_id, tracer.parent, tracer.start, tracer.end, tracer.extra
    )
    totals, calls, children = {}, {}, {}
    out = {"io.bytes_written": 0, "io.bytes_read": 0}
    for i in range(first, last):
        name = names[name_id[i]]
        dur = end[i] - start[i]
        totals[name] = totals.get(name, 0.0) + dur
        calls[name] = calls.get(name, 0) + 1
        if parent[i] >= first:
            children[parent[i]] = children.get(parent[i], 0.0) + dur
        if name == "dec.solve_spd":
            size, iterations = extras[i]
            block = block_sizes.get(size, "other")
            out[f"dec.solve_spd.{block}.s"] = out.get(f"dec.solve_spd.{block}.s", 0.0) + dur
            key = f"dec.solve_spd.{block}.iterations"
            out[key] = out.get(key, 0) + iterations
        elif name == "io.save_json":
            out["io.bytes_written"] += extras[i]
        elif name == "io.load_json":
            out["io.bytes_read"] += extras[i]
    self_s = {}
    for i in range(first, last):
        name = names[name_id[i]]
        self_s[name] = self_s.get(name, 0.0) + (end[i] - start[i]) - children.get(i, 0.0)
    for name, total in totals.items():
        out[f"{name}.s"] = total
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    return out


def layer_metrics(per_round, wanted):
    """Each wanted metric over the rounds: the common value when every round
    agrees (counts do), else the median; 0 where a layer never ran."""
    out = {}
    for name in wanted:
        values = [r.get(name, 0) for r in per_round]
        out[name] = values[0] if len(set(values)) == 1 else statistics.median(values)
    return out
