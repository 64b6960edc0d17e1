"""Per-layer tracing of paritylab from outside the package.

``Tracer.install`` replaces every public function of every paritylab
module, at every module attribute that binds it (``from .gf2 import
is_subset`` copies the name into partition, suites and others), and a
few methods on their classes, with a wrapper that records a span:
name, start, end, parent span and job id.  Spans stay in memory and are
written out at the end of the traced run.  Self time is a span's
duration minus the time its child spans cover.

Functions called millions of times per job (``HOT``) are not stored one
span per call: their calls and time are aggregated per parent span.

Counts (cells, edges, steps, frames, ...) are computed from the wrapped
calls' arguments and results, never measured, so they repeat exactly at
a fixed seed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import time
from collections import defaultdict
from pathlib import Path

# Bit primitives called once per word operation.  Wrapping them would
# multiply run time several-fold; their time stays in their callers' self
# time.
SKIP = {"gf2.parity", "gf2.lowest_set_bit"}

# (module, class, method, span name)
METHODS = (
    ("partition", "SubspacePartition", "assign", "partition.assign"),
    ("distributions", "SubspaceMixture", "from_pairs", "distributions.SubspaceMixture.from_pairs"),
    ("gf2", "VectorSubspace", "from_rows", "gf2.VectorSubspace.from_rows"),
)

HOT_MODULES = {"gf2"}
HOT = {
    "partition.assign", "partition.constant_value_on",
    "partition.project_out", "partition.lift_back",
    "learners.run_learner", "learners.assert_state_size",
    "crypto.random_vector", "crypto.encrypt_bit", "crypto.decrypt_bit",
    "crypto.frame_to_bytes", "crypto.frame_from_bytes", "crypto.reverse_bits",
    "generators.random_subspace",
}


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _cells(args, kwargs, result):
    program = args[0]
    upto = _arg(args, kwargs, 1, "upto")
    upto = program.m if upto is None else upto
    return sum(program.layer_sizes[:upto]) * 4 ** program.n


def _edges(args, kwargs, result):
    program = args[0]
    inner = sum(row is not None for layer in program.transitions for row in layer)
    return inner * (1 << (program.n + 1))


def _steps(args, kwargs, result):
    return _arg(args, kwargs, 2, "trials") * _arg(args, kwargs, 1, "m")


# name -> list of (count name, function of (args, kwargs, result)); a
# count summed over calls.
COUNTERS = {
    "bp.forward_tables": [("bp.forward_tables.cells", _cells)],
    "bp.validate_affine": [("bp.validate_affine.edges", _edges)],
    "learners.simulate_success": [("learners.steps", _steps)],
    "learners.learner_state_layers": [
        ("learners.unrolled_states", lambda a, k, r: sum(len(layer) for layer in r[0]))],
    "crypto.encode_stream": [("crypto.frames", lambda a, k, r: 8 * len(_arg(a, k, 1, "plaintext")))],
    "crypto.decode_stream": [("crypto.frames", lambda a, k, r: 8 * len(r))],
    "crypto.run_attack": [("crypto.attack_steps", _steps)],
    "partition.assign": [("partition.assign.hits", lambda a, k, r: r is not None)],
    "partition.build_partition": [("partition.groups", lambda a, k, r: len(r.groups))],
    "reduction.reduce_to_affine": [
        ("reduction.out_vertices", lambda a, k, r: sum(r.program.layer_sizes))],
}

# Counts that keep their largest value instead of a sum.
MAXIMA = {
    "reduction.reduce_to_affine": [
        ("reduction.width_max", lambda a, k, r: r.program.width)],
}

# rate name -> (count name, function whose inclusive time is the base)
RATES = {
    "bp.forward_tables.cells_per_s": ("bp.forward_tables.cells", "bp.forward_tables"),
    "bp.validate_affine.edges_per_s": ("bp.validate_affine.edges", "bp.validate_affine"),
    "learners.steps_per_s": ("learners.steps", "learners.simulate_success"),
    "crypto.frames_per_s": ("crypto.frames", ("crypto.encode_stream", "crypto.decode_stream")),
    "crypto.attack_steps_per_s": ("crypto.attack_steps", "crypto.run_attack"),
}


class Tracer:
    def __init__(self) -> None:
        self.on = False
        self.job = "setup"
        self.next_id = 1
        self.stack: list[list] = [[0, 0.0]]          # [stored span id, child time]
        self.spans: list[tuple] = []                  # (id, name, start, end, parent, job)
        self.hot: dict[tuple[int, str], list] = {}   # (parent id, name) -> [calls, seconds]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)

    # -- wrapping --------------------------------------------------------
    def _wrapper(self, name: str, fn):
        tracer = self
        stack = self.stack
        perf = time.perf_counter
        hot = name in HOT or name.split(".")[0] in HOT_MODULES
        counters = COUNTERS.get(name, ())
        maxima = MAXIMA.get(name, ())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            parent = stack[-1]
            if hot:
                sid = parent[0]     # aggregate under the nearest stored span
            else:
                sid = tracer.next_id
                tracer.next_id = sid + 1
            frame = [sid, 0.0]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                dur = end - start
                parent[1] += dur
                tracer.calls[name] += 1
                tracer.self_s[name] += dur - frame[1]
                tracer.total_s[name] += dur
                if hot:
                    agg = tracer.hot.get((parent[0], name))
                    if agg is None:
                        tracer.hot[(parent[0], name)] = [1, dur]
                    else:
                        agg[0] += 1
                        agg[1] += dur
                else:
                    tracer.spans.append((sid, name, start, end, parent[0], tracer.job))
            for count, f in counters:
                tracer.counts[count] += f(args, kwargs, result)
            for count, f in maxima:
                tracer.counts[count] = max(tracer.counts[count], f(args, kwargs, result))
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every public paritylab function at every binding site."""
        import paritylab

        modules = [importlib.import_module(f"paritylab.{info.name}")
                   for info in pkgutil.iter_modules(paritylab.__path__)]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                name = f"{short}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in SKIP):
                    wrappers[obj] = self._wrapper(name, obj)
        for mod in modules + [paritylab]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
        for modname, clsname, meth, name in METHODS:
            cls = getattr(importlib.import_module(f"paritylab.{modname}"), clsname)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(self._wrapper(name, raw.__func__)))
            else:
                setattr(cls, meth, self._wrapper(name, raw))

    # -- results ---------------------------------------------------------
    def metric(self, name: str) -> float:
        """Value of one per-layer metric name."""
        if name in RATES:
            count, base = RATES[name]
            bases = base if isinstance(base, tuple) else (base,)
            seconds = sum(self.total_s[b] for b in bases)
            return self.counts[count] / seconds if seconds > 0 else 0.0
        if name == "partition.assign.hit_ratio":
            calls = self.calls["partition.assign"]
            return self.counts["partition.assign.hits"] / calls if calls else 0.0
        if name in self.counts or not name.endswith((".calls", ".self_s")):
            return self.counts[name]
        func, _, field = name.rpartition(".")
        return self.calls[func] if field == "calls" else self.self_s[func]

    def write(self, path: Path) -> None:
        """Spans, then the per-parent aggregates of hot functions, as JSON lines."""
        with open(path, "w") as fh:
            for sid, name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")
            for (parent, name), (calls, seconds) in self.hot.items():
                fh.write(json.dumps({"parent": parent, "name": name, "calls": calls,
                                     "seconds": seconds}) + "\n")
