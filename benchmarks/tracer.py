"""Per-layer tracing of optstab from outside the package.

``Tracer.install`` replaces every public function of each layer module at
every place it is bound (the defining module, the modules that imported
it, and the ``optstab`` package itself) with one timing wrapper, plus a
few methods and foreign functions that carry their own metrics.
``uninstall`` puts the originals back.  Spans are kept in memory with their
task id and parent and written out by ``write_spans``.

A layer's self time is the time its spans ran minus the time covered by
their child spans; its busy time sums only its outermost spans.  Time in a
task that no span covers is ``unattributed``, so the layer self times plus
the unattributed time add up to the traced wall time.
"""

from __future__ import annotations

import gzip
import hashlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("distances", "gauges", "sets", "optima", "parametric", "linear",
          "ladder", "scheme", "instances", "cli")
CLI_KINDS = ("counterexample", "scheme", "stability", "hoffman", "egi",
             "ladder", "parametric", "hausdorff")
# Methods and properties with metrics of their own: (layer, class, attribute).
METHODS = [("sets", cls, "sample") for cls in
           ("FiniteCloud", "IntervalUnion", "AxisSegments", "ImplicitSampled", "AffineSlab")]
METHODS += [("linear", "LinearMap", "in_range"), ("linear", "LinearMap", "tol_lin")]
# scipy's linprog, timed where each layer calls it.
FOREIGN = [("linear", "linprog"), ("gauges", "linprog")]
# Leaves called 1e5 or more times in a pass: counted per parent span, not one span each.
AGGREGATED = {"distances.eval_distance", "distances.binding_energy",
              "gauges.minkowski_gauge", "linear.tol_lin"}

PER_LAYER = [f"{layer}.{m}" for layer in LAYERS for m in ("calls", "busy_s", "self_s")] + [
    "distances.eval_distance.calls", "gauges.minkowski_gauge.calls",
    "sets.hausdorff.calls", "sets.point_set_distance.calls", "sets.sample.calls",
    "sets.sampled_points", "sets.sample.accept_ratio", "sets.exact_ratio",
    "optima.sup_over.calls", "optima.inf_over.calls", "optima.exact_ratio",
    "linear.decompose.calls", "linear.in_range.calls", "linear.tol_lin.calls",
    "linear.tol_lin.busy_s", "linear.linprog.calls", "linear.linprog.busy_s",
    "linear.linprog.distinct_ratio", "ladder.hessian_sup.calls",
    "ladder.solve_radius.calls", "ladder.build_ladder.self_s",
    "scheme.run_scheme.calls", "parametric.eval_value_function.calls",
] + [f"cli.kind.{k}.busy_s" for k in CLI_KINDS] + [
    "cli.rows_written", "cli.rows_missing", "trace.overhead_ratio",
    "trace.unattributed_s"]


def _lp_key(args, kwargs) -> str:
    h = hashlib.sha1()
    for v in list(args) + [kwargs[k] for k in sorted(kwargs)]:
        if isinstance(v, np.ndarray):
            h.update(repr(v.shape).encode() + v.tobytes())
        else:
            h.update(repr(v).encode())
    return h.hexdigest()


class Tracer:
    def __init__(self):
        self.active = False
        self.spans = []           # (task, span, parent, name, start, end)
        self.aggregates = defaultdict(lambda: [0, 0.0])   # (task, parent, name) -> [calls, s]
        self.stats = {}           # name -> [calls, self s, busy s, open depth]
        self.layer_busy = defaultdict(float)
        self.counts = defaultdict(float)
        self.lp_keys = set()
        self.wall_s = 0.0
        self.root_s = 0.0
        self._stack = []          # open frames: [span id, start, child time]
        self._layer_depth = defaultdict(int)
        self._next_id = 0
        self._restore = []

    # -- install / uninstall ---------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "optstab" or name.startswith("optstab.")]
        originals = {}
        for layer in LAYERS:
            mod = sys.modules[f"optstab.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    originals[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}", layer))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in originals and originals[id(obj)][0] is obj:
                    self._replace(mod, attr, originals[id(obj)][1])
        for layer, attr in FOREIGN:
            mod = sys.modules[f"optstab.{layer}"]
            self._replace(mod, attr, self._wrap(getattr(mod, attr), f"{layer}.{attr}", layer))
        for layer, cls_name, attr in METHODS:
            cls = getattr(sys.modules[f"optstab.{layer}"], cls_name)
            orig = cls.__dict__[attr]
            name = f"{layer}.{attr}"
            if isinstance(orig, property):
                self._replace(cls, attr, property(self._wrap(orig.fget, name, layer)))
            else:
                self._replace(cls, attr, self._wrap(orig, name, layer))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore = []

    def _replace(self, owner, attr, new) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    # -- spans -----------------------------------------------------------------

    def start_task(self, task_id: int, kind: str) -> None:
        self._task, self._kind = task_id, kind
        self._task_root = 0.0
        self.active = True

    def end_task(self, wall_s: float) -> None:
        """Close the task whose calls took ``wall_s`` as timed by the caller."""
        self.active = False
        self.wall_s += wall_s
        self.root_s += self._task_root

    def _wrap(self, fn, name, layer):
        stack, layer_depth, clock = self._stack, self._layer_depth, time.perf_counter
        st = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        aggregated = name in AGGREGATED
        post = {"sets.sample": self._count_sample, "linear.linprog": self._count_lp}.get(name)
        if layer in ("sets", "optima"):
            post = post or self._count_mode

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            outer_layer = not layer_depth[layer]
            outer_name = not st[3]
            layer_depth[layer] += 1
            st[3] += 1
            self._next_id += 1
            frame = [self._next_id, clock(), 0.0]
            stack.append(frame)
            try:
                if name == "sets.sample" and type(args[0]).__name__ == "ImplicitSampled":
                    out = self._sample_implicit(fn, args, kwargs)
                else:
                    out = fn(*args, **kwargs)
                if post is not None:
                    post(name, out, args, kwargs)
                return out
            finally:
                end = clock()
                stack.pop()
                layer_depth[layer] -= 1
                st[3] -= 1
                span_id, start, child = frame
                dur = end - start
                if stack:
                    parent_id = stack[-1][0]
                    stack[-1][2] += dur
                else:
                    parent_id = 0
                    self._task_root += dur
                st[0] += 1
                st[1] += dur - child
                if outer_name:
                    st[2] += dur
                if outer_layer:
                    self.layer_busy[layer] += dur
                    if layer == "cli":
                        self.layer_busy[f"cli.kind.{self._kind.removeprefix('cli-')}"] += dur
                if aggregated:
                    agg = self.aggregates[(self._task, parent_id, name)]
                    agg[0] += 1
                    agg[1] += dur
                else:
                    self.spans.append((self._task, span_id, parent_id, name, start, end))
        wrapper.__wrapped__ = fn
        return wrapper

    # -- result counters ---------------------------------------------------------

    def _count_mode(self, name, out, args, kwargs) -> None:
        kind = type(out).__name__
        if kind in ("DistanceReport", "OptValue"):
            layer = name.split(".")[0]
            self.counts[f"{layer}.reports"] += 1
            self.counts[f"{layer}.exact"] += out.mode == "exact"

    def _count_sample(self, name, out, args, kwargs) -> None:
        self.counts["sets.sampled_points"] += len(out)

    def _sample_implicit(self, fn, args, kwargs):
        # count the points the sampler draws against those the membership oracle keeps
        model = args[0]
        sampler = model.sampler

        def counting(n, rng):
            pts = sampler(n, rng)
            self.counts["sets.drawn"] += len(np.atleast_2d(np.asarray(pts, dtype=float)))
            return pts
        object.__setattr__(model, "sampler", counting)
        try:
            out = fn(*args, **kwargs)
        finally:
            object.__setattr__(model, "sampler", sampler)
        self.counts["sets.kept"] += len(out) - 1     # the witness is always appended
        return out

    def _count_lp(self, name, out, args, kwargs) -> None:
        self.lp_keys.add(_lp_key(args, kwargs))

    # -- report ------------------------------------------------------------------

    def metrics(self, passes: int) -> dict:
        """Per-layer metrics per pass, over ``passes`` traced passes."""
        c = self.counts
        stat = lambda name, i: self.stats.get(name, (0, 0.0, 0.0))[i] / passes
        m = {}
        for layer in LAYERS:
            names = [n for n in self.stats if n.startswith(layer + ".")]
            m[f"{layer}.calls"] = sum(stat(n, 0) for n in names)
            m[f"{layer}.busy_s"] = self.layer_busy[layer] / passes
            m[f"{layer}.self_s"] = sum(stat(n, 1) for n in names)
        for name in ("distances.eval_distance", "gauges.minkowski_gauge", "sets.hausdorff",
                     "sets.point_set_distance", "sets.sample", "optima.sup_over",
                     "optima.inf_over", "linear.decompose", "linear.in_range",
                     "linear.tol_lin", "linear.linprog", "ladder.hessian_sup",
                     "ladder.solve_radius", "scheme.run_scheme",
                     "parametric.eval_value_function"):
            m[f"{name}.calls"] = stat(name, 0)
        m["sets.sampled_points"] = c["sets.sampled_points"] / passes
        m["sets.sample.accept_ratio"] = c["sets.kept"] / c["sets.drawn"] if c["sets.drawn"] else 0.0
        for layer in ("sets", "optima"):
            reports = c[f"{layer}.reports"]
            m[f"{layer}.exact_ratio"] = c[f"{layer}.exact"] / reports if reports else 0.0
        m["linear.tol_lin.busy_s"] = stat("linear.tol_lin", 2)
        m["linear.linprog.busy_s"] = stat("linear.linprog", 2)
        lp_calls = stat("linear.linprog", 0)
        # later passes repeat the first one's LPs, so distinct inputs are counted once
        m["linear.linprog.distinct_ratio"] = len(self.lp_keys) / lp_calls if lp_calls else 0.0
        m["ladder.build_ladder.self_s"] = stat("ladder.build_ladder", 1)
        for kind in CLI_KINDS:
            m[f"cli.kind.{kind}.busy_s"] = self.layer_busy[f"cli.kind.{kind}"] / passes
        m["trace.unattributed_s"] = (self.wall_s - self.root_s) / passes
        return m

    def write_spans(self, path) -> None:
        """Spans as gzipped CSV; aggregated leaves have calls and total_s, no span id."""
        with gzip.open(path, "wt") as fh:
            fh.write("task,span,parent,name,start,end,calls,total_s\n")
            for task, span, parent, name, start, end in self.spans:
                fh.write(f"{task},{span},{parent},{name},{start!r},{end!r},1,{end - start!r}\n")
            for (task, parent, name), (calls, total) in self.aggregates.items():
                fh.write(f"{task},,{parent},{name},,,{calls},{total!r}\n")
