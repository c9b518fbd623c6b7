"""Outside-in span tracer for the opcert pipeline.

The tracer replaces module and class attributes of `opcert` with timing
wrappers and puts the originals back on `uninstall()`. The package looks
these names up at call time (`ad.dwt1d(...)`, `no.train(...)`,
`model.predict(...)`, `cho_factor(...)` inside `opcert.gp`), so the
wrappers see every call without any change to the package.

A span is `[name, start, end, parent]`, kept in memory in call order.
Spans nest because the pipeline is single-threaded. Self time is a span's
duration minus the durations of its direct children.

Autodiff ops are discovered at run time: every public function of
`opcert.autodiff` is wrapped, and a call counts as an op only when it
returns a `Node` (or a tuple holding nodes, as `vsn` does). Calls that
return anything else become transparent: their span is dropped and their
time stays with the caller. The gradient closures of each returned node
are wrapped too, so backward time is charged to the op that created it.
"""

from __future__ import annotations

import functools
import inspect
import os
import time

_clock = time.perf_counter


class Tracer:
    """Records spans and counters around opcert's public functions."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self._stack = []
        self._patched = []

    # -- span recording -----------------------------------------------------

    def begin(self, name):
        idx = len(self.spans)
        self.spans.append([name, _clock(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def end(self, idx):
        self.spans[idx][2] = _clock()
        self._stack.pop()

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def timed(self, name, fn, after=None):
        """fn wrapped in a span; after(args, kwargs, result) runs outside it."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    # -- patching -------------------------------------------------------------

    def patch(self, owner, attr, name, after=None):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, self.timed(name, original, after))
        self._patched.append((owner, attr, original))

    def uninstall(self):
        """Put every replaced attribute back, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def install(self):
        """Wrap the public entry points of every opcert layer."""
        from opcert import autodiff, conformal, datagen, ensemble, gp, neuralop

        for attr in ("solve_burgers", "solve_darcy_fd"):
            self.patch(datagen, attr, f"datagen.{attr}")
        for attr in ("grf_coefficients", "grf_evaluate", "sample_grf"):
            self.patch(datagen, attr, "datagen.grf")

        self._patch_autodiff(autodiff)

        self.patch(neuralop, "train", "neuralop.train")
        self.patch(neuralop, "adam_step", "neuralop.adam_step")
        self.patch(neuralop.WnoModel, "forward_nodes", "neuralop.forward_nodes")
        self.patch(neuralop.WnoModel, "predict", "neuralop.predict")

        self.patch(ensemble, "rp_predict", "ensemble.rp_predict")
        self.patch(ensemble, "initial_band", "ensemble.initial_band")
        self.patch(ensemble.RpMember, "residual_targets", "ensemble.residual_targets")

        for attr in ("calibrate", "band", "coverage_eval"):
            self.patch(conformal, attr, f"conformal.{attr}")

        self.patch(gp, "superres_q", "gp.superres_q", after=self._record_gp_fit)
        self.patch(gp, "gp_fit", "gp.gp_fit")
        self.patch(gp, "gp_predict", "gp.gp_predict")
        self.patch(gp, "cho_factor", "gp.cho_factor")

        for owner, attr in ((datagen, "write_dataset"), (neuralop, "save_model"),
                            (conformal, "save_qfield")):
            self.patch(owner, attr, "serialio.save", after=self._record_bytes(owner, attr))
        for owner, attr in ((datagen, "read_dataset"), (neuralop, "load_model"),
                            (conformal, "load_qfield")):
            self.patch(owner, attr, "serialio.load")

    def _patch_autodiff(self, module):
        for attr, fn in inspect.getmembers(module, inspect.isfunction):
            if attr.startswith("_") or fn.__module__ != module.__name__:
                continue
            if attr == "backward":
                self.patch(module, attr, "autodiff.backward")
                continue
            setattr(module, attr, self._op_wrapper(module.Node, attr, fn))
            self._patched.append((module, attr, fn))

    def _op_wrapper(self, node_type, attr, fn):
        fwd_name, bwd_name = f"autodiff.{attr}.fwd", f"autodiff.{attr}.bwd"

        @functools.wraps(fn)
        def op(*args, **kwargs):
            idx = self.begin(fwd_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            nodes = result if isinstance(result, tuple) else (result,)
            nodes = [n for n in nodes if isinstance(n, node_type)]
            if not nodes:
                self.spans[idx][0] = None  # not an op: time stays with the caller
            for node in nodes:
                node.grad_fns = tuple(self._grad_wrapper(bwd_name, g) for g in node.grad_fns)
            return result

        return op

    def _grad_wrapper(self, name, fn):
        if getattr(fn, "_traced", False):  # a node passed through another op
            return fn

        def grad(g):
            idx = self.begin(name)
            try:
                return fn(g)
            finally:
                self.end(idx)

        grad._traced = True
        return grad

    def _record_bytes(self, owner, attr):
        signature = inspect.signature(getattr(owner, attr))

        def after(args, kwargs, result):
            path = signature.bind(*args, **kwargs).arguments["path"]
            self.count("serialio.bytes_written", os.path.getsize(path))

        return after

    def _record_gp_fit(self, args, kwargs, result):
        qfield = args[0] if args else kwargs["qfield"]
        _, model = result
        dx = 1.0 / (max(qfield.grid.resolution) - 1)
        self.counters["gp.fit_points"] = int(model.x_train.shape[0])
        self.counters["gp.fit_iterations"] = len(model.nll_trace) - 1
        self.counters["gp.length_scale_over_dx"] = model.params.length_scale / dx

    # -- summaries ------------------------------------------------------------

    def summary(self):
        """{name: {"calls", "total_s", "self_s"}} over the recorded spans."""
        spans = self.spans
        parent_of = [s[3] for s in spans]

        def visible_parent(i):
            p = parent_of[i]
            while p >= 0 and spans[p][0] is None:
                p = parent_of[p]
            return p

        child_time = [0.0] * len(spans)
        for i, (name, start, end, _) in enumerate(spans):
            if name is not None:
                p = visible_parent(i)
                if p >= 0:
                    child_time[p] += end - start
        out = {}
        for i, (name, start, end, _) in enumerate(spans):
            if name is None:
                continue
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[i]
        return out

    def share_within(self, outer, prefixes):
        """Share of `outer` spans' time spent in descendants named with a prefix."""
        spans = self.spans
        inside = [False] * len(spans)
        outer_time = matched = 0.0
        for i, (name, start, end, parent) in enumerate(spans):
            inside[i] = parent >= 0 and (inside[parent] or spans[parent][0] == outer)
            if name == outer and not inside[i]:
                outer_time += end - start
            elif inside[i] and name is not None and name.startswith(prefixes):
                matched += end - start
        return matched / outer_time if outer_time else 0.0
