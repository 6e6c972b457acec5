"""Tracing of the smoothnorm layers from outside the package.

The tracer wraps public functions and methods of the package from the
outside and restores them afterwards; no code under ``src/`` knows about
it.  Modules import each other by name (``from .boundary import
build_net``), so a function is replaced at every module attribute that
is bound to it, not only where it is defined.

Two kinds of wrapper:

* hot calls (hundreds of thousands per run, e.g. ``dual_norm``) only
  add to a call counter and a total-time counter;
* coarse calls also record a span ``(id, parent id, op, name, start,
  end)`` kept in memory and written out when the run ends.

All times are ``time.perf_counter`` readings, which on Linux come from
the system-wide monotonic clock, so spans recorded in a child process
line up with the parent's.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict


def _rows(array):
    shape = getattr(array, "shape", ())
    return int(shape[0]) if len(shape) else 1


class Tracer:
    """Counters and spans for one run; install() patches, restore() undoes.

    ``op`` names the benchmark operation in flight (for example
    ``setup#2``); every span records it, so the spans of one operation
    share that identifier.
    """

    def __init__(self):
        self.counters = defaultdict(float)
        self.spans = []
        self.op = ""
        self._stack = []
        self._active = defaultdict(int)
        self._patches = []
        self._next_id = 1

    # -- wrappers ---------------------------------------------------------

    def _hot(self, name, fn, extra=None):
        counters, active, clock = self.counters, self._active, time.perf_counter
        calls_key, time_key = name + "_calls", name + "_s"

        def wrapper(*args, **kwargs):
            counters[calls_key] += 1
            if active[name]:
                # re-entry: the outer call already covers this interval
                out = fn(*args, **kwargs)
            else:
                active[name] = 1
                t0 = clock()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    counters[time_key] += clock() - t0
                    active[name] = 0
            if extra is not None:
                extra(args, out)
            return out

        return wrapper

    def _span(self, name, fn, extra=None):
        counters, active, clock = self.counters, self._active, time.perf_counter
        stack, spans = self._stack, self.spans

        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else 0
            stack.append(sid)
            active[label] += 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                active[label] -= 1
                spans.append((sid, parent, self.op, label, t0, t1))
                counters[label + "_calls"] += 1
                counters[label + "_s"] += t1 - t0
            if extra is not None:
                extra(args, out)
            return out

        return wrapper

    # -- extras: exact work counters ---------------------------------------

    def _count_metric_call(self, args, out):
        if self._active["boundary.build_net"]:
            self.counters["boundary.metric_calls"] += 1

    def _count_modular(self, args, out):
        self.counters["orlicz.term_evals"] += len(args[0])

    def _count_modular_rows(self, args, out):
        self.counters["orlicz.term_evals"] += _rows(out) * len(args[0])

    def _count_iterations(self, args, out):
        self.counters["scaling.bisect_iterations"] += out.iterations

    def _count_batch_rows(self, key):
        def extra(args, out):
            self.counters[key] += _rows(out)
        return extra

    def _count_net(self, args, out):
        self.counters["renorm.net_points"] += len(out.net)

    def _count_members(self, args, out):
        self.counters["boundary.net_points"] += len(out)
        self.counters["boundary.members"] += sum(
            len(p) for p in args[0].pieces)

    # -- patching -----------------------------------------------------------

    def _patch_function(self, module, attr, wrap):
        original = getattr(module, attr)
        wrapped = wrap(original)
        for mod in list(sys.modules.values()):
            modname = getattr(mod, "__name__", "")
            if modname != "smoothnorm" and not modname.startswith(
                    "smoothnorm."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def _patch_method(self, cls, attr, wrap):
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, wrap(original))

    def install(self):
        """Wrap the layer entry points."""
        from smoothnorm import (boundary, cli, equiv, orlicz, renorm,
                                scaling, spaces, tensor)

        def hot(name, extra=None):
            return lambda fn: self._hot(name, fn, extra)

        def span(name, extra=None):
            return lambda fn: self._span(name, fn, extra)

        functions = [
            (cli, "run_suite", span(lambda a: "cli.suite." + a[0])),
            (cli, "load_config", span("cli.load_config")),
            (equiv, "corollary_b_pipeline",
             span("equiv.corollary_b_pipeline")),
            (equiv, "compute_cn", span("equiv.compute_cn")),
            (equiv, "compute_bn", span("equiv.compute_bn")),
            (equiv, "support_ball", span("equiv.support_ball")),
            (equiv, "build_F", span("equiv.build_F")),
            (renorm, "build_renorm",
             span("renorm.build_renorm", self._count_net)),
            (renorm, "phi_norm_batch",
             span("renorm.phi_norm_batch",
                  self._count_batch_rows("renorm.phi_norm_batch_rows"))),
            (renorm, "phi_norm", hot("renorm.phi_norm")),
            (renorm, "active_set", hot("renorm.active_set")),
            (renorm, "verify_claim2d", hot("renorm.verify_claim2d")),
            (boundary, "build_net",
             span("boundary.build_net", self._count_members)),
            (boundary, "check_boundary", span("boundary.check_boundary")),
            (boundary, "net_property_report",
             span("boundary.net_property_report")),
            (orlicz, "luxemburg_norm_batch",
             span("orlicz.luxemburg_norm_batch",
                  self._count_batch_rows("orlicz.luxemburg_norm_batch_rows"))),
            (orlicz, "luxemburg_norm", hot("orlicz.luxemburg_norm")),
            (scaling, "feasible_scale_inf",
             hot("scaling.feasible_scale_inf", self._count_iterations)),
            (spaces, "find_norming_support",
             hot("spaces.find_norming_support")),
            (tensor, "injective_norm", hot("tensor.injective_norm")),
            (tensor, "boundary_product_check",
             span("tensor.boundary_product_check")),
        ]
        methods = [
            (boundary.Decomposition, "__init__",
             span("boundary.decomposition_init")),
            (spaces.ModelSpace, "norm", hot("spaces.norm")),
            (spaces.ModelSpace, "dual_norm",
             hot("spaces.dual_norm", self._count_metric_call)),
            (equiv.BoundaryNormSpace, "dual_norm",
             hot("spaces.dual_norm", self._count_metric_call)),
            (orlicz.OrliczFamily, "modular",
             hot("orlicz.modular", self._count_modular)),
            (orlicz.OrliczFamily, "modular_rows",
             hot("orlicz.modular_rows", self._count_modular_rows)),
        ]
        for module, attr, wrap in functions:
            self._patch_function(module, attr, wrap)
        for cls, attr, wrap in methods:
            self._patch_method(cls, attr, wrap)

    def restore(self):
        """Put back every original binding, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def call(self, op, label, fn, *args):
        """Run one benchmark operation as a top-level span."""
        self.op = op
        return self._span(label, fn)(*args)

    # -- results --------------------------------------------------------------

    def merge(self, dump):
        """Fold a child process's dump in under the currently open span."""
        for key, value in dump["counters"].items():
            self.counters[key] += value
        offset = self._next_id
        parent = self._stack[-1] if self._stack else 0
        for sid, par, op, label, t0, t1 in dump["spans"]:
            self.spans.append((sid + offset, par + offset if par else parent,
                               op, label, t0, t1))
            self._next_id = max(self._next_id, sid + offset + 1)

    def dump(self):
        return {"counters": dict(self.counters), "spans": list(self.spans)}

    def self_times(self):
        """Span time minus the time its direct child spans cover, by name.

        Runs are single-threaded with one operation in flight, so child
        spans never overlap and their durations add up.
        """
        child_time = defaultdict(float)
        for _sid, parent, _op, _label, t0, t1 in self.spans:
            if parent:
                child_time[parent] += t1 - t0
        out = defaultdict(float)
        for sid, _parent, _op, label, t0, t1 in self.spans:
            out[label] += (t1 - t0) - child_time[sid]
        return dict(out)
