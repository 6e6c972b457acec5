"""Closed-loop runner: one workload, one operation in flight.

A run makes the workload's inputs from the seed, verifies the workload
once through the CLI, then runs rounds of setup, evaluation and
single-point latency until ``--seconds`` have passed since its first
operation.  It does at least MIN_ROUNDS rounds and starts no round that
would end past ``--seconds``.  With ``--trace 1`` the layers are wrapped
from outside (tracer.py) and the run does exactly MIN_ROUNDS rounds, so
that work counters repeat exactly; the per-layer metrics are reported
instead of the end-to-end ones.

Every timed sample is scaled to the machine's nominal speed by the
reference kernels run around it (reference.py).  ``setup_s`` is the
median of the run's setup samples; ``eval_rows_per_s`` is the batch's
rows over the sum of each part's median time; ``norm_latency_ms`` is the
mean over the latency points of each point's median time.  The same
figures unscaled, and the machine speed the references saw, are printed
and recorded too.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
record the environment, the input digests and notes.  A fuller record
(every sample, checks, spans, self times) goes to the work directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import time
import traceback
from pathlib import Path

import numpy as np

from reference import Scaler
from tracer import Tracer
from workloads import FULL, WORKLOADS, Context

MIN_ROUNDS = 2

END_TO_END = {
    "setup_s": "s",
    "eval_rows_per_s": "rows/s",
    "norm_latency_ms": "ms",
    "peak_rss_mb": "MB",
}

# name -> unit; times are inclusive (time inside the wrapped call)
PER_LAYER = {
    "boundary.build_net_s": "s",
    "boundary.metric_calls": "count",
    "boundary.net_points_per_member": "ratio",
    "boundary.decomposition_init_s": "s",
    "boundary.check_boundary_s": "s",
    "boundary.net_property_report_s": "s",
    "orlicz.luxemburg_norm_batch_s": "s",
    "orlicz.luxemburg_norm_batch_rows": "count",
    "orlicz.modular_rows_calls": "count",
    "orlicz.modular_rows_s": "s",
    "orlicz.term_evals": "count",
    "orlicz.luxemburg_norm_calls": "count",
    "orlicz.luxemburg_norm_s": "s",
    "orlicz.modular_calls": "count",
    "orlicz.modular_s": "s",
    "scaling.feasible_scale_inf_calls": "count",
    "scaling.feasible_scale_inf_s": "s",
    "scaling.bisect_iterations": "count",
    "spaces.norm_calls": "count",
    "spaces.norm_s": "s",
    "spaces.dual_norm_calls": "count",
    "spaces.dual_norm_s": "s",
    "spaces.find_norming_support_calls": "count",
    "renorm.build_renorm_calls": "count",
    "renorm.build_renorm_s": "s",
    "renorm.build_renorm_self_s": "s",
    "renorm.net_points": "count",
    "renorm.phi_norm_batch_s": "s",
    "renorm.phi_norm_batch_rows": "count",
    "renorm.phi_norm_calls": "count",
    "renorm.phi_norm_s": "s",
    "renorm.active_set_calls": "count",
    "renorm.active_set_s": "s",
    "renorm.verify_claim2d_calls": "count",
    "renorm.verify_claim2d_s": "s",
    "tensor.injective_norm_calls": "count",
    "tensor.boundary_product_check_calls": "count",
    "equiv.corollary_b_pipeline_s": "s",
    "equiv.corollary_b_pipeline_self_s": "s",
    "equiv.compute_cn_s": "s",
    "equiv.compute_bn_s": "s",
    "equiv.support_ball_calls": "count",
    "cli.run_suite_calls": "count",
    "cli.run_suite_s": "s",
}


class _Run:
    """Samples and attempted/failed bookkeeping of one run.

    An operation fails when it raises or when any of its output checks
    is false; a failure is recorded and the run goes on, so it still
    reports.  Every sample is kept twice: as measured (``raw``) and
    scaled to the machine's nominal speed (``scaled``, reference.py).
    """

    def __init__(self, workload, tracer):
        self.workload = workload
        self.tracer = tracer
        self.scaler = Scaler()
        self.verify_s = None
        # setup: a list of samples; eval and latency: samples per part
        # and per point
        self.raw = {"setup_s": [], "eval_s": {}, "latency_s": {}}
        self.scaled = {"setup_s": [], "eval_s": {}, "latency_s": {}}
        self.part_rows = {}
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self._reference = {}

    def _record(self, op, checks):
        self.attempted += 1
        bad = sorted(k for k, ok in checks.items() if not ok)
        if bad:
            self.failed += 1
            self.failures.append(f"{op}: {', '.join(bad)}")

    def _op(self, op, label, fn, *args):
        if self.tracer is None:
            return fn(*args)
        return self.tracer.call(op, label, fn, *args)

    def _attempt(self, op, label, kind, fn, *args, repeats=1):
        """(seconds, scaled seconds, result) of one operation, or three
        Nones when it raised."""
        try:
            return self.scaler.time(kind, self._op, op, label, fn, *args,
                                    repeats=repeats)
        except Exception:  # noqa: BLE001 - reported as a failed operation
            self.scaler.reset()
            self._record(op, {traceback.format_exc(): False})
            return None, None, None

    def _add(self, key, index, raw, scaled):
        for store, value in ((self.raw, raw), (self.scaled, scaled)):
            if index is None:
                store[key].append(value)
            else:
                store[key].setdefault(index, []).append(value)

    def _repeatable(self, key, nets, values):
        """The same inputs on the same spec must give the same bits."""
        ref_nets, ref_values = self._reference.setdefault(key,
                                                          (nets, values))
        return ref_nets == nets and all(
            (a == b).all() for a, b in zip(ref_values, values))

    def verify(self):
        t0 = time.perf_counter()
        try:
            checks = self._op("verify", "op.verify", self.workload.verify)
        except Exception:  # noqa: BLE001 - reported as a failed operation
            checks = {traceback.format_exc(): False}
        self.verify_s = time.perf_counter() - t0
        self._record("verify", checks)
        self.scaler.reset()

    def round(self, n):
        """A setup sample, then every part of the batch and every latency
        point on its specs, each timed on its own."""
        w = self.workload

        def setups():
            for _ in range(w.setup_repeats):
                specs = w.setup()
            return specs

        raw, scaled, specs = self._attempt(f"setup#{n}", "op.setup",
                                           "interp", setups, repeats=8)
        if specs is None:
            return
        self._add("setup_s", None, raw / w.setup_repeats,
                  scaled / w.setup_repeats)
        nets = [len(s.net) for s in specs]
        self._record(f"setup#{n}", {"built": all(nets)})
        for part in range(len(w.parts)):
            op = f"eval#{n}.{part + 1}"
            raw, scaled, values = self._attempt(op, "op.eval", "array",
                                                w.evaluate, specs, part)
            if values is None:
                continue
            self._add("eval_s", part, raw, scaled)
            self.part_rows[part] = sum(len(v) for v in values)
            checks = w.eval_checks(part, values)
            checks["repeatable"] = self._repeatable(part, nets, values)
            self._record(op, checks)
        for k in range(w.latency_repeats):
            for point in range(len(w.points)):
                op = f"latency#{n}.{k + 1}.{point + 1}"
                raw, scaled, value = self._attempt(
                    op, "op.latency", "interp", w.latency, specs, point)
                if value is None:
                    continue
                self._add("latency_s", point, raw, scaled)
                self._record(op, {
                    "window": w.latency_check(point, value),
                    "repeatable": self._repeatable(
                        ("latency", point), nets, [np.array(value)])})

    def metrics(self, samples):
        """The timed end-to-end metrics from raw or scaled samples."""
        eval_s = sum(statistics.median(v) for v in samples["eval_s"].values())
        latency = [statistics.median(v)
                   for v in samples["latency_s"].values()]
        return {"setup_s": statistics.median(samples["setup_s"] or [0.0]),
                "eval_rows_per_s": (sum(self.part_rows.values()) / eval_s
                                    if eval_s else 0.0),
                "norm_latency_ms": 1000.0 * statistics.fmean(latency or
                                                             [0.0])}


def environment() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            # pinned by run.py before numpy loads
            "threads": {k: v for k, v in sorted(os.environ.items())
                        if k.endswith("_NUM_THREADS")},
            "loadavg_before": os.getloadavg()}


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0   # ru_maxrss is in KiB on Linux


def _layer_metrics(tracer: Tracer) -> dict:
    c = tracer.counters
    selfs = tracer.self_times()
    values = {name: c.get(name, 0.0) for name in PER_LAYER}
    members = c.get("boundary.members", 0.0)
    values["boundary.net_points_per_member"] = (
        c.get("boundary.net_points", 0.0) / members if members else 0.0)
    values["renorm.build_renorm_self_s"] = selfs.get(
        "renorm.build_renorm", 0.0)
    values["equiv.corollary_b_pipeline_self_s"] = selfs.get(
        "equiv.corollary_b_pipeline", 0.0)
    for unit in ("calls", "s"):
        values["cli.run_suite_" + unit] = sum(
            v for k, v in c.items()
            if k.startswith("cli.suite.") and k.endswith("_" + unit))
    return {name: int(round(v)) if PER_LAYER[name] == "count" else v
            for name, v in values.items()}


def run_workload(name, seed, seconds, trace, work: Path, root: Path,
                 size=FULL) -> dict:
    """One run; returns the full record (the printed result is in it)."""
    env = environment()
    tracer = Tracer() if trace else None
    ctx = Context(root, work, seed, size, tracer)
    workload = WORKLOADS[name](ctx)
    run = _Run(workload, tracer)
    clock = time.perf_counter
    rounds = 0
    last_round = 0.0
    if tracer is not None:
        tracer.install()
    try:
        start = clock()
        run.verify()
        while True:
            elapsed = clock() - start
            # a traced run does a fixed amount of work so that its
            # counters repeat exactly
            if rounds >= MIN_ROUNDS and (tracer is not None
                                         or elapsed + last_round > seconds):
                break
            rounds += 1
            t0 = clock()
            run.round(rounds)
            last_round = clock() - t0
    finally:
        if tracer is not None:
            tracer.restore()
    measured = clock() - start
    env["loadavg_after"] = os.getloadavg()

    e2e = {**run.metrics(run.scaled), "peak_rss_mb": peak_rss_mb()}
    speed = {kind: statistics.median(v)
             for kind, v in run.scaler.speed.items() if v}
    if tracer is None:
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in e2e.items()}
    else:
        metrics = {k: {"value": v, "unit": PER_LAYER[k]}
                   for k, v in _layer_metrics(tracer).items()}
    result = {"correct": run.failed == 0 and run.attempted > 0,
              "attempted": run.attempted, "failed": run.failed,
              "metrics": metrics}
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "rounds": rounds,
              "measured_s": measured, "environment": env,
              "inputs": ctx.inputs, "notes": ctx.notes,
              "failures": run.failures, "end_to_end": e2e,
              "unscaled": run.metrics(run.raw), "speed": speed,
              "verify_s": run.verify_s, "samples": run.raw,
              "scaled_samples": run.scaled, "result": result}
    if tracer is not None:
        record["counters"] = dict(sorted(tracer.counters.items()))
        record["self_s"] = dict(sorted(tracer.self_times().items()))
        record["spans"] = tracer.spans
        untraced = work / f"record_{name}_seed{seed}_trace0.json"
        if untraced.exists():
            base = json.loads(untraced.read_text())["end_to_end"]
            record["trace_overhead"] = {k: e2e[k] - base[k] for k in e2e}
    return record


def _print_record(record):
    print("environment: " + json.dumps(record["environment"]))
    print("inputs sha256: " + json.dumps(record["inputs"]))
    for key, note in record["notes"].items():
        print(f"{key}: {note}")
    for failure in record["failures"]:
        print("FAILED " + failure)
    if "self_s" in record:
        print("layer                                   total_s    self_s")
        totals = record["counters"]
        for label, self_s in record["self_s"].items():
            print(f"{label:38s} {totals.get(label + '_s', 0.0):9.4f} "
                  f"{self_s:9.4f}")
        for key, value in record.get("trace_overhead", {}).items():
            print(f"tracing overhead {key}: {value:+.4f}")
    print(f"verification: {record['verify_s']:.2f} s")
    print("machine speed (nominal = 1): " + json.dumps(record["speed"]))
    print("unscaled: " + json.dumps(record["unscaled"]))
    print(f"rounds: {record['rounds']}  measured: "
          f"{record['measured_s']:.2f} s")
    print(json.dumps(record["result"]))


def main(root: Path, argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="smoothnorm benchmark: one workload per run")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    work = Path(__file__).resolve().parent / ".work"
    record = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), work, root)
    path = work / (f"record_{args.workload}_seed{args.seed}"
                   f"_trace{args.trace}.json")
    path.write_text(json.dumps(record, indent=1))
    _print_record(record)
    return 0
