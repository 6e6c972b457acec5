"""The two benchmark workloads: inputs, operations and output checks.

Each workload makes its inputs from the seed, then offers these
operations to the closed loop in ``harness.py``:

* ``verify()`` once per run: the user-facing verification through the
  CLI, returning its checks;
* ``setup()`` ``setup_repeats`` times per round, timed as one sample:
  inputs to ready ``PhiNormSpec`` objects;
* ``evaluate(specs, part)`` once per part of the evaluation batch per
  round: ``phi_norm_batch`` on that part;
* ``latency(specs, point)`` ``latency_repeats`` times per point per
  round: ``phi_norm`` on one of a few fixed points.

Every operation has output checks; a failed check marks the operation
failed.  Why each workload exists is written in README.md.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
# Library functions are looked up on their modules at call time, so that
# the tracer's wrappers are the ones called.
from smoothnorm import cli, renorm

BENCH_DIR = Path(__file__).resolve().parent
EPSILON = 0.1
# sha256 of report.json for configs/demo_sup3.cfg as shipped (ROADMAP)
DEMO_REPORT_SHA256 = "fcfd4226"
CHILD_TIMEOUT_S = 150


@dataclass(frozen=True)
class Size:
    """Input sizes; FULL is what the benchmark measures."""

    predual_dim: int = 7
    # trimmed from the CLI defaults to fit a run; the decomposition
    # still holds every dual extreme point
    predual_samples: dict = field(default_factory=lambda: {
        "approx": 50, "claim1": 50, "claim2d": 200, "localdep": 6})
    euclid_samples: dict = field(default_factory=lambda: {
        "approx": 100, "claim1": 100, "localdep": 20})
    # rows of the evaluation batch and of each of its parts; a part
    # takes tens of milliseconds
    predual_rows: int = 2048
    predual_part: int = 64
    small_rows: int = 16000
    small_part: int = 1000
    # points timed one phi_norm call at a time, in all
    latency_points: int = 32
    latency_repeats: int = 2
    # setups timed as one small_nets sample, about half a second
    small_setup_repeats: int = 40


FULL = Size()


def sha256_of(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write(path: Path, data: bytes) -> str:
    path.write_bytes(data)
    return sha256_of(data)


def predual_config(dim) -> dict:
    """lorentz_predual config whose pieces are the level increments of
    the dual ball: piece n-1 holds the 2^n * C(dim, n) extreme points
    with support size n, each signed 1/W_n on its support."""
    weights = [1.0 / math.sqrt(k + 1) for k in range(dim)]
    wsums = list(itertools.accumulate(weights))
    pieces = []
    for n in range(1, dim + 1):
        scale = 1.0 / wsums[n - 1]
        piece = []
        for combo in itertools.combinations(range(dim), n):
            for signs in itertools.product((1.0, -1.0), repeat=n):
                f = [0.0] * dim
                for i, s in zip(combo, signs):
                    f[i] = s * scale
                piece.append(f)
        pieces.append(piece)
    return {"space": {"kind": "lorentz_predual", "weights": weights},
            "epsilon": EPSILON, "factor_space": "scalar",
            "decomposition": {"pieces": pieces}, "suites": ["all"]}


def euclid_config() -> dict:
    """sup_finite(4) with a euclidean(3) factor and per-direction pieces."""
    return {"space": {"kind": "sup_finite", "dim": 4}, "epsilon": EPSILON,
            "factor_space": {"kind": "euclidean", "dim": 3},
            "decomposition": {"preset": "per_direction"}, "suites": ["all"]}


def _build_from_config(path, seed):
    """Config file to a ready PhiNormSpec, as the CLI's run context does."""
    cfg = cli.load_config(path)
    return renorm.build_renorm(cfg.space, cfg.decomposition, cfg.factor,
                               budget=cfg.budgets["build"], seed=seed)


def window_violations(phi, base) -> int:
    """Rows outside base < phi <= (1 + eps) * base * (1 + 1e-9)."""
    ok = (phi > base) & (phi <= (1.0 + EPSILON) * base * (1.0 + 1e-9))
    return int(np.count_nonzero(~ok))


class Context:
    """Run state shared by a workload's operations."""

    def __init__(self, root: Path, work: Path, seed: int, size: Size,
                 tracer=None):
        self.root = root
        self.work = work
        self.seed = int(seed)
        self.size = size
        self.tracer = tracer
        self.inputs = {}
        self.notes = {}
        work.mkdir(parents=True, exist_ok=True)

    def run_cli(self, config: Path, tag, seed=None):
        """``smoothnorm run CONFIG --suite all`` in a child process.

        Returns (exit code, parsed report or None, report sha256 or
        None).
        """
        out_dir = self.work / f"out_{tag}"
        shutil.rmtree(out_dir, ignore_errors=True)
        timing = self.work / f"child_{tag}.json"
        timing.unlink(missing_ok=True)
        cmd = [sys.executable, str(BENCH_DIR / "cli_child.py"),
               "--timing", str(timing)]
        if self.tracer is not None:
            cmd += ["--trace", "--op", self.tracer.op]
        cmd += ["--", "run", str(config), "--suite", "all",
                "--parallel", "1", "--out", str(out_dir)]
        if seed is not None:
            cmd += ["--seed", str(seed)]
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        proc = subprocess.run(cmd, env=env, cwd=self.root,
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        (self.work / f"child_{tag}.log").write_text(proc.stdout + proc.stderr)
        dump = json.loads(timing.read_text())
        if self.tracer is not None:
            self.tracer.merge(dump)
        report_path = out_dir / "report.json"
        report = digest = None
        if report_path.exists():
            raw = report_path.read_bytes()
            report, digest = json.loads(raw), sha256_of(raw)
        return proc.returncode, report, digest


def _split(array, part):
    return [array[i:i + part] for i in range(0, len(array), part)]


class Predual7:
    """lorentz_predual dim 7, all 2,186 dual extreme points in 7 pieces."""

    setup_repeats = 1

    def __init__(self, ctx: Context):
        self.ctx = ctx
        size = ctx.size
        dim = size.predual_dim
        cfg = predual_config(dim)
        members = sum(len(p) for p in cfg["decomposition"]["pieces"])
        if members != 3 ** dim - 1:
            raise RuntimeError(f"decomposition has {members} members")
        cfg["samples"] = dict(size.predual_samples)
        self.latency_repeats = size.latency_repeats
        self.config = ctx.work / "predual7.cfg"
        ctx.inputs["predual7.cfg"] = _write(
            self.config, json.dumps(cfg).encode())
        rng = np.random.default_rng(ctx.seed)
        batch = rng.standard_normal((size.predual_rows, dim))
        self.points = rng.standard_normal((size.latency_points, dim))
        ctx.inputs["predual7.batch"] = sha256_of(
            batch.tobytes() + self.points.tobytes())
        weights = np.cumsum(cfg["space"]["weights"])

        def base(rows):
            ranked = -np.sort(-np.abs(rows), axis=1)
            return np.max(np.cumsum(ranked, axis=1) / weights, axis=1)

        self.parts = _split(batch, size.predual_part)
        self.bases = [base(p) for p in self.parts]
        self.point_bases = base(self.points)

    def verify(self):
        rc, report, _ = self.ctx.run_cli(self.config, "predual7",
                                         seed=self.ctx.seed)
        return {"cli_exit_0": rc == 0,
                "report_passed": bool(report and report["passed"])}

    def setup(self):
        return [_build_from_config(self.config, self.ctx.seed)]

    def evaluate(self, specs, part):
        return [renorm.phi_norm_batch(specs[0], self.parts[part])]

    def eval_checks(self, part, values):
        return {"window": window_violations(values[0],
                                            self.bases[part]) == 0}

    def latency(self, specs, point):
        return renorm.phi_norm(specs[0], self.points[point])

    def latency_check(self, point, value):
        return window_violations(np.array([value]),
                                 self.point_bases[point:point + 1]) == 0


class SmallNets:
    """configs/demo_sup3.cfg as shipped plus sup_finite(4) x euclidean(3)."""

    def __init__(self, ctx: Context):
        self.ctx = ctx
        size = ctx.size
        self.setup_repeats = size.small_setup_repeats
        self.latency_repeats = size.latency_repeats
        self.demo = ctx.root / "configs" / "demo_sup3.cfg"
        ctx.inputs["demo_sup3.cfg"] = sha256_of(self.demo.read_bytes())
        cfg = euclid_config()
        cfg["samples"] = dict(size.euclid_samples)
        self.euclid = ctx.work / "sup4_euclid3.cfg"
        ctx.inputs["sup4_euclid3.cfg"] = _write(
            self.euclid, json.dumps(cfg).encode())
        rng = np.random.default_rng(ctx.seed)
        half = size.latency_points // 2
        rows = size.small_rows + half
        vectors = rng.standard_normal((rows, 3))
        matrices = rng.standard_normal((rows, 4, 3))
        ctx.inputs["small_nets.batch"] = sha256_of(
            vectors.tobytes() + matrices.tobytes())
        # sup_finite duals are +-e_i, so the injective norm is the
        # largest row 2-norm
        vector_base = np.max(np.abs(vectors), axis=1)
        matrix_base = np.max(np.linalg.norm(matrices, axis=2), axis=1)
        n = size.small_rows
        self.parts = list(zip(_split(vectors[:n], size.small_part),
                              _split(matrices[:n], size.small_part)))
        self.bases = list(zip(_split(vector_base[:n], size.small_part),
                              _split(matrix_base[:n], size.small_part)))
        # half of the points on each spec
        self.points = [(0, v) for v in vectors[n:]] + [
            (1, m) for m in matrices[n:]]
        self.point_bases = np.concatenate([vector_base[n:],
                                           matrix_base[n:]])

    def verify(self):
        rc_d, rep_d, digest = self.ctx.run_cli(self.demo, "demo_sup3")
        rc_e, rep_e, _ = self.ctx.run_cli(self.euclid, "sup4_euclid3",
                                          seed=self.ctx.seed)
        same = "same" if digest and digest.startswith(
            DEMO_REPORT_SHA256) else "differs"
        self.ctx.notes["demo_sup3 report sha256"] = (
            f"{digest} (ROADMAP digest {DEMO_REPORT_SHA256}...: {same})")
        return {
            "demo_cli_exit_0": rc_d == 0,
            "demo_report_passed": bool(rep_d and rep_d["passed"]),
            "euclid_cli_exit_0": rc_e == 0,
            "euclid_report_passed": bool(rep_e and rep_e["passed"])}

    def setup(self):
        return [_build_from_config(path, self.ctx.seed)
                for path in (self.demo, self.euclid)]

    def evaluate(self, specs, part):
        return [renorm.phi_norm_batch(spec, rows)
                for spec, rows in zip(specs, self.parts[part])]

    def eval_checks(self, part, values):
        return {"window": all(window_violations(v, b) == 0
                              for v, b in zip(values, self.bases[part]))}

    def latency(self, specs, point):
        spec, u = self.points[point]
        return renorm.phi_norm(specs[spec], u)

    def latency_check(self, point, value):
        return window_violations(np.array([value]),
                                 self.point_bases[point:point + 1]) == 0


WORKLOADS = {"predual7": Predual7, "small_nets": SmallNets}
