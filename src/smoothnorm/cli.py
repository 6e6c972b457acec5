"""Config-driven verification front end.

``smoothnorm run CONFIG`` loads a JSON config describing a model space,
a sphere decomposition, and verification budgets, executes the selected
suites, and writes one deterministic report plus plot-ready CSV tables
into the output directory.

Config file (a JSON object):
  space          {"kind": ..., parameters}; kinds: "sup_finite" and
                 "euclidean" (dim), "lorentz" and "lorentz_predual"
                 (weights), "lap" (sets, exponents, dim)
  epsilon        approximation parameter in (0, 1); required
  factor_space   "scalar" (default) or {"kind": "euclidean", "dim": k}
  decomposition  {"preset": "unit_vectors" | "per_direction"} or
                 {"pieces": [[[coords], ...], ...]} with an optional
                 "closure" list of {"piece", "member", "pieces"} entries
  seed           base seed (integer); --seed overrides; a seed is
                 required because every suite draws samples
  samples        per-suite budget overrides, keys as in _BUDGETS
  tolerances     tolerance overrides, keys as in _TOLERANCES
  suites         default suite selection, e.g. ["all"]
  smooth         {"point": [...], "direction": [...], "steps": [...]};
                 optional; defaults to the first ridge of sup_finite

An entry that none of these objects uses is a config error, at every
level, and so is a decomposition "preset" given with "pieces" or
"closure".

Report (``report.json``, keys sorted, no timestamps or filesystem
paths): config sha256, seed, space summary, epsilon, per-suite records
{status, passed, samples, measured, note}, and the overall pass flag.
Wall times are printed to stdout only, so identical (config, seed,
flags) runs produce byte-identical report files.

Tables: the approx suite writes ``approx_samples.csv`` (sample id,
input coordinates, base norm, phi-norm, ratio); the smooth suite writes
``smooth_finite_differences.csv`` (norm, point, direction, step, first
and second central difference).  Tables appear only for suites that ran.

Exit codes: 0 when every selected suite passed (skipped counts as
passed), 1 when at least one suite failed (the report is still
written), 2 for config or usage errors.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .boundary import (Decomposition, check_boundary,
                       check_lrc_criterion, net_property_report)
from .equiv import corollary_b_pipeline
from .errors import ConstructionError, NumericError, ParameterError
from .renorm import (_check_steps, _sphere_samples, build_renorm, phi_norm,
                     phi_norm_batch, pi_coords_batch, smoothness_check)
from .spaces import (EuclideanSpace, LapSpace, LorentzPredualSpace,
                     LorentzSpace, SupSpace)
from .tensor import (TensorElement, apply_fY, apply_gX,
                     boundary_product_check, injective_norm, tensor_apply)
from .verify import (CLAIM_TOL, RATIO_SLACK, ApproxWindow, active_sets,
                     approx_window, claim2d_sweep, inactive_violations)

SUITES = ("approx", "claim1", "claim2d", "localdep", "smooth",
          "boundary", "tensor", "equiv")

_BUDGETS = {"approx": 400, "claim1": 400, "claim2d": 2000,
            "localdep": 60, "boundary": 300, "tensor": 200,
            "equiv": 128, "build": 512}

# the config's space kinds, each built by keyword from its parameters
_KINDS = {"sup_finite": SupSpace, "euclidean": EuclideanSpace,
          "lorentz": LorentzSpace, "lorentz_predual": LorentzPredualSpace,
          "lap": LapSpace}

_TOLERANCES = {"ratio_slack": RATIO_SLACK, "claim2d_excess": CLAIM_TOL,
               "richardson": 1e-5, "boundary": 1e-9,
               "tensor_identity": 1e-12, "equiv_identity": 1e-9}

# chunk count is fixed so reports do not depend on --parallel
_CHUNKS = 8
_PERTURBATIONS = 20
_NO_WINDOW = "matrix base norms need an enumerable dual ball"


class ConfigError(ValueError):
    """Unusable config file or flags; maps to exit code 2."""


# -- config loading ------------------------------------------------------


def _check_keys(what, spec, known):
    """ConfigError naming every entry of spec outside known."""
    unknown = set(spec) - set(known)
    if unknown:
        raise ConfigError(f"unknown {what} entries: {sorted(unknown)}")


def _build_space(spec, what="space", kinds=_KINDS):
    """The kinds[spec["kind"]] space, built from the other entries by
    keyword, so a missing or unused entry is a ConfigError naming it
    (the constructor's TypeError names it)."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"{what} must be an object with a 'kind'")
    params = dict(spec)
    kind = params.pop("kind")
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigError(
            f"unknown {what} kind {kind!r}; known: {sorted(kinds)}")
    try:
        return kinds[kind](**params)
    except (ParameterError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad {what} {kind!r} parameters: {exc}")


def _build_factor(spec):
    if spec in (None, "scalar"):
        return None
    return _build_space(spec, "factor_space", {"euclidean": EuclideanSpace})


def _build_decomposition(space, spec, epsilon):
    if not isinstance(spec, dict):
        raise ConfigError("decomposition must be an object")
    _check_keys("decomposition", spec, ("preset", "pieces", "closure"))
    closure = None
    preset = spec.get("preset")
    if preset is not None:
        if "pieces" in spec or "closure" in spec:
            raise ConfigError("a decomposition 'preset' takes no "
                              "'pieces' or 'closure'")
        eye = np.eye(space.dim)
        if preset == "unit_vectors":
            pieces = [np.vstack([eye, -eye])]
        elif preset == "per_direction":
            pieces = [np.vstack([eye[i], -eye[i]])
                      for i in range(space.dim)]
        else:
            raise ConfigError(f"unknown decomposition preset {preset!r}")
    elif "pieces" in spec:
        try:
            pieces = [np.asarray(p, dtype=float) for p in spec["pieces"]]
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad decomposition pieces: {exc}")
        if "closure" in spec:
            closure = {}
            try:
                for e in spec["closure"]:
                    _check_keys("closure", e, ("piece", "member", "pieces"))
                    closure[(int(e["piece"]), int(e["member"]))] = [
                        int(i) for i in e["pieces"]]
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"bad closure entry: {exc}")
    else:
        raise ConfigError("decomposition needs a 'preset' or 'pieces'")
    try:
        return Decomposition(space, pieces, epsilon, closure=closure)
    except (ParameterError, ConstructionError) as exc:
        raise ConfigError(f"bad decomposition: {exc}")


def _tol_value(key, value):
    if key not in _TOLERANCES:
        raise ConfigError(
            f"unknown tolerance {key!r}; known: {sorted(_TOLERANCES)}")
    try:
        out = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"tolerance {key!r} must be a number")
    if not out >= 0.0:
        raise ConfigError(f"tolerance {key!r} must be >= 0")
    return out


def _resolve_suites(names):
    out = []
    for name in names:
        if name == "all":
            out.extend(SUITES)
        elif name in SUITES:
            out.append(name)
        else:
            raise ConfigError(
                f"unknown suite {name!r}; known: all, {', '.join(SUITES)}")
    # stable dedupe, then the fixed execution order
    seen = list(dict.fromkeys(out))
    return tuple(sorted(seen, key=SUITES.index))


def _parse_smooth(spec, dim):
    if not isinstance(spec, dict):
        raise ConfigError("smooth must be an object")
    _check_keys("smooth", spec, ("point", "direction", "steps"))
    try:
        point = [float(v) for v in spec["point"]]
        direction = [float(v) for v in spec["direction"]]
        steps = [float(v) for v in spec["steps"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(
            f"smooth needs numeric point/direction/steps lists: {exc}")
    if len(point) != dim or len(direction) != dim:
        raise ConfigError("smooth point/direction must match the space dim")
    if not (np.all(np.isfinite(point + direction)) and any(point)
            and any(direction)):
        raise ConfigError("smooth point/direction must be finite, nonzero")
    try:
        steps = _check_steps(steps, np.asarray(point), [direction])
    except ParameterError as exc:
        raise ConfigError(f"smooth {exc}")
    return {"point": point, "direction": direction, "steps": steps}


@dataclass(frozen=True)
class RunConfig:
    """Parsed config with module-level objects already constructed."""

    space: object
    factor: object
    epsilon: float
    decomposition: object
    seed: int | None
    budgets: dict
    tolerances: dict
    suites: tuple
    smooth: dict | None
    sha256: str


def load_config(path) -> RunConfig:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    try:
        data = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    known = {"space", "epsilon", "factor_space", "decomposition", "seed",
             "samples", "tolerances", "suites", "smooth"}
    _check_keys("config", data, known)
    if "space" not in data:
        raise ConfigError("config needs a 'space' section")
    space = _build_space(data["space"])
    if "epsilon" not in data:
        raise ConfigError("config needs an epsilon")
    try:
        epsilon = float(data["epsilon"])
    except (TypeError, ValueError):
        raise ConfigError("epsilon must be a number")
    factor = _build_factor(data.get("factor_space", "scalar"))
    if "decomposition" not in data:
        raise ConfigError("config needs a 'decomposition' section")
    decomposition = _build_decomposition(
        space, data["decomposition"], epsilon)

    seed = data.get("seed")
    if seed is not None and (isinstance(seed, bool)
                             or not isinstance(seed, int)):
        raise ConfigError("seed must be an integer")

    budgets = dict(_BUDGETS)
    for key, value in (data.get("samples") or {}).items():
        if key not in _BUDGETS:
            raise ConfigError(
                f"unknown sample budget {key!r}; known: {sorted(_BUDGETS)}")
        if isinstance(value, bool) or not isinstance(value, int) \
                or value <= 0:
            raise ConfigError(
                f"sample budget {key!r} must be a positive integer")
        budgets[key] = value

    tolerances = dict(_TOLERANCES)
    for key, value in (data.get("tolerances") or {}).items():
        tolerances[key] = _tol_value(key, value)

    suites = _resolve_suites(data.get("suites") or ["all"])
    smooth = data.get("smooth")
    if smooth is not None:
        smooth = _parse_smooth(smooth, space.dim)
    return RunConfig(space=space, factor=factor, epsilon=epsilon,
                     decomposition=decomposition, seed=seed,
                     budgets=budgets, tolerances=tolerances, suites=suites,
                     smooth=smooth,
                     sha256=hashlib.sha256(raw).hexdigest())


# -- run state -----------------------------------------------------------


class RunContext:
    """Resolved run state shared by the suites.

    The approximating norm is built once, lazily; a build failure is
    replayed to every suite that needs it.
    """

    def __init__(self, cfg: RunConfig, seed, parallel, out_dir):
        self.cfg = cfg
        self.space = cfg.space
        self.Y = cfg.factor
        self.eps = cfg.epsilon
        self.seed = int(seed)
        self.parallel = int(parallel)
        self.out_dir = Path(out_dir)
        self.tol = cfg.tolerances
        self.budgets = cfg.budgets
        # fixed spawn positions keep each suite's draws independent of
        # which other suites were selected
        root = np.random.SeedSequence(self.seed)
        self._children = dict(zip(SUITES, root.spawn(len(SUITES))))
        self._spec = None
        self._spec_error = None

    def child(self, suite):
        return self._children[suite]

    def phi_spec(self):
        if self._spec_error is not None:
            raise self._spec_error
        if self._spec is None:
            try:
                self._spec = build_renorm(
                    self.space, self.cfg.decomposition, self.Y,
                    budget=self.budgets["build"], seed=self.seed,
                    boundary_tol=self.tol["boundary"])
            except (ParameterError, ConstructionError,
                    NumericError) as exc:
                self._spec_error = exc
                raise
        return self._spec

    def map_chunks(self, fn, chunks):
        if self.parallel <= 1:
            return [fn(c) for c in chunks]
        with ThreadPoolExecutor(max_workers=self.parallel) as pool:
            return list(pool.map(fn, chunks))


def _seed_int(ss):
    return int(ss.generate_state(1)[0])


def _chunk_sizes(total):
    base, extra = divmod(total, _CHUNKS)
    return [base + (1 if i < extra else 0) for i in range(_CHUNKS)]


def _window_samples(ctx, suite):
    """The approx window on the suite's budget of gaussian samples, or
    None; fixed chunks and seeds make it independent of --parallel."""
    spec = ctx.phi_spec()

    def run_chunk(arg):
        rows = np.random.default_rng(arg[0]).standard_normal(
            (arg[1], *spec.sample_shape))
        return approx_window(spec, rows, ctx.tol["ratio_slack"])

    parts = ctx.map_chunks(run_chunk, list(zip(
        ctx.child(suite).spawn(_CHUNKS), _chunk_sizes(ctx.budgets[suite]))))
    return (None if parts[0] is None
            else ApproxWindow(*map(np.concatenate, zip(*parts))))


# -- report plumbing -----------------------------------------------------


class _Table(NamedTuple):
    name: str
    header: list
    rows: list


def _py(value):
    """Recursively convert numpy payloads for JSON output."""
    if isinstance(value, dict):
        return {k: _py(v) for k, v in value.items()}
    if isinstance(value, np.ndarray):
        return _py(value.tolist())
    if isinstance(value, (list, tuple)):
        return [_py(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    return value


def _record(status, samples, measured, note=""):
    return {"status": status, "passed": status != "failed",
            "samples": int(samples), "measured": _py(measured),
            "note": note}


def _cell(value):
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _join(vec):
    return ";".join(repr(float(v)) for v in vec)


# -- suites --------------------------------------------------------------


def _suite_approx(ctx):
    win = _window_samples(ctx, "approx")
    if win is None:
        return _record("skipped", 0, {}, _NO_WINDOW), []
    rows = win.samples.reshape(len(win.base), -1)
    ratio = win.phi / win.base
    measured = {"min_ratio": np.min(ratio), "max_ratio": np.max(ratio),
                "min_rel_gap": np.min(win.gap), "upper_bound": 1.0 + ctx.eps,
                "ratio_slack": ctx.tol["ratio_slack"],
                "violations": win.violations}
    header = (["sample_id"] + [f"x{i}" for i in range(rows.shape[1])]
              + ["base_norm", "phi_norm", "ratio"])
    table = _Table("approx_samples.csv", header,
                   [[i, *rows[i], win.base[i], win.phi[i], ratio[i]]
                    for i in range(len(rows))])
    status = "passed" if win.violations == 0 else "failed"
    return _record(status, len(rows), measured), [table]


def _suite_claim1(ctx):
    win = _window_samples(ctx, "claim1")
    if win is None:
        return _record("skipped", 0, {}, _NO_WINDOW), []
    below = int(np.count_nonzero(win.gap <= 0.0))
    measured = {"min_gap": np.min(win.gap), "max_gap": np.max(win.gap),
                "violations": below}
    return _record("passed" if below == 0 else "failed", len(win.gap),
                   measured), []


def _suite_claim2d(ctx):
    spec = ctx.phi_spec()
    tol = ctx.tol["claim2d_excess"]
    sweep = claim2d_sweep(spec, ctx.budgets["claim2d"],
                          seed=ctx.child("claim2d"), tol=tol)
    measured = {"net_points": len(spec.net), "pool_size": sweep.pool_size,
                "worst_excess": sweep.worst_excess, "excess_tol": tol}
    return _record("passed" if sweep.ok else "failed",
                   sweep.pool_size, measured), []


def _suite_localdep(ctx):
    spec = ctx.phi_spec()
    ss_points, ss_moves = ctx.child("localdep").spawn(2)
    margins = active_sets(spec, ctx.budgets["localdep"], seed=ss_points)
    rng = np.random.default_rng(ss_moves)
    inactive_checked = violations = 0
    for u, act in zip(margins.points, margins.sets):
        if act.margin <= 0.0:
            violations += 1
            continue
        outside = np.setdiff1d(np.arange(len(spec.net)), act.indices)
        if not outside.size:
            continue
        moves = rng.standard_normal((_PERTURBATIONS, *u.shape))
        # phi >= base norm, so a phi-scaled step stays inside the
        # certified radius for the base-norm Lipschitz bound
        scale = phi_norm_batch(spec, moves)
        moves = moves[scale > 0.0]
        scale = scale[scale > 0.0]
        shape = (-1,) + (1,) * u.ndim
        probes = u + moves * (0.9 * act.radius / scale).reshape(shape)
        violations += inactive_violations(
            spec, pi_coords_batch(spec, probes), phi_norm_batch(spec, probes),
            outside)
        inactive_checked += len(probes) * len(outside)
    points = len(margins.sets)
    measured = {"points": points,
                "perturbations_per_point": _PERTURBATIONS,
                "min_margin": margins.min_margin,
                "inactive_checked": inactive_checked,
                "violations": violations}
    ok = violations == 0 and margins.min_margin > 0.0 and points > 0
    return _record("passed" if ok else "failed", points, measured), []


def _suite_smooth(ctx):
    if ctx.Y is not None:
        return _record("skipped", 0, {},
                       "ridge probes are defined for the scalar factor"), []
    probe = ctx.cfg.smooth
    if probe is None:
        if isinstance(ctx.space, SupSpace) and ctx.space.dim >= 2:
            point = np.zeros(ctx.space.dim)
            point[:2] = 1.0
            direction = np.zeros(ctx.space.dim)
            direction[0], direction[1] = 1.0, -1.0
            steps = [1e-3, 1e-4]
        else:
            return _record("skipped", 0, {},
                           "no ridge probe configured for this space"), []
    else:
        point = np.asarray(probe["point"])
        direction = np.asarray(probe["direction"])
        steps = probe["steps"]
    spec = ctx.phi_spec()
    base_rep = smoothness_check(ctx.space.norm, point, [direction], steps)
    # tighter root-finding keeps second differences above the noise
    phi_rep = smoothness_check(lambda v: phi_norm(spec, v, tol=1e-13),
                               point, [direction], steps)
    rich_tol = ctx.tol["richardson"]
    b, p = base_rep.records[0], phi_rep.records[0]
    ok = b.kink and not p.kink and p.richardson <= rich_tol
    measured = {"base_kink": b.kink, "phi_kink": p.kink,
                "base_slope": b.slope, "phi_slope": p.slope,
                "phi_richardson": p.richardson,
                "richardson_tol": rich_tol, "steps": list(steps)}
    rows = []
    for label, rep in (("base", b), ("phi", p)):
        for h, d1, d2 in zip(rep.steps, rep.first_diffs, rep.second_diffs):
            rows.append([label, _join(point), _join(direction), h, d1, d2])
    table = _Table("smooth_finite_differences.csv",
                   ["norm", "point", "direction", "step",
                    "first_difference", "second_difference"], rows)
    return _record("passed" if ok else "failed", len(steps),
                   measured), [table]


def _suite_boundary(ctx):
    d = ctx.cfg.decomposition
    spec = ctx.phi_spec()
    samples = _sphere_samples(ctx.space, ctx.budgets["boundary"],
                              ctx.child("boundary"))
    rep = check_boundary(ctx.space, d.members, samples,
                         tol=ctx.tol["boundary"])
    net_rep = net_property_report(d, spec.net)
    lrc = [check_lrc_criterion(p) for p in d.pieces]
    ok = rep.passed and net_rep.passed and all(r.passed for r in lrc)
    measured = {"min_sup": np.min(rep.max_values),
                "boundary_tol": ctx.tol["boundary"],
                "net_checked": net_rep.checked,
                "net_max_distance_excess": net_rep.max_distance_excess,
                "net_max_psi_excess": net_rep.max_psi_excess,
                "lrc_cardinalities": [list(r.cardinalities) for r in lrc],
                "lrc_passed": all(r.passed for r in lrc)}
    return _record("passed" if ok else "failed", len(samples),
                   measured), []


def _suite_tensor(ctx):
    if ctx.Y is None:
        return _record("skipped", 0, {},
                       "factor space is scalar; rank-one pairings need "
                       "a nontrivial factor"), []
    X, Y = ctx.space, ctx.Y
    tol = ctx.tol["tensor_identity"]
    count = ctx.budgets["tensor"]
    rng = np.random.default_rng(ctx.child("tensor"))
    id_dev = 0.0
    for _ in range(count):
        u = TensorElement(rng.standard_normal((X.dim, Y.dim)), X, Y)
        f = rng.standard_normal(X.dim)
        g = rng.standard_normal(Y.dim)
        v1 = tensor_apply(f, g, u)
        v2 = float(apply_fY(f, u) @ g)
        v3 = float(apply_gX(g, u) @ f)
        id_dev = max(id_dev, abs(v1 - v2), abs(v1 - v3))
    measured = {"identity_max_dev": id_dev, "identity_tol": tol}
    ok = id_dev <= tol
    if X.enumerable_dual:
        # rank-one witnesses: the attaining g is the normalized row image
        F = X.dual_extreme_points()
        gs, units = [], []
        for _ in range(min(count, 16)):
            x = rng.standard_normal(X.dim)
            y = rng.standard_normal(Y.dim)
            M = np.outer(x, y)
            res = injective_norm(TensorElement(M, X, Y))
            if res.value <= 1e-12:
                continue
            gs.append(res.pair.g)
            units.append(TensorElement(M / res.value, X, Y))
        prep = boundary_product_check(F, np.asarray(gs), units,
                                      tol=1e-9)
        measured["product_attained"] = prep.passed
        measured["product_max_deficit"] = prep.max_deficit
        ok = ok and prep.passed
    return _record("passed" if ok else "failed", count, measured), []


def _suite_equiv(ctx):
    ss_samples, ss_pipeline = ctx.child("equiv").spawn(2)
    rng = np.random.default_rng(ss_samples)
    samples = rng.standard_normal((ctx.budgets["equiv"], ctx.space.dim))
    result = corollary_b_pipeline(
        ctx.space, samples, ctx.eps, Y=ctx.Y,
        seed=_seed_int(ss_pipeline),
        identity_tol=ctx.tol["equiv_identity"])
    rep = result.report
    measured = {"route": result.route,
                "level_ids": list(result.chain.level_ids),
                "b_values": result.chain.b_values,
                "c_values": result.chain.c_values,
                "bc_gap": rep.bc_gap,
                "net_points": len(result.phi_spec.net),
                "min_rel_gap": rep.min_rel_gap,
                "claim2d_worst_excess": rep.claim2d_worst_excess}
    if result.boundary_norm is not None:
        measured["a_values"] = result.boundary_norm.a_values
        measured["ratio_range"] = list(result.boundary_norm.ratio_range)
    return _record("passed" if result.passed else "failed",
                   len(samples), measured), []


_SUITE_FNS = {"approx": _suite_approx, "claim1": _suite_claim1,
              "claim2d": _suite_claim2d, "localdep": _suite_localdep,
              "smooth": _suite_smooth, "boundary": _suite_boundary,
              "tensor": _suite_tensor, "equiv": _suite_equiv}


def run_suite(name, ctx):
    """One suite record plus its tables; module errors fail the suite."""
    try:
        return _SUITE_FNS[name](ctx)
    except (ParameterError, ConstructionError, NumericError) as exc:
        return _record("failed", 0, {}, f"error: {exc}"), []


# -- output --------------------------------------------------------------


def _write_tables(out_dir, tables):
    for t in tables:
        with (out_dir / t.name).open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(t.header)
            for row in t.rows:
                writer.writerow([_cell(v) for v in row])


def _write_report(ctx, records):
    factor = ("scalar" if ctx.Y is None
              else {"kind": "euclidean", "dim": ctx.Y.dim})
    report = {"config_sha256": ctx.cfg.sha256,
              "epsilon": ctx.eps,
              "factor_space": factor,
              "seed": ctx.seed,
              "space": {"kind": ctx.space.kind, "dim": ctx.space.dim},
              "suites": records,
              "passed": all(r["passed"] for r in records.values()),
              "version": __version__}
    text = json.dumps(_py(report), indent=2, sort_keys=True) + "\n"
    (ctx.out_dir / "report.json").write_text(text)
    return report


# -- entry point ---------------------------------------------------------


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="smoothnorm",
        description="Build and verify smooth approximating norms from "
                    "a config file.")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run verification suites")
    run.add_argument("config", help="path to a JSON config file")
    run.add_argument("--suite", action="append", default=None,
                     help="suite to run (repeatable); default: the "
                          "config 'suites' entry, else all")
    run.add_argument("--seed", type=int, default=None,
                     help="override the config seed")
    run.add_argument("--parallel", type=int, default=1,
                     help="worker threads for sample evaluation")
    run.add_argument("--tol", action="append", default=[],
                     metavar="KEY=VALUE",
                     help="tolerance override (repeatable)")
    run.add_argument("--out", default="out", help="output directory")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        suites = _resolve_suites(args.suite) if args.suite else cfg.suites
        seed = args.seed if args.seed is not None else cfg.seed
        if seed is None:
            raise ConfigError("a seed is required: set 'seed' in the "
                              "config or pass --seed")
        if args.parallel < 1:
            raise ConfigError("--parallel must be >= 1")
        overrides = {}
        for item in args.tol:
            key, sep, value = item.partition("=")
            if not sep:
                raise ConfigError(f"--tol expects KEY=VALUE, got {item!r}")
            overrides[key] = _tol_value(key, value)
        if overrides:
            cfg = replace(cfg,
                          tolerances={**cfg.tolerances, **overrides})
        ctx = RunContext(cfg, seed, args.parallel, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    ctx.out_dir.mkdir(parents=True, exist_ok=True)
    records = {}
    tables = []
    for name in suites:
        start = time.perf_counter()
        record, suite_tables = run_suite(name, ctx)
        elapsed = time.perf_counter() - start
        records[name] = record
        tables.extend(suite_tables)
        print(f"[{name}] {record['status']} in {elapsed:.2f} s")
    _write_tables(ctx.out_dir, tables)
    report = _write_report(ctx, records)
    print(f"report: {ctx.out_dir / 'report.json'}")
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
