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
  seed           base seed (an integer >= 0); --seed overrides; a seed is
                 required because every suite draws samples
  samples        per-suite budget overrides (an object), keys as in _BUDGETS
  tolerances     tolerance overrides (an object), keys as in _TOLERANCES
  suites         default suite selection (a non-empty list), e.g. ["all"]
  smooth         {"point": [...], "direction": [...], "steps": [...]};
                 optional; defaults to the first ridge of sup_finite

An entry that none of these objects uses is a config error, at every
level, and so is a decomposition "preset" given with "pieces" or
"closure".  The samples budgets "build" and "boundary" are accepted and
unused: the build's boundary check and the boundary suite are exact.  A
number is a JSON number: a string or a boolean where a number, or an
array of numbers, is due is a config error too.

Report (``report.json``, keys sorted, no timestamps or filesystem
paths): config sha256, seed, space summary, epsilon, per-suite records
{status, passed, samples, measured, note}, and the overall pass flag;
the boundary suite's samples are the vertices renorm.check_vertices
counts.  Wall times are printed to stdout only, so identical (config,
seed, flags) runs produce byte-identical report files.

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
import itertools
import json
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .boundary import (Decomposition, check_lrc_criterion,
                       net_property_report)
from .equiv import corollary_b_pipeline
from .errors import ConstructionError, NumericError, ParameterError
from .renorm import (_check_steps, _draw, build_renorm, check_vertices,
                     phi_norm, smoothness_check)
from .spaces import (EuclideanSpace, LapSpace, LorentzPredualSpace,
                     LorentzSpace, SupSpace)
from .tensor import (TensorElement, apply_fY, apply_gX,
                     boundary_product_check, injective_norm, tensor_apply)
from .verify import (CLAIM_TOL, PERTURBATIONS, RATIO_SLACK, active_sets,
                     approx_window, claim2d_sweep)

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


class ConfigError(ValueError):
    """Unusable config file or flags; maps to exit code 2."""


# -- config loading ------------------------------------------------------


def _check_keys(what, spec, known):
    """ConfigError naming every entry of spec outside known."""
    unknown = set(spec) - set(known)
    if unknown:
        raise ConfigError(f"unknown {what} entries: {sorted(unknown)}")


def _number(value, what) -> float:
    """A JSON number as a float: float() would take "0.1" and true, and
    an integer beyond the float range raises OverflowError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{what} is an integer beyond the float range")


def _check_numbers(value, what):
    """ConfigError naming `what` unless value is a number in the float
    range or nested lists of them (one type scan a level): numpy reads
    [0, true] as [0, 1]."""
    level = [value]
    while level:
        types = set(map(type, level))
        if not types <= {int, float, list}:
            raise ConfigError(f"{what} must hold only numbers")
        if int in types:
            # the largest integer overflows if any does
            _number(max(abs(v) for v in level if type(v) is int),
                    f"an entry of {what}")
        level = list(itertools.chain.from_iterable(
            v for v in level if type(v) is list)) if list in types else []


def _build_space(spec, what="space", kinds=_KINDS):
    """The kinds[spec["kind"]] space, built from the other entries by
    keyword, so a missing or unused entry is a ConfigError naming it
    (the constructor's TypeError names it); a list entry must hold only
    numbers."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"{what} must be an object with a 'kind'")
    params = dict(spec)
    kind = params.pop("kind")
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigError(
            f"unknown {what} kind {kind!r}; known: {sorted(kinds)}")
    for key, value in params.items():
        if isinstance(value, list):
            _check_numbers(value, f"{what} {kind!r} parameter {key!r}")
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
        _check_numbers(spec["pieces"], "decomposition pieces")
        try:
            pieces = [np.asarray(p, dtype=float) for p in spec["pieces"]]
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad decomposition pieces: {exc}")
        if "closure" in spec:
            closure = {}
            try:
                for k, e in enumerate(spec["closure"]):
                    _check_keys("closure", e, ("piece", "member", "pieces"))
                    member = (e["piece"], e["member"])
                    if member in closure:
                        raise ValueError(f"entry {k} repeats member {member}")
                    closure[member] = list(e["pieces"])
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
    # an infinite tolerance would pass its check vacuously, and json
    # writes it into the report as Infinity, which is no JSON
    if not 0.0 <= out < np.inf:
        raise ConfigError(f"tolerance {key!r} must be finite and >= 0")
    # sup f(x) >= 0 at every x, so a boundary tolerance of 1 or more
    # would pass any set (build_renorm refuses it too)
    if key == "boundary" and out >= 1.0:
        raise ConfigError(f"tolerance 'boundary' must be below 1, got {out}")
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
        point, direction, steps = (
            [_number(v, f"smooth {key} entry") for v in spec[key]]
            for key in ("point", "direction", "steps"))
    except (KeyError, TypeError) as exc:
        raise ConfigError(
            f"smooth needs numeric point/direction/steps lists: {exc}")
    if len(point) != dim or len(direction) != dim:
        raise ConfigError("smooth point/direction must match the space dim")
    if not (np.all(np.isfinite(point + direction)) and any(point)
            and any(direction)):
        raise ConfigError("smooth point/direction must be finite, nonzero")
    try:
        steps = _check_steps(steps, np.asarray(point), np.asarray(direction))
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


def _section(data, key, default):
    """data[key], or default if it is absent; ConfigError unless it has
    default's type (a JSON object, or a non-empty list)."""
    value = data.get(key, default)
    if not isinstance(value, type(default)) or value == []:
        kind = "object" if isinstance(default, dict) else "non-empty list"
        raise ConfigError(f"{key} must be a JSON {kind}")
    return value


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
    epsilon = _number(data["epsilon"], "epsilon")
    factor = _build_factor(data.get("factor_space", "scalar"))
    if "decomposition" not in data:
        raise ConfigError("config needs a 'decomposition' section")
    decomposition = _build_decomposition(
        space, data["decomposition"], epsilon)

    seed = data.get("seed")
    if seed is not None and (isinstance(seed, bool)
                             or not isinstance(seed, int) or seed < 0):
        raise ConfigError("seed must be a nonnegative integer")

    budgets = dict(_BUDGETS)
    for key, value in _section(data, "samples", {}).items():
        if key not in _BUDGETS:
            raise ConfigError(
                f"unknown sample budget {key!r}; known: {sorted(_BUDGETS)}")
        if isinstance(value, bool) or not isinstance(value, int) \
                or value <= 0:
            raise ConfigError(
                f"sample budget {key!r} must be a positive integer")
        budgets[key] = value

    tolerances = dict(_TOLERANCES)
    for key, value in _section(data, "tolerances", {}).items():
        tolerances[key] = _tol_value(
            key, _number(value, f"tolerance {key!r}"))

    suites = _resolve_suites(_section(data, "suites", ["all"]))
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

    def __init__(self, cfg: RunConfig, seed, out_dir):
        self.cfg = cfg
        self.space = cfg.space
        self.Y = cfg.factor
        self.eps = cfg.epsilon
        self.seed = int(seed)
        self.out_dir = Path(out_dir)
        self.tol = cfg.tolerances
        self.budgets = cfg.budgets
        self._spec = None
        self._spec_error = None

    def child(self, suite):
        """The suite's seed: child i of SeedSequence(seed), i its place
        in SUITES, so its draws do not depend on which other suites were
        selected.  Each call builds it afresh, because spawning from a
        SeedSequence advances it, and a suite run twice must draw the
        same numbers."""
        return np.random.SeedSequence(self.seed,
                                      spawn_key=(SUITES.index(suite),))

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


def _window_samples(ctx, suite):
    """The approx window on the suite's budget of gaussian samples, drawn
    in one call from the suite's seed."""
    spec = ctx.phi_spec()
    rows = _draw(spec, ctx.budgets[suite], ctx.child(suite))
    return approx_window(spec, rows, ctx.tol["ratio_slack"])


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
    status = "passed" if win.passed else "failed"
    return _record(status, len(rows), measured), [table]


def _suite_claim1(ctx):
    win = _window_samples(ctx, "claim1")
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
    margins = active_sets(ctx.phi_spec(), ctx.budgets["localdep"],
                          seed=ctx.child("localdep"))
    points = len(margins.sets)
    measured = {"points": points,
                "perturbations_per_point": PERTURBATIONS,
                "min_margin": margins.min_margin,
                "inactive_checked": margins.inactive_checked,
                "violations": margins.violations}
    return _record("passed" if margins.passed else "failed", points,
                   measured), []


def _suite_smooth(ctx):
    if ctx.Y is not None:
        return _record("skipped", 0, {},
                       "ridge probes are defined for the scalar factor"), []
    probe = ctx.cfg.smooth
    if probe is None:
        if not (isinstance(ctx.space, SupSpace) and ctx.space.dim >= 2):
            return _record("skipped", 0, {},
                           "no ridge probe configured for this space"), []
        pad = np.zeros(ctx.space.dim - 2)
        probe = {"point": np.r_[1.0, 1.0, pad],
                 "direction": np.r_[1.0, -1.0, pad], "steps": [1e-3, 1e-4]}
    point, direction = (np.asarray(probe[k]) for k in ("point", "direction"))
    steps = probe["steps"]
    spec = ctx.phi_spec()
    b = smoothness_check(ctx.space.norm, point, direction, steps)
    p = smoothness_check(lambda v: phi_norm(spec, v), point, direction,
                         steps)
    rich_tol = ctx.tol["richardson"]
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
    vertices = check_vertices(ctx.space, d, ctx.tol["boundary"])
    net_rep = net_property_report(d, spec.net)
    lrc = [check_lrc_criterion(p) for p in d.pieces]
    ok = net_rep.passed and all(r.passed for r in lrc)
    measured = {"vertices": vertices,
                "boundary_tol": ctx.tol["boundary"],
                "net_checked": net_rep.checked,
                "net_max_distance_excess": net_rep.max_distance_excess,
                "net_max_psi_excess": net_rep.max_psi_excess,
                "lrc_cardinalities": [list(r.cardinalities) for r in lrc],
                "lrc_passed": all(r.passed for r in lrc)}
    return _record("passed" if ok else "failed", vertices, measured), []


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
    if X.lists_vertices:
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
            gs.append(res.g)
            units.append(TensorElement(M / res.value, X, Y))
        prep = boundary_product_check(F, np.asarray(gs), units,
                                      tol=1e-9)
        measured["product_attained"] = prep.passed
        measured["product_max_deficit"] = prep.max_deficit
        ok = ok and prep.passed
    return _record("passed" if ok else "failed", count, measured), []


def _equiv_pipeline(ctx):
    """corollary_b_pipeline on the equiv suite's inputs: its gaussian
    samples and the pipeline's seed, both spawned from the suite's."""
    ss_samples, ss_pipeline = ctx.child("equiv").spawn(2)
    rng = np.random.default_rng(ss_samples)
    samples = rng.standard_normal((ctx.budgets["equiv"], ctx.space.dim))
    return corollary_b_pipeline(
        ctx.space, samples, ctx.eps, Y=ctx.Y,
        seed=int(ss_pipeline.generate_state(1)[0]),
        identity_tol=ctx.tol["equiv_identity"])


def _suite_equiv(ctx):
    result = _equiv_pipeline(ctx)
    rep = result.report
    measured = {"route": result.route,
                "level_ids": list(result.chain.level_ids),
                "b_values": result.chain.b_values,
                "c_values": result.chain.c_values,
                "bc_gap": rep.bc_gap,
                "net_points": len(result.phi_spec.net),
                "min_rel_gap": np.min(rep.window.gap),
                "claim2d_worst_excess": rep.claim2d.worst_excess}
    if result.boundary_norm is not None:
        measured["a_values"] = result.boundary_norm.a_values
        measured["ratio_range"] = list(result.boundary_norm.ratio_range)
    return _record("passed" if result.passed else "failed",
                   len(result.chain.samples), measured), []


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
    # hidden; kept, as 1 only, for callers that still pass it
    run.add_argument("--parallel", type=int, default=1,
                     help=argparse.SUPPRESS)
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
        if seed < 0:
            raise ConfigError("--seed must be a nonnegative integer")
        if args.parallel != 1:
            raise ConfigError("--parallel takes only 1: the suites run "
                              "on one thread")
        overrides = {}
        for item in args.tol:
            key, sep, value = item.partition("=")
            if not sep:
                raise ConfigError(f"--tol expects KEY=VALUE, got {item!r}")
            overrides[key] = _tol_value(key, value)
        if overrides:
            cfg = replace(cfg,
                          tolerances={**cfg.tolerances, **overrides})
        ctx = RunContext(cfg, seed, args.out)
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
