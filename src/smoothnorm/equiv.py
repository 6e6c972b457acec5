"""Relative boundary chains and equivalent boundary-sup norms.

The renorm machinery needs a decomposition that norms the sphere.  Two
routes produce one here.  The direct route applies when every sphere
sample exhibits a norming support: the dual-ball slices by support
cardinality (support_ball) already form a boundary, and their level
increments feed build_renorm as pieces.  The chain route drops that
requirement: it measures the level constants

    b_n = inf over samples of sup over the slice of h(x)
    c_n = inf over samples of max over |sigma| = n of ||P_sigma x||

(equal by duality for monotone unconditional bases), rescales the level
increments by a decreasing a-sequence so every sample attains a finite
level, and takes the resulting symmetrized sup as a new equivalent norm
whose boundary the increments are by construction.  corollary_b_pipeline
runs either route end to end and verifies the built approximating norm.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .boundary import (Decomposition, _key, check_lrc_criterion,
                       net_property_report)
from .errors import ConstructionError, NumericError, ParameterError
from .renorm import (active_set, build_renorm, phi_norm_batch, phi_unit_pool,
                     verify_claim2d)
from .spaces import ModelSpace, find_norming_support, proj
from .tensor import TensorElement, injective_norm

__all__ = [
    "SupportBallSet",
    "RelativeBoundaryChain",
    "BoundaryNorm",
    "BoundaryNormSpace",
    "PipelineReport",
    "PipelineResult",
    "support_ball",
    "compute_bn",
    "compute_cn",
    "default_a_sequence",
    "build_F",
    "corollary_b_pipeline",
]

_EXHAUSTIVE_DIM = 12


@dataclass(frozen=True)
class SupportBallSet:
    """Finite picture of {h in the dual ball : |supp(h)| <= level}."""

    level: int
    functionals: np.ndarray
    exact: bool

    def __len__(self):
        return len(self.functionals)


def support_ball(space, n, resolution=64, seed=0, budget=200000):
    """Dual-ball slice by support cardinality.

    Exact extreme-point enumeration for kinds with an enumerable dual
    (sup_finite, lorentz_predual); anything else gets `resolution`
    dual-sphere samples per support, flagged approximate.  n = 0 is the
    zero functional alone.
    """
    n = int(n)
    if n < 0:
        raise ParameterError("support level must be >= 0")
    if n == 0:
        return SupportBallSet(0, np.zeros((1, space.dim)), True)
    cap = min(n, space.dim)
    if space.enumerable_dual:
        return SupportBallSet(n, space.dual_extreme_points(
            max_support=cap, budget=budget), True)
    if resolution < 1:
        raise ParameterError("resolution must be >= 1")
    combos = [c for k in range(1, cap + 1)
              for c in itertools.combinations(range(space.dim), k)]
    if len(combos) * resolution > budget:
        raise ParameterError(
            f"{len(combos) * resolution} sampled functionals exceed "
            f"budget {budget}")
    rng = np.random.default_rng(seed)
    rows = []
    for combo in combos:
        block = np.zeros((resolution, space.dim))
        block[:, combo] = rng.standard_normal((resolution, len(combo)))
        rows.append(block / space.dual_norm_rows(block)[:, None])
    return SupportBallSet(n, np.vstack(rows), False)


def compute_bn(h_set, samples) -> float:
    """inf over samples of sup over the functional set of h(x).

    Returns the raw measurement; zero (e.g. for the set {0}) is
    representable here and rejected later where positivity is actually
    required (build_F).
    """
    H = np.atleast_2d(np.asarray(getattr(h_set, "functionals", h_set),
                                 dtype=float))
    S = np.atleast_2d(np.asarray(samples, dtype=float))
    if S.size == 0:
        raise ParameterError("sample set is empty")
    if H.size == 0:
        raise ParameterError("functional set is empty")
    if H.shape[1] != S.shape[1]:
        raise ParameterError("functional and sample dims differ")
    return float(np.min(np.max(S @ H.T, axis=1)))


def _projection_sup(space, x, n):
    """max over |sigma| = n of ||P_sigma x|| and an argmax support.

    Exhaustive up to dim 12; beyond that the top-|x| support is used as
    a heuristic (tests keep a brute-force oracle on small dims).  Ties
    resolve to the lexicographically first support.
    """
    x = np.asarray(x, dtype=float)
    if n >= space.dim:
        return space.norm(x), tuple(range(space.dim))
    if space.dim <= _EXHAUSTIVE_DIM:
        sigmas = list(itertools.combinations(range(space.dim), n))
        mask = np.zeros((len(sigmas), space.dim), dtype=bool)
        for row, sigma in enumerate(sigmas):
            mask[row, sigma] = True
        vals = space.norm_rows(np.where(mask, x, 0.0))
        best = int(np.argmax(vals))  # the first maximum
        return float(vals[best]), sigmas[best]
    order = np.lexsort((np.arange(space.dim), -np.abs(x)))
    sigma = tuple(sorted(int(i) for i in order[:n]))
    return space.norm(proj(x, sigma, space.dim)), sigma


def compute_cn(space, samples, n, identity_tol=None) -> float:
    """inf over samples of max over |sigma| = n of ||P_sigma x||.

    With identity_tol set, also measures b_n on support_ball(space, n)
    and raises NumericError when the two disagree beyond the tolerance;
    that check needs a kind whose support balls are exact.
    """
    if not space.monotone_unconditional:
        raise ParameterError("c_n needs a monotone unconditional basis")
    S = np.atleast_2d(np.asarray(samples, dtype=float))
    if S.size == 0:
        raise ParameterError("sample set is empty")
    if S.shape[1] != space.dim:
        raise ParameterError("sample dim mismatch")
    n = int(n)
    if n < 0:
        raise ParameterError("support level must be >= 0")
    c = float(min(_projection_sup(space, x, n)[0] for x in S))
    if identity_tol is not None:
        ball = support_ball(space, n)
        if not ball.exact:
            raise ParameterError(
                f"the b_n = c_n check needs exact support balls, "
                f"kind {space.kind!r} has sampled ones")
        b = compute_bn(ball, S)
        if abs(b - c) > identity_tol:
            raise NumericError(
                f"b_{n} = {b} and c_{n} = {c} disagree beyond "
                f"{identity_tol}")
    return c


@dataclass(frozen=True)
class RelativeBoundaryChain:
    """Increasing dual-ball subsets with their measured level constants.

    h_sets are cumulative: position i holds every functional of level
    level_ids[i].  samples holds the per-level sphere sets the b and c
    values were measured on.  b = 0 is representable (build_F refuses
    it); monotonicity of b is validated only when all levels share one
    sample set, since differing samples break the comparison.
    """

    space: object
    h_sets: tuple
    samples: tuple
    level_ids: tuple
    b_values: np.ndarray
    c_values: np.ndarray | None = None
    exact: bool = True

    def __post_init__(self):
        object.__setattr__(self, "h_sets", tuple(
            np.atleast_2d(np.asarray(h, dtype=float)) for h in self.h_sets))
        object.__setattr__(self, "samples", tuple(
            np.atleast_2d(np.asarray(s, dtype=float)) for s in self.samples))
        object.__setattr__(self, "level_ids",
                           tuple(int(n) for n in self.level_ids))
        object.__setattr__(self, "b_values",
                           np.asarray(self.b_values, dtype=float))
        if self.c_values is not None:
            object.__setattr__(self, "c_values",
                               np.asarray(self.c_values, dtype=float))

        k = len(self.h_sets)
        if k == 0:
            raise ConstructionError("chain needs at least one level")
        if not (len(self.samples) == len(self.level_ids)
                == len(self.b_values) == k):
            raise ConstructionError("chain fields must have equal length")
        if self.c_values is not None and len(self.c_values) != k:
            raise ConstructionError("c_values length mismatch")
        if any(n2 <= n1 for n1, n2 in zip(self.level_ids,
                                          self.level_ids[1:])):
            raise ConstructionError("level ids must strictly increase")
        if any(s.size == 0 for s in self.samples):
            raise ConstructionError("every level needs samples")
        for i in range(k - 1):
            cur = {_key(f) for f in self.h_sets[i]}
            nxt = {_key(f) for f in self.h_sets[i + 1]}
            if not cur <= nxt:
                raise ConstructionError(
                    f"level {self.level_ids[i + 1]} does not contain "
                    f"level {self.level_ids[i]}")
        if np.any(self.b_values < -1e-12) or np.any(
                self.b_values > 1.0 + 1e-9):
            raise ConstructionError("b values must lie in [0, 1]")
        shared = all(s is self.samples[0]
                     or s.tobytes() == self.samples[0].tobytes()
                     for s in self.samples)
        if shared and np.any(np.diff(self.b_values) < -1e-12):
            raise ConstructionError(
                "b must be nondecreasing for a fixed sample set")

    def __len__(self):
        return len(self.h_sets)

    def new_members(self, i) -> np.ndarray:
        """Rows of h_sets[i] absent from the previous level."""
        cur = self.h_sets[i]
        if i == 0:
            return cur
        prev = {_key(f) for f in self.h_sets[i - 1]}
        keep = [j for j, f in enumerate(cur) if _key(f) not in prev]
        return cur[keep] if keep else cur[:0]


def default_a_sequence(level_ids, b_values) -> np.ndarray:
    """a_n = 1 + 2^(-n-1) + max over m >= n of (1 - b_m)/b_m.

    Strictly decreasing, always > 1, and a_n * b_n > 1 so the level-n
    term already beats the limiting sup for the level's own samples.
    """
    b = np.asarray(b_values, dtype=float)
    if np.any(b <= 0.0):
        raise ConstructionError("a-sequence needs strictly positive b")
    deficits = (1.0 - b) / b
    tail = np.maximum.accumulate(deficits[::-1])[::-1]
    ids = np.asarray(level_ids, dtype=float)
    return 1.0 + 2.0 ** (-(ids + 1.0)) + tail


@dataclass(frozen=True)
class BoundaryNorm:
    """F = union of a_n-scaled level increments, with the symmetrized
    sup |||x||| = max over F of |f(x)| and its measured equivalence.

    pieces keep only nonempty increments (level_ids names them);
    a_values stays aligned with the full chain.
    """

    pieces: tuple
    level_ids: tuple
    a_values: np.ndarray
    matrix: np.ndarray
    ratio_range: tuple
    expected_range: tuple
    equivalent: bool
    attained: bool
    lrc_reports: tuple

    def norm(self, x) -> float:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.matrix.shape[1],):
            raise ParameterError(
                f"expected vector of length {self.matrix.shape[1]}")
        return float(np.max(np.abs(self.matrix @ x)))

    def norm_batch(self, rows) -> np.ndarray:
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        return np.max(np.abs(rows @ self.matrix.T), axis=1)

    def symmetric_pieces(self):
        """Each piece with both signs present (deduplicated), the form
        a boundary decomposition of |||.||| wants."""
        out = []
        for P in self.pieces:
            seen, rows = set(), []
            for f in np.vstack([P, -P]):
                key = _key(f)
                if key not in seen:
                    seen.add(key)
                    rows.append(f)
            out.append(np.asarray(rows))
        return out


def build_F(chain: RelativeBoundaryChain, a_strategy="default",
            tol=1e-9) -> BoundaryNorm:
    """Scale the chain's level increments and measure the new norm.

    a_strategy: "default" (the decreasing sequence above), "ones",
    an explicit array, or a callable mapping b values to an array.
    """
    b = chain.b_values
    if np.any(b <= 0.0):
        bad = [int(n) for n, v in zip(chain.level_ids, b) if v <= 0.0]
        raise ConstructionError(
            f"b must be strictly positive, got b <= 0 at levels {bad}")
    if isinstance(a_strategy, str):
        if a_strategy == "default":
            a = default_a_sequence(chain.level_ids, b)
        elif a_strategy == "ones":
            a = np.ones(len(chain))
        else:
            raise ParameterError(f"unknown a_strategy {a_strategy!r}")
    elif callable(a_strategy):
        a = np.asarray(a_strategy(b), dtype=float)
    else:
        a = np.asarray(a_strategy, dtype=float)
    if a.shape != (len(chain),) or np.any(a <= 0.0):
        raise ParameterError("need one positive coefficient per level")

    pieces, ids, lrc = [], [], []
    for i, n in enumerate(chain.level_ids):
        new = chain.new_members(i)
        if len(new) == 0:
            continue
        piece = a[i] * new
        pieces.append(piece)
        ids.append(int(n))
        lrc.append(check_lrc_criterion(piece))
    if not pieces:
        raise ConstructionError("every level increment is empty")
    matrix = np.vstack(pieces)

    union = np.vstack(chain.samples)
    vals = np.abs(union @ matrix.T)
    norms = np.max(vals, axis=1)
    base = chain.space.norm_rows(union)
    if np.any(base <= 0.0):
        raise ParameterError("chain samples must be nonzero")
    ratios = norms / base
    attained = bool(all(np.any(vals[i] == norms[i])
                        for i in range(len(union))))
    expected = (float(np.min(a * b)) - tol, float(np.max(a)) + tol)
    ratio_range = (float(np.min(ratios)), float(np.max(ratios)))
    return BoundaryNorm(
        pieces=tuple(pieces), level_ids=tuple(ids), a_values=a,
        matrix=matrix, ratio_range=ratio_range, expected_range=expected,
        equivalent=(expected[0] <= ratio_range[0]
                    and ratio_range[1] <= expected[1]),
        attained=attained, lrc_reports=tuple(lrc))


class BoundaryNormSpace(ModelSpace):
    """The model space normed by a BoundaryNorm's symmetrized sup.

    The norm is a finite sup of functionals, not coordinatewise monotone
    in general.  Its dual metric is the coordinate l1 surrogate (the
    dual of the sup norm), so the exact dual-ball check is skipped.
    """

    kind = "boundary_sup"
    monotone_unconditional = False
    # its own binding, so a per-class wrapper (perfbench/tracer.py) can
    # count it apart from ModelSpace.dual_norm
    dual_norm = ModelSpace.dual_norm

    def __init__(self, boundary_norm: BoundaryNorm):
        super().__init__(boundary_norm.matrix.shape[1])
        self.boundary = boundary_norm

    def _norm_rows(self, X):
        return self.boundary.norm_batch(X)

    def __repr__(self):
        return (f"BoundaryNormSpace(dim={self.dim}, "
                f"pieces={len(self.boundary.pieces)})")


@dataclass(frozen=True)
class PipelineReport:
    """Verification digest of a pipeline-built approximating norm."""

    net_passed: bool
    approx_checked: bool
    approx_violations: int
    min_rel_gap: float
    margins_positive: bool
    claim2d_ok: bool
    claim2d_worst_excess: float
    bc_gap: float
    passed: bool


@dataclass(frozen=True)
class PipelineResult:
    route: str
    chain: RelativeBoundaryChain
    boundary_norm: BoundaryNorm | None
    base_space: object
    decomposition: Decomposition
    phi_spec: object
    report: PipelineReport

    @property
    def passed(self) -> bool:
        return self.report.passed


def _normalize_rows(space, rows):
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    base = space.norm_rows(rows)
    if np.any(base <= 0.0):
        raise ParameterError("samples must be nonzero")
    return rows / base[:, None]


def _level_samples(space, samples, level_count):
    if isinstance(samples, (list, tuple)):
        if len(samples) != level_count:
            raise ParameterError(
                f"need {level_count} per-level sample sets, "
                f"got {len(samples)}")
        return [_normalize_rows(space, s) for s in samples]
    pool = _normalize_rows(space, samples)
    return [pool] * level_count


def _support_ball_chain(space, sample_sets, level_ids, resolution, seed,
                        identity_tol):
    balls = [support_ball(space, n, resolution=resolution, seed=seed)
             for n in level_ids]
    h_sets = tuple(ball.functionals for ball in balls)
    exact = all(ball.exact for ball in balls)
    b = np.asarray([compute_bn(h, s) for h, s in zip(h_sets, sample_sets)])
    c = None
    if space.monotone_unconditional:
        tol = identity_tol if exact else None
        c = np.asarray([compute_cn(space, s, n, identity_tol=tol)
                        for n, s in zip(level_ids, sample_sets)])
    return h_sets, b, c, exact


def _adapted_chain(space, sample_sets, level_ids):
    """Sample-adapted levels for kinds without enumerable dual balls:
    each sample contributes the norming functional of its best
    |sigma| = n projection, so its own level-n sup equals the c_n inner
    value exactly."""
    rows_by_level = []
    for n, S in zip(level_ids, sample_sets):
        seen, lvl = set(), []
        for x in S:
            val, sigma = _projection_sup(space, x, n)
            if val <= 0.0:
                raise ConstructionError(
                    f"a sample projects to zero at level {n}")
            f = space.norming_functional(proj(x, sigma, space.dim))
            key = _key(f)
            if key not in seen:
                seen.add(key)
                lvl.append(f)
        rows_by_level.append(np.asarray(lvl))
    h_sets, seen, acc = [], set(), []
    for lvl in rows_by_level:
        for f in lvl:
            key = _key(f)
            if key not in seen:
                seen.add(key)
                acc.append(f)
        h_sets.append(np.asarray(acc))
    h_sets = tuple(h_sets)
    b = np.asarray([compute_bn(h, s) for h, s in zip(h_sets, sample_sets)])
    c = np.asarray([compute_cn(space, s, n)
                    for n, s in zip(level_ids, sample_sets)])
    return h_sets, b, c, False


def _pipeline_report(phi, d, base_space, eps, chain, seed, check_count,
                     pool_count, margin_count, claim_tol):
    net_report = net_property_report(d, phi.net)
    rng = np.random.default_rng(seed + 101)

    approx_checked, violations, min_gap = True, 0, np.inf
    if phi.Y is None:
        U = rng.standard_normal((check_count, base_space.dim))
        base = base_space.norm_rows(U)
        rho = phi_norm_batch(phi, U)
        bad = ~((rho > base) & (rho <= (1.0 + eps) * base * (1.0 + 1e-9)))
        violations = int(np.sum(bad))
        min_gap = float(np.min((rho - base) / base))
    elif phi.X.enumerable_dual:
        count = max(8, check_count // 4)
        batch = rng.standard_normal((count, phi.X.dim, phi.Y.dim))
        rho = phi_norm_batch(phi, batch)
        for M, r in zip(batch, rho):
            base = injective_norm(TensorElement(M, phi.X, phi.Y),
                                  "enumerate").value
            if not (r > base and r <= (1.0 + eps) * base * (1.0 + 1e-9)):
                violations += 1
            min_gap = min(min_gap, (r - base) / base)
    else:
        approx_checked = False
        min_gap = float("nan")

    margin_pool = phi_unit_pool(phi, margin_count, seed=seed + 202)
    margins_positive = bool(all(active_set(phi, u).margin > 0.0
                                for u in margin_pool.samples))

    pool = phi_unit_pool(phi, pool_count, seed=seed + 303)
    g = None if phi.Y is None else np.eye(phi.Y.dim)[0]
    reports = [verify_claim2d(phi, i, g=g, pool=pool, tol=claim_tol)
               for i in range(len(phi.net))]
    claim_ok = bool(all(r.passed for r in reports))
    worst = float(max(r.sampled_max - r.bound for r in reports))

    bc_gap = (float(np.max(np.abs(chain.b_values - chain.c_values)))
              if chain.c_values is not None else float("nan"))
    passed = (net_report.passed and violations == 0 and margins_positive
              and claim_ok)
    return PipelineReport(
        net_passed=net_report.passed, approx_checked=approx_checked,
        approx_violations=violations, min_rel_gap=min_gap,
        margins_positive=margins_positive, claim2d_ok=claim_ok,
        claim2d_worst_excess=worst, bc_gap=bc_gap, passed=passed)


def corollary_b_pipeline(space, samples, eps, route="auto", Y=None, *,
                         seed=0, max_level=None, resolution=64,
                         identity_tol=1e-9, a_strategy="default",
                         check_count=200, pool_count=2000, margin_count=10,
                         claim_tol=1e-7, boundary_tol=1e-9):
    """Build and verify an approximating norm by one of two routes.

    "direct": every (normalized) sample must exhibit a norming support
    within max_level coordinates, which certifies that the union of
    support-ball levels is already a boundary; the level increments
    become the decomposition pieces.
    "chain": measure b_n/c_n per level, rescale the increments with the
    a-sequence, and renorm the resulting boundary-sup space instead.
    "auto" picks direct when all norming supports exist, else chain.

    samples: one (s, dim) array shared by every level, or a list with
    one array per level.  Levels run 1..max_level (default dim).
    """
    if route not in ("auto", "direct", "chain"):
        raise ParameterError(f"unknown route {route!r}")
    levels = space.dim if max_level is None else int(max_level)
    if not 1 <= levels <= space.dim:
        raise ParameterError("max_level must lie in [1, dim]")
    level_ids = tuple(range(1, levels + 1))
    sample_sets = _level_samples(space, samples, levels)
    union = np.unique(np.vstack(sample_sets), axis=0)

    chosen = route
    if route in ("auto", "direct"):
        # the truncated slice union is a boundary only when every sample
        # has a norming support that fits inside the level cap
        missing = 0
        for x in union:
            sigma = find_norming_support(space, x, cap=levels)
            if sigma is None or len(sigma) > levels:
                missing += 1
        if missing and route == "direct":
            raise ConstructionError(
                f"{missing} samples have no norming support within "
                f"{levels} levels")
        chosen = "direct" if missing == 0 else "chain"

    if chosen == "direct":
        h_sets, b, c, exact = _support_ball_chain(
            space, sample_sets, level_ids, resolution, seed, identity_tol)
        chain = RelativeBoundaryChain(
            space=space, h_sets=h_sets, samples=tuple(sample_sets),
            level_ids=level_ids, b_values=b, c_values=c, exact=exact)
        pieces = [P for P in (chain.new_members(i) for i in range(levels))
                  if len(P)]
        boundary_norm = None
        base_space = space
        decomposition = Decomposition(space, pieces, eps)
        boundary_samples = union
    else:
        if Y is not None:
            raise ParameterError("factor spaces need the direct route")
        if space.enumerable_dual:
            h_sets, b, c, exact = _support_ball_chain(
                space, sample_sets, level_ids, resolution, seed,
                identity_tol)
        else:
            h_sets, b, c, exact = _adapted_chain(
                space, sample_sets, level_ids)
        if c is not None and np.any(c <= 0.0):
            raise ConstructionError("c_n must be strictly positive")
        chain = RelativeBoundaryChain(
            space=space, h_sets=h_sets, samples=tuple(sample_sets),
            level_ids=level_ids, b_values=b, c_values=c, exact=exact)
        boundary_norm = build_F(chain, a_strategy=a_strategy)
        base_space = BoundaryNormSpace(boundary_norm)
        decomposition = Decomposition(
            base_space, boundary_norm.symmetric_pieces(), eps)
        boundary_samples = _normalize_rows(base_space, union)

    phi = build_renorm(base_space, decomposition, Y,
                       boundary_samples=boundary_samples, seed=seed,
                       boundary_tol=boundary_tol)
    report = _pipeline_report(phi, decomposition, base_space, eps, chain,
                              seed, check_count, pool_count, margin_count,
                              claim_tol)
    return PipelineResult(
        route=chosen, chain=chain, boundary_norm=boundary_norm,
        base_space=base_space, decomposition=decomposition, phi_spec=phi,
        report=report)
