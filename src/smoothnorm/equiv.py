"""Relative boundary chains and equivalent boundary-sup norms.

The renorm machinery needs a decomposition that norms the sphere.  Two
routes produce one here, and the kind picks between them.  Each holds
its levels as a RelativeBoundaryChain: the functionals new at each
level, measured on one sample set.  The direct route applies when the
dual ball is enumerable: it lists the dual extreme points once
(support_ball at level dim) and splits them by support size, so levels
1..n together are the slice support_ball(space, n).  Those slices
already form a boundary, since every sample's norming support fits in
dim levels, and the level increments feed build_renorm as pieces.  A
sample of the dual sphere is no boundary, so support_ball refuses every
other kind, and those take the chain route, which drops the
norming-support requirement: it measures the level constants

    b_n = inf over samples of sup over levels 1..n of h(x)
    c_n = inf over samples of max over |sigma| = n of ||P_sigma x||

(equal by duality for monotone unconditional bases), rescales the level
increments by a decreasing a-sequence so every sample attains a finite
level, and renorms the resulting boundary_sup space, whose boundary the
increments are by construction (the inner max of c_n is
ModelSpace.top_projection_rows, exact at every dimension).  Its levels
are the norming functionals of each sample's best projections.
corollary_b_pipeline runs the kind's route end to end on one sample set
and verifies the built approximating norm.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .boundary import (Decomposition, _row_keys, check_lrc_criterion,
                       net_property_report)
from .errors import ConstructionError, NumericError, ParameterError
from .renorm import build_renorm
from .spaces import ModelSpace
from .verify import (CHECK_COUNT, MARGIN_COUNT, POOL_COUNT, active_sets,
                     approx_window, claim2d_sweep)

__all__ = [
    "RelativeBoundaryChain",
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


def support_ball(space, n) -> np.ndarray:
    """Dual-ball slice by support cardinality: the (k, dim) extreme
    points of {h in the dual ball : |supp(h)| <= n}.

    Only kinds with an enumerable dual (sup_finite, lorentz_predual)
    have one; dual_extreme_points raises ParameterError for the rest.
    n = 0 is the zero functional alone.
    """
    n = int(n)
    if n < 0:
        raise ParameterError("support level must be >= 0")
    if n == 0:
        return np.zeros((1, space.dim))
    return space.dual_extreme_points(max_support=min(n, space.dim))


def compute_bn(h_set, samples) -> float:
    """inf over samples of sup over the functional set of h(x).

    Returns the raw measurement; zero (e.g. for the set {0}) is
    representable here and rejected later where positivity is actually
    required (build_F).  A non-finite entry in either argument is a
    ParameterError.
    """
    H = np.atleast_2d(np.asarray(h_set, dtype=float))
    S = np.atleast_2d(np.asarray(samples, dtype=float))
    if S.size == 0:
        raise ParameterError("sample set is empty")
    if H.size == 0:
        raise ParameterError("functional set is empty")
    if H.shape[1] != S.shape[1]:
        raise ParameterError("functional and sample dims differ")
    if not (np.isfinite(H).all() and np.isfinite(S).all()):
        raise ParameterError("functionals and samples must be finite")
    return float(np.min(np.max(S @ H.T, axis=1)))


def compute_cn(space, samples, n, identity_tol=None) -> float:
    """inf over samples of max over |sigma| = n of ||P_sigma x||.

    With identity_tol set, also measures b_n on support_ball(space, n)
    and raises NumericError when the two disagree beyond the tolerance;
    support_ball raises ParameterError for a kind whose dual ball is
    not enumerable.
    """
    if not space.monotone_unconditional:
        raise ParameterError("c_n needs a monotone unconditional basis")
    S = np.atleast_2d(np.asarray(samples, dtype=float))
    if S.size == 0:
        raise ParameterError("sample set is empty")
    c = float(np.min(space.top_projection_rows(S, n)[0]))
    if identity_tol is not None:
        _check_identity(n, compute_bn(support_ball(space, n), S), c,
                        identity_tol)
    return c


def _check_identity(n, b, c, tol):
    if abs(b - c) > tol:
        raise NumericError(
            f"b_{n} = {b} and c_{n} = {c} disagree beyond {tol}")


@dataclass(frozen=True)
class RelativeBoundaryChain:
    """Disjoint dual-ball level increments and their level constants.

    levels[i] is the (k, dim) array of functionals new at level
    level_ids[i], possibly empty; no functional appears twice.  samples
    is the one (s, dim) sphere set every level is measured on.
    b_values[i] is compute_bn on levels 1..i+1 together, so b is
    nondecreasing; it must lie in [0, 1], and b = 0 is representable
    (build_F refuses it).
    """

    space: object
    levels: tuple
    samples: np.ndarray
    level_ids: tuple
    c_values: np.ndarray | None = None
    b_values: np.ndarray = field(init=False)

    def __post_init__(self):
        def put(name, value):
            object.__setattr__(self, name, value)

        put("levels", tuple(np.atleast_2d(np.asarray(h, dtype=float))
                            for h in self.levels))
        put("samples", np.atleast_2d(np.asarray(self.samples, dtype=float)))
        put("level_ids", tuple(int(n) for n in self.level_ids))
        if self.c_values is not None:
            put("c_values", np.asarray(self.c_values, dtype=float))

        k = len(self.levels)
        if k == 0:
            raise ConstructionError("chain needs at least one level")
        if len(self.level_ids) != k or (self.c_values is not None
                                        and len(self.c_values) != k):
            raise ConstructionError("chain fields must have equal length")
        if any(n2 <= n1 for n1, n2 in zip(self.level_ids,
                                          self.level_ids[1:])):
            raise ConstructionError("level ids must strictly increase")
        dim = self.space.dim
        if self.samples.size == 0 or any(
                A.ndim != 2 or A.shape[1] != dim
                for A in (self.samples, *self.levels)):
            raise ConstructionError(f"chain needs a nonempty sample array "
                                    f"and levels, each of width {dim}")
        keys = _row_keys(np.vstack(self.levels))
        if len(set(keys)) != len(keys):
            raise ConstructionError(
                "levels must be pairwise disjoint, with no repeated "
                "functional")
        b = np.asarray([compute_bn(np.vstack(self.levels[:i + 1]),
                                   self.samples) for i in range(k)])
        if not np.all((b >= -1e-12) & (b <= 1.0 + 1e-9)):
            raise ConstructionError(f"b values must lie in [0, 1], got {b}")
        put("b_values", b)

    def __len__(self):
        return len(self.levels)


def default_a_sequence(level_ids, b) -> np.ndarray:
    """a_n = 1 + 2^(-n-1) + max over m >= n of (1 - b_m)/b_m.

    Strictly decreasing, always > 1, and a_n * b_n > 1 so the level-n
    term already beats the limiting sup for the level's own samples.
    """
    b = np.asarray(b, dtype=float)
    # written so that NaN fails it
    if not np.all(b > 0.0):
        raise ConstructionError("a-sequence needs strictly positive b")
    deficits = (1.0 - b) / b
    tail = np.maximum.accumulate(deficits[::-1])[::-1]
    ids = np.asarray(level_ids, dtype=float)
    return 1.0 + 2.0 ** (-(ids + 1.0)) + tail


@dataclass(eq=False, repr=False)
class BoundaryNormSpace(ModelSpace):
    """The model space normed by a rescaled chain: F is the union of the
    a_n-scaled level increments, |||x||| = max over F of |f(x)|, and the
    record holds its measured equivalence to the chain's norm.

    pieces keep only nonempty increments (level_ids names them) and
    matrix stacks them; a_values stays aligned with the full chain.  The
    norm is a finite sup of functionals, not coordinatewise monotone in
    general.  Its dual metric is the coordinate l1 surrogate (the dual
    of the sup norm), so the exact dual-ball check is skipped.
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

    kind = "boundary_sup"
    monotone_unconditional = False
    # its own binding, so a per-class wrapper (perfbench/tracer.py) can
    # count it apart from ModelSpace.dual_norm
    dual_norm = ModelSpace.dual_norm

    def __post_init__(self):
        super().__init__(self.matrix.shape[1])

    def _norm_rows(self, X):
        return np.max(np.abs(X @ self.matrix.T), axis=1)

    def symmetric_pieces(self):
        """Each piece with both signs present (deduplicated), the form
        a boundary decomposition of |||.||| wants."""
        return [_unique_rows(np.vstack([P, -P])) for P in self.pieces]


def build_F(chain: RelativeBoundaryChain,
            a_strategy="default") -> BoundaryNormSpace:
    """Scale the chain's level increments into the boundary_sup space
    and measure it against the chain's norm on the chain's samples.

    a_strategy: "default" (the decreasing sequence above) or "ones".
    The expected ratio range [min a*b, max a] is widened by 1e-9 on
    both sides.
    """
    b = chain.b_values
    if np.any(b <= 0.0):
        bad = [int(n) for n, v in zip(chain.level_ids, b) if v <= 0.0]
        raise ConstructionError(
            f"b must be strictly positive, got b <= 0 at levels {bad}")
    if not isinstance(a_strategy, str) or a_strategy not in ("default",
                                                             "ones"):
        raise ParameterError(
            f"a_strategy must be 'default' or 'ones', got {a_strategy!r}")
    a = (default_a_sequence(chain.level_ids, b) if a_strategy == "default"
         else np.ones(len(chain)))

    pieces, ids, lrc = [], [], []
    for a_n, n, level in zip(a, chain.level_ids, chain.levels):
        if len(level) == 0:
            continue
        piece = a_n * level
        pieces.append(piece)
        ids.append(n)
        lrc.append(check_lrc_criterion(piece))
    if not pieces:
        raise ConstructionError("every level increment is empty")
    matrix = np.vstack(pieces)

    S = chain.samples
    vals = np.abs(S @ matrix.T)
    norms = np.max(vals, axis=1)
    base = chain.space.norm_rows(S)
    if np.any(base <= 0.0):
        raise ParameterError("chain samples must be nonzero")
    ratios = norms / base
    attained = bool(all(np.any(vals[i] == norms[i])
                        for i in range(len(S))))
    expected = (float(np.min(a * b)) - 1e-9, float(np.max(a)) + 1e-9)
    ratio_range = (float(np.min(ratios)), float(np.max(ratios)))
    return BoundaryNormSpace(
        pieces=tuple(pieces), level_ids=tuple(ids), a_values=a,
        matrix=matrix, ratio_range=ratio_range, expected_range=expected,
        equivalent=(expected[0] <= ratio_range[0]
                    and ratio_range[1] <= expected[1]),
        attained=attained, lrc_reports=tuple(lrc))


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
    """The route taken, its chain, the rescaled space on the chain route
    (None on the direct route) and the verified approximating norm,
    whose base space is phi_spec.X."""

    route: str
    chain: RelativeBoundaryChain
    boundary_norm: BoundaryNormSpace | None
    decomposition: Decomposition
    phi_spec: object
    report: PipelineReport

    @property
    def passed(self) -> bool:
        return self.report.passed


def _unique_rows(rows):
    """First occurrences of the rows, in order (signed zeros folded)."""
    first = {}
    for j, key in enumerate(_row_keys(rows)):
        first.setdefault(key, j)
    return rows[list(first.values())]


def _normalize_rows(space, rows):
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    base = space.norm_rows(rows)
    if np.any(base <= 0.0):
        raise ParameterError("samples must be nonzero")
    return rows / base[:, None]


def _adapted_chain(space, S, level_ids):
    """Sample-adapted level increments for kinds without enumerable dual
    balls: each sample contributes the norming functional of its best
    |sigma| = n projection, so its own level-n sup equals the c_n inner
    value exactly."""
    levels, acc, c = [], np.zeros((0, space.dim)), []
    for n in level_ids:
        values, masks = space.top_projection_rows(S, n)
        if np.any(values <= 0.0):
            raise ConstructionError(
                f"a sample projects to zero at level {n}")
        grown = _unique_rows(np.vstack(
            [acc, *(space.norming_functional(p)
                    for p in np.where(masks, S, 0.0))]))
        levels.append(grown[len(acc):])
        acc = grown
        c.append(np.min(values))
    return levels, c


def _route_chain(space, S):
    """Levels 1..dim on the unit rows S by the kind's route.  The
    direct route enumerates the support ball at level dim once and
    splits it by support size, so levels 1..n are support_ball(space, n)
    row for row."""
    level_ids = tuple(range(1, space.dim + 1))
    if space.enumerable_dual:
        ball = support_ball(space, space.dim)
        sizes = np.count_nonzero(ball, axis=1)
        levels = [ball[sizes == n] for n in level_ids]
        c = [compute_cn(space, S, n) for n in level_ids]
    else:
        levels, c = _adapted_chain(space, S, level_ids)
    return RelativeBoundaryChain(space=space, levels=levels, samples=S,
                                 level_ids=level_ids, c_values=c)


def _pipeline_report(phi, d, chain, boundary_norm, seed):
    net_report = net_property_report(d, phi.net)
    rng = np.random.default_rng(seed + 101)
    count = CHECK_COUNT if phi.Y is None else max(8, CHECK_COUNT // 4)
    win = approx_window(phi, rng.standard_normal((count,
                                                  *phi.sample_shape)))
    margins = active_sets(phi, MARGIN_COUNT, seed=seed + 202)
    claim = claim2d_sweep(phi, POOL_COUNT, seed=seed + 303)
    violations = 0 if win is None else win.violations
    margins_positive = bool(margins.min_margin > 0.0)
    bc_gap = float(np.max(np.abs(chain.b_values - chain.c_values)))
    # on the chain route the rescaled norm's own verdicts count too
    boundary_ok = boundary_norm is None or (boundary_norm.equivalent
                                            and boundary_norm.attained)
    return PipelineReport(
        net_passed=net_report.passed, approx_checked=win is not None,
        approx_violations=violations,
        min_rel_gap=float("nan") if win is None else float(np.min(win.gap)),
        margins_positive=margins_positive, claim2d_ok=claim.ok,
        claim2d_worst_excess=float(claim.worst_excess), bc_gap=bc_gap,
        passed=(net_report.passed and violations == 0 and margins_positive
                and claim.ok and boundary_ok))


def corollary_b_pipeline(space, samples, eps, Y=None, *, seed=0,
                         identity_tol=1e-9):
    """Build and verify an approximating norm by the kind's route.

    "direct" exactly when space.enumerable_dual: levels 1..dim hold
    every sample's norming support, so the support ball at level dim is
    a boundary, and its increments by support size become the
    decomposition pieces, each level's b_n checked against c_n as
    compute_cn does.  "chain" for every other kind: measure b_n/c_n per
    level, rescale the increments with the a-sequence, and renorm the
    resulting boundary_sup space instead; factor spaces need the direct
    route.

    samples: one (s, dim) array of nonzero rows, normalized here and
    shared by every level.
    """
    direct = space.enumerable_dual
    if not direct and Y is not None:
        raise ParameterError(
            f"factor spaces need the direct route, and kind "
            f"{space.kind!r} has no enumerable dual ball")
    S = _normalize_rows(space, samples)
    union = np.unique(S, axis=0)
    chain = _route_chain(space, S)
    if direct:
        if identity_tol is not None:
            for n, b_n, c_n in zip(chain.level_ids, chain.b_values,
                                   chain.c_values):
                _check_identity(n, b_n, c_n, identity_tol)
        boundary_norm, base, boundary_samples = None, space, union
        decomposition = Decomposition(
            space, [P for P in chain.levels if len(P)], eps)
    else:
        boundary_norm = base = build_F(chain)
        decomposition = Decomposition(
            base, boundary_norm.symmetric_pieces(), eps)
        boundary_samples = _normalize_rows(base, union)

    phi = build_renorm(base, decomposition, Y,
                       boundary_samples=boundary_samples, seed=seed)
    report = _pipeline_report(phi, decomposition, chain, boundary_norm, seed)
    return PipelineResult(
        route="direct" if direct else "chain", chain=chain,
        boundary_norm=boundary_norm, decomposition=decomposition,
        phi_spec=phi, report=report)
