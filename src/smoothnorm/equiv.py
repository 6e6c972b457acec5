"""Relative boundary chains and equivalent boundary-sup norms.

The renorm machinery needs a decomposition that norms the sphere.  Two
routes produce one here, and the kind picks between them.  Each holds
its levels as a RelativeBoundaryChain: the functionals new at each
level, measured on one sample set.  The direct route applies when the
dual ball is enumerable: its levels are the kind's support_levels, the
dual extreme points split once by support size, and support_ball(space,
n) stacks levels 1..n.  Those levels together already form a boundary,
since every sample's norming support fits in dim levels, and they feed
build_renorm as pieces.  A sample of the dual sphere is no boundary, so
support_levels refuses every other kind, and those take the chain
route, which drops the norming-support requirement: it measures the
level constants

    b_n = inf over samples of sup over levels 1..n of h(x)
    c_n = inf over samples of max over |sigma| = n of ||P_sigma x||

(equal by duality for monotone unconditional bases), rescales the level
increments by a decreasing a-sequence so every sample attains a finite
level, and renorms the resulting boundary_sup space, whose boundary the
increments are by construction.  Each level is one
norming_functional_rows call on every sample's best projection.  A
chain is measured in one pass: b_n from the product of the samples with
every level, one row block of samples at a time (boundary.row_blocks),
c_n from one ModelSpace.top_projections walk (exact at
every dimension).  corollary_b_pipeline runs the kind's route end to
end on one sample set and verifies the built approximating norm.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .boundary import (Decomposition, NetPropertyReport, RowIndex,
                       check_lrc_criterion, net_property_report, row_blocks)
from .errors import (ConstructionError, NumericError, ParameterError,
                     check_integer)
from .renorm import _draw, build_renorm
from .spaces import ModelSpace
from .verify import (CHECK_COUNT, MARGIN_COUNT, POOL_COUNT, ApproxWindow,
                     Claim2dSweep, MarginCheck, active_sets, approx_window,
                     claim2d_sweep)

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
    points of {h in the dual ball : |supp(h)| <= n}, the space's support
    levels 1..n stacked in order.

    Only kinds with an enumerable dual (sup_finite, lorentz_predual)
    have one; support_levels raises ParameterError for the rest.
    n = 0 is the zero functional alone.
    """
    if check_integer(n, "support level") < 0:
        raise ParameterError("support level must be >= 0")
    if n == 0:
        return np.zeros((1, space.dim))
    return np.vstack(space.support_levels()[:n])


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
    # written so that NaN fails it
    if not abs(b - c) <= tol:
        raise NumericError(
            f"b_{n} = {b} and c_{n} = {c} disagree beyond {tol}")


@dataclass(frozen=True)
class RelativeBoundaryChain:
    """Disjoint dual-ball level increments and their level constants.

    levels[i] is the (k, dim) array of functionals new at level
    level_ids[i], empty only after the first; no functional appears
    twice.  samples is the one (s, dim) sphere set every level is
    measured on.  b_values[i] is compute_bn on levels 1..i+1 together,
    read off one running max along the levels of the product, with a
    running min over its sample row blocks, so b is exactly
    nondecreasing; it must lie in [0, 1], and b = 0 is
    representable (build_F refuses it).
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
        put("level_ids", tuple(check_integer(n, "level id")
                               for n in self.level_ids))
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
        if not len(self.levels[0]):
            raise ConstructionError("the chain's first level is empty")
        H = np.vstack(self.levels)
        if not (np.isfinite(H).all() and np.isfinite(self.samples).all()):
            raise ParameterError("functionals and samples must be finite")
        if np.any(RowIndex(H).first != np.arange(len(H))):
            raise ConstructionError(
                "levels must be pairwise disjoint, with no repeated "
                "functional")
        # each level's last column (an empty level repeats the one before
        # it), its minimum running over the sample row blocks
        ends = np.cumsum([len(h) for h in self.levels]) - 1
        b = np.full(k, np.inf)
        for block in row_blocks(len(self.samples), len(H)):
            top = self.samples[block] @ H.T
            np.maximum.accumulate(top, axis=1, out=top)
            np.minimum(b, top[:, ends].min(axis=0), out=b)
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

    pieces keep only the nonempty increments, in level order, and matrix
    stacks them; a_values stays aligned with the full chain.  The norm
    is a finite sup of functionals, not coordinatewise monotone in
    general.  Its dual metric is the coordinate l1 surrogate (the dual
    of the sup norm), so the exact dual-ball check is skipped.
    """

    pieces: tuple
    a_values: np.ndarray
    matrix: np.ndarray
    ratio_range: tuple
    expected_range: tuple
    lrc_reports: tuple

    kind = "boundary_sup"
    monotone_unconditional = False
    # its own binding, so a per-class wrapper (perfbench/tracer.py) can
    # count it apart from ModelSpace.dual_norm
    dual_norm = ModelSpace.dual_norm

    def __post_init__(self):
        super().__init__(self.matrix.shape[1])

    @property
    def equivalent(self) -> bool:
        """The measured ratio range lies inside the expected one."""
        return (self.expected_range[0] <= self.ratio_range[0]
                and self.ratio_range[1] <= self.expected_range[1])

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
    both sides.  The chain's first level is nonempty (the chain
    refuses an empty one) and no sample is zero (one gives b = 0,
    refused here), so the space has a piece and every ratio a nonzero
    base.
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

    pieces = tuple(a_n * level for a_n, level in zip(a, chain.levels)
                   if len(level))
    matrix = np.vstack(pieces)
    S = chain.samples
    ratios = np.max(np.abs(S @ matrix.T), axis=1) / chain.space.norm_rows(S)
    return BoundaryNormSpace(
        pieces=pieces, a_values=a, matrix=matrix,
        ratio_range=(float(np.min(ratios)), float(np.max(ratios))),
        expected_range=(float(np.min(a * b)) - 1e-9,
                        float(np.max(a)) + 1e-9),
        lrc_reports=tuple(check_lrc_criterion(P) for P in pieces))


@dataclass(frozen=True)
class PipelineReport:
    """The checks the pipeline ran on its approximating norm, each its
    own record: the net property, the approx window, the active-set
    margins and their probes, and the claim-2d sweep; then the largest
    |b_n - c_n| and the rescaled space's equivalence verdict (True on
    the direct route, which has no rescaled space)."""

    net: NetPropertyReport
    window: ApproxWindow
    margins: MarginCheck
    claim2d: Claim2dSweep
    bc_gap: float
    equivalent: bool

    @property
    def passed(self) -> bool:
        return (self.net.passed and self.window.passed
                and self.margins.passed and self.claim2d.ok
                and self.equivalent)


@dataclass(frozen=True)
class PipelineResult:
    """The chain, the rescaled space on the chain route (None on the
    direct route) and the verified approximating norm, whose base space
    is phi_spec.X."""

    chain: RelativeBoundaryChain
    boundary_norm: BoundaryNormSpace | None
    decomposition: Decomposition
    phi_spec: object
    report: PipelineReport

    @property
    def route(self) -> str:
        return "direct" if self.boundary_norm is None else "chain"

    @property
    def passed(self) -> bool:
        return self.report.passed


def _unique_rows(rows):
    """First occurrences of the rows, in order (signed zeros folded)."""
    first = RowIndex(rows).first
    return rows[first == np.arange(len(first))]


def _normalize_rows(space, rows):
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    if rows.size == 0:
        raise ParameterError("sample set is empty")
    base = space.norm_rows(rows)
    if np.any(base <= 0.0):
        raise ParameterError("samples must be nonzero")
    return rows / base[:, None]


def _route_chain(space, S):
    """Levels 1..dim on the unit rows S by the kind's route, with c_n
    from one top_projections pass.  The direct route's levels are one
    support_levels call, so levels 1..n are support_ball(space, n) row
    for row.  The chain route's level n holds the new norming
    functionals of every sample's best |sigma| = n projection, so a
    sample's level-n sup is its c_n inner value."""
    level_ids = tuple(range(1, space.dim + 1))
    tops = space.top_projections(S, level_ids)
    if space.enumerable_dual:
        levels = space.support_levels()
        c = [np.min(values) for values, _ in tops]
    else:
        found, c = [], []
        for values, masks in tops:
            c.append(np.min(values))
            found.append(space.norming_functional_rows(
                np.where(masks, S, 0.0)))
        # a level keeps the first occurrence of each functional over all
        # levels, in order
        first = RowIndex(np.vstack(found)).first
        new = np.split(first == np.arange(len(first)),
                       np.cumsum([len(F) for F in found])[:-1])
        levels = [F[keep] for F, keep in zip(found, new)]
    return RelativeBoundaryChain(space=space, levels=levels, samples=S,
                                 level_ids=level_ids, c_values=c)


def _pipeline_report(phi, d, chain, boundary_norm, seed):
    """The four checks on their own seeds.  The window always exists:
    the direct route's base has an enumerable dual ball, and the chain
    route refuses a factor."""
    count = CHECK_COUNT if phi.Y is None else max(8, CHECK_COUNT // 4)
    return PipelineReport(
        net=net_property_report(d, phi.net),
        window=approx_window(phi, _draw(phi, count, seed + 101)),
        margins=active_sets(phi, MARGIN_COUNT, seed=seed + 202),
        claim2d=claim2d_sweep(phi, POOL_COUNT, seed=seed + 303),
        bc_gap=float(np.max(np.abs(chain.b_values - chain.c_values))),
        equivalent=boundary_norm is None or boundary_norm.equivalent)


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
    route.  build_renorm then checks the decomposition once, by the
    base's kind: against every dual extreme point on the direct route,
    and on the chain route at the distinct samples, normalized in the
    boundary_sup norm.

    samples: one (s, dim) array of nonzero rows, normalized here and
    shared by every level.
    """
    direct = space.enumerable_dual
    if not direct and Y is not None:
        raise ParameterError(
            f"factor spaces need the direct route, and kind "
            f"{space.kind!r} has no enumerable dual ball")
    S = _normalize_rows(space, samples)
    chain = _route_chain(space, S)
    if direct:
        if identity_tol is not None:
            for n, b_n, c_n in zip(chain.level_ids, chain.b_values,
                                   chain.c_values):
                _check_identity(n, b_n, c_n, identity_tol)
        boundary_norm, base, boundary_samples = None, space, None
        decomposition = Decomposition(
            space, [P for P in chain.levels if len(P)], eps)
    else:
        boundary_norm = base = build_F(chain)
        decomposition = Decomposition(
            base, boundary_norm.symmetric_pieces(), eps)
        boundary_samples = _normalize_rows(base, np.unique(S, axis=0))

    phi = build_renorm(base, decomposition, Y,
                       boundary_samples=boundary_samples)
    return PipelineResult(
        chain=chain, boundary_norm=boundary_norm,
        decomposition=decomposition, phi_spec=phi,
        report=_pipeline_report(phi, decomposition, chain, boundary_norm,
                                seed))
