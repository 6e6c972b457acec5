"""The checks of a built approximating norm, each written once, for the
CLI suites and corollary_b_pipeline: the window ||x|| < ||x||_phi <=
(1 + eps) ||x|| (claim 1 is its strict lower half), claim 2d sampled on
one pool for every net point and unit g, and local finite dependence:
active-set margins, probed for a bump outside the set that wakes within
the set's certified radius.  The constants are the pipeline's budgets.
The window's samples, the claim-2d draw and each point's probes meet
the net, and the dual extreme points, one boundary.row_blocks block at a
time, so none is held as one array of every sample's coordinates.  The
claim-2d draw and the probes compute each block's coordinates once and
read their phi-norms and what the check needs from that one array: a
2,000-sample lorentz_predual dim-7 sweep peaks at about 11.4 MB traced,
one 479-row block of the 2,186-point net and the norms' work arrays.
A check on nothing would pass, so every check refuses an empty sample
set, and a count that is not a nonnegative integer, with ParameterError.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .boundary import row_blocks
from .errors import ParameterError
from .renorm import (_coord_blocks, _draw, active_set, phi_norm_batch,
                     phi_unit_pool, verify_claim2d)
from .tensor import _refuse_non_finite, _slice_norms

__all__ = ["ApproxWindow", "Claim2dSweep", "MarginCheck", "window",
           "approx_window", "claim2d_sweep", "active_sets",
           "inactive_violations"]

CHECK_COUNT = 200    # approx-window samples
POOL_COUNT = 2000    # claim-2d pool size
MARGIN_COUNT = 10    # active-set points
PERTURBATIONS = 20   # probes per active set
CLAIM_TOL = 1e-7     # allowed claim-2d excess over 1/theta(h)
RATIO_SLACK = 1e-9   # relative slack on the window's upper edge
BASE_FLOOR = 1e-12   # samples with a base norm at or below this are dropped


class ApproxWindow(NamedTuple):
    """inside: base < phi <= (1 + eps) * base * (1 + slack); gap: (phi -
    base) / base, one rounding in the window (exact subtraction, Sterbenz)."""

    samples: np.ndarray
    base: np.ndarray
    phi: np.ndarray
    inside: np.ndarray
    gap: np.ndarray

    @property
    def violations(self) -> int:
        return int(np.count_nonzero(~self.inside))

    @property
    def passed(self) -> bool:
        return self.violations == 0


def window(samples, base, phi, eps, slack=RATIO_SLACK) -> ApproxWindow:
    """The window predicate and the gap on given base and phi values."""
    inside = (phi > base) & (phi <= (1.0 + eps) * base * (1.0 + slack))
    return ApproxWindow(samples, base, phi, inside, (phi - base) / base)


def approx_window(spec, samples, slack=RATIO_SLACK) -> ApproxWindow | None:
    """The window on (k, dim X) vectors, or on (k, dim X, dim Y) matrices
    against their exact injective norm (None without an enumerable dual
    ball).  Samples with a base norm <= BASE_FLOOR are dropped; a sample
    with a NaN or inf entry is a ParameterError naming its row."""
    X, Y = spec.X, spec.Y
    if Y is None:
        base = X.norm_rows(samples)
    elif X.enumerable_dual:
        # injective_norm of every matrix, one row block at a time
        _refuse_non_finite("injective norm", samples)
        P = X.dual_extreme_points()
        base = np.empty(len(samples))
        for block in row_blocks(len(samples), len(P) * Y.dim):
            base[block] = _slice_norms(P, samples[block]).max(axis=1)
    else:
        return None
    keep = base > BASE_FLOOR
    if not keep.any():
        raise ParameterError(f"sample set is empty ({len(keep)} given, none "
                             f"with a base norm above {BASE_FLOOR})")
    samples, base = samples[keep], base[keep]
    return window(samples, base, phi_norm_batch(spec, samples),
                  spec.epsilon, slack)


class Claim2dSweep(NamedTuple):
    ok: bool
    worst_excess: float
    pool_size: int


def claim2d_sweep(spec, count=POOL_COUNT, seed=0,
                  tol=CLAIM_TOL) -> Claim2dSweep:
    """verify_claim2d on `count` gaussian samples, drawn as phi_unit_pool
    draws them: every net point and, for a euclidean factor, every unit
    g at once.  A draw with no sample of positive norm is refused: a
    check on nothing would pass."""
    excess, kept = verify_claim2d(spec, _draw(spec, count, seed))
    if not kept:
        raise ParameterError(f"sample set is empty ({count} drawn)")
    worst = float(np.max(excess))
    return Claim2dSweep(worst <= tol, worst, kept)


class MarginCheck(NamedTuple):
    """Active sets at points of the phi-unit sphere, in pool order; their
    probes checked inactive_checked (probe, outside net point) pairs, and
    violations counts points with no positive margin and woken pairs."""

    points: np.ndarray
    sets: tuple
    inactive_checked: int
    violations: int

    @property
    def min_margin(self) -> float:
        return min(a.margin for a in self.sets)

    @property
    def passed(self) -> bool:
        return self.min_margin > 0.0 and self.violations == 0


def active_sets(spec, count=MARGIN_COUNT, seed=0) -> MarginCheck:
    """Active sets at `count` gaussian samples scaled to phi-norm 1, each
    probed at PERTURBATIONS points 0.9 of its certified radius away; the
    seed (an int or a SeedSequence) spawns the points' and moves' seeds."""
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    ss_points, ss_moves = seed.spawn(2)
    pool = phi_unit_pool(spec, count, seed=ss_points)
    if not len(pool.norms):
        raise ParameterError(f"sample set is empty ({count} drawn)")
    shape = (-1,) + (1,) * (pool.samples.ndim - 1)
    points = pool.samples / pool.norms.reshape(shape)
    sets = tuple(active_set(spec, u) for u in points)
    rng = np.random.default_rng(ss_moves)
    checked = violations = 0
    for u, act in zip(points, sets):
        if act.margin <= 0.0:
            violations += 1
            continue
        n_outside = len(spec.net) - len(act.indices)
        if not n_outside:
            continue
        outside = np.ones(len(spec.net), dtype=bool)
        outside[np.asarray(act.indices, dtype=np.intp)] = False
        moves = rng.standard_normal((PERTURBATIONS, *u.shape))
        # phi >= base norm, so a phi-scaled step stays inside the
        # certified radius for the base-norm Lipschitz bound
        scale = phi_norm_batch(spec, moves)
        moves, scale = moves[scale > 0.0], scale[scale > 0.0]
        probes = u + moves * (0.9 * act.radius / scale).reshape(shape)
        for _, coords, rhos in _coord_blocks(spec, probes):
            violations += inactive_violations(spec, coords, rhos, outside)
        checked += len(probes) * n_outside
    return MarginCheck(points, sets, checked, violations)


def inactive_violations(spec, coords, rhos, outside) -> int:
    """Pairs of a row and a net point in `outside` (indices or a boolean
    mask over the net) whose bump argument coords / rhos passes the zero
    threshold: the bump is positive there, even where its value
    underflows to 0.0.  Counted on every column under the mask.  A
    non-positive (or NaN) entry of rhos is a ParameterError."""
    rhos = np.asarray(rhos, dtype=float)
    bad = ~(rhos > 0.0)
    if bad.any():
        raise ParameterError(
            f"phi-norms must be positive, got {rhos[bad][0]} at row "
            f"{int(np.flatnonzero(bad)[0])}")
    mask = np.zeros(len(spec.net), dtype=bool)
    mask[outside] = True
    woken = coords / rhos[:, None] > np.repeat(spec.family.zero_thresholds,
                                               spec.runs.size)
    woken &= mask
    return int(np.count_nonzero(woken))
