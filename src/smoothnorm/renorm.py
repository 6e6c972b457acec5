"""Smooth approximating norms assembled from a separated net.

Given a decomposition of a norming set for X into pieces, build_net
thins it to net points h, each carrying weights theta(h) < psi(h).  So
the net fixes each point's smooth convex bump phi_h, vanishing on
[0, 1/psi(h)] and exceeding 1 at 1/theta(h), and PhiNormSpec derives
that family from it.  The approximating norm of u is the Luxemburg norm
of the coordinate vector

    Pi(u)(h) = |h(u)|            (scalar factor)
    Pi(u)(h) = ||h @ u||_2       (euclidean factor, u a matrix)

over the family {phi_h}.  The construction satisfies
||u|| <= ||u||_phi <= (1 + eps) ||u||, with the left inequality strict
for u != 0, and depends only on finitely many coordinates near any
point: active_set computes the explicit stability radius.

Evaluation uses that local finite dependence.  On the peak-normalized
coordinate row u = Pi / max(Pi), let L = max_h theta(h) u_h; only the
terms with psi(h) u_h > L (1 - 1e-12) are bisected, in net order, next
to an inert slot (zero threshold +inf) that holds the row's peak, so the
peak normalization of the bisection is unchanged.  This is exact: the
term attaining L survives, and phi_h(1/theta(h)) = 1.5 > 1, so at every
scale where a pruned bump is positive the row is already infeasible
through that term.  Every feasibility test therefore decides as it would
over the whole net, and a feasible modular sums the same values in the
same order, so a row gets the whole-net value bit for bit.  A gaussian
row keeps about 2 of the 2,186 terms of the lorentz_predual dim-7 net.
The relative margin 1e-12 absorbs the roundings of u and of the
thresholds 1/psi, 1/theta, and working on u rather than on Pi keeps
subnormal and huge rows exact.

The rule is applied without a second array of the coordinates' size.
Net order is piece, then psi-bin, so psi and theta are constant on runs
of consecutive net points (PhiNormSpec.runs; 7 on the dim-7 net).
Both roundings of fl(fl(c / peak) * w) do not fall as c rises, so a
run's largest weighted term is its column maximum, weighted.  L and the
rule's verdict on each (row, run) pair therefore come exactly from
per-run column maxima, and the rule itself, unchanged, runs only on the
columns of the pairs that pass: it keeps the same terms as over the
whole row.

Every row is bisected to float resolution (``tol=0.0``) from a start
on that scale, so its value is the whole-net one at ``tol=0.0``
whatever the start.  The start comes from orlicz.modular_inverse's
table, z*_h(k) for k copies of bump h, through s_h(z), the smallest
float s with fl(u_h / s) <= z (_smallest_scale).  The spec keeps these
values as a (run x k) array, since a run's columns share a bump, filled
through modular_inverse on first use of each (run, k).  A batch's kept
terms read it in one gather, and one np.maximum.reduceat gives each
row of k kept terms T = max_h s_h(z*_h(k)).  T is feasible: each term
is at most its bump at z*_h(k), a value k copies of which sum to at
most 1.  Most rows are single-class: every kept term has the same bump
and the same coordinate, as h and -h do.  Such a row's modular at
scale s is k copies of phi(u_h / s), so T is its answer, and it starts
as (the float below T, T).  Any other row lies above the float below
max_h s_h(z*_h(1)), where some term alone exceeds 1.  That table
bracket is some 1e-8 relative wide (the pruning bounds
[L, max_h psi(h) u_h] are about eps_n), which left about 27 bisection
steps per row.  So orlicz.newton_scales takes Newton steps on the log
of the row's modular from T, with the bumps' closed-form derivative,
and the row starts START_ULPS floats either side of the result.  A NaN,
non-positive or infinite result is no start, so the row gets
feasible_scale_inf's default bracket; a wrong finite one is widened
there.  On 40,000 gaussian rows at scales 10^U(-3, 3) every such start
held its answer on the three specs the CI digests pin (2 bisection
steps per row: 18, 40 and 165 such rows on demo_sup3, sup4 x
euclidean(3) and lorentz_predual dim 7, which took 512, 997 and 4,375
steps from the table bracket).  feasible_scale_inf checks both ends
of every start and its certificate in one modular call.  A
single-class row's start holds, so such a row is done after that call
unless its certificate needs a nudge: phi_norm at a single-class point
makes one modular call (two with a nudge), and a batch one more per
bisection step of its other rows, plus one to certify them.  On 200
parts of 64 gaussian lorentz_predual dim-7 rows that is 491 calls,
where checking the start's ends and certificate in calls of their own
took 855.

smoothness_check is the numerical surrogate for smoothness claims: along
one line it contrasts second-difference blowup of a kinked norm (growing
like 1/h) against the bounded behavior of a smooth one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .boundary import NetB, build_net, check_boundary
from .errors import ConstructionError, ParameterError
from .orlicz import (OrliczFamily, make_orlicz, modular_inverse,
                     newton_scales)
from .scaling import feasible_scale_inf
from .spaces import EuclideanSpace, ModelSpace
from .tensor import TensorElement, _slice_norms

__all__ = [
    "PhiNormSpec",
    "NetRuns",
    "ActiveSet",
    "DirectionReport",
    "PhiUnitPool",
    "build_renorm",
    "pi_coords",
    "pi_coords_batch",
    "phi_norm",
    "phi_norm_batch",
    "phi_unit_pool",
    "active_set",
    "verify_claim2d",
    "smoothness_check",
]

# relative margin of the pruning rule (module docstring)
PRUNE_TOL = 1e-12
# ulp steps _smallest_scale takes each way before it gives up
SCALE_STEPS = 4
# floats each way around a Newton proposal in a multi-class row's start
START_ULPS = 2


class NetRuns(NamedTuple):
    """The maximal runs of consecutive net points with equal psi and
    theta: per run its first net index, length and two weights."""

    start: np.ndarray
    size: np.ndarray
    psi: np.ndarray
    theta: np.ndarray


@dataclass
class PhiNormSpec:
    """A built approximating norm: net, factor space, and what the net
    fixes: its bump family and its runs (module docstring).

    Y is None for the scalar factor, else a euclidean ModelSpace.
    """

    net: NetB
    X: ModelSpace
    Y: ModelSpace | None
    epsilon: float
    family: OrliczFamily = field(init=False)
    runs: NetRuns = field(init=False)
    # z*(k) per run and count k, NaN where not yet filled (_zstar)
    _zstar: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        psi, theta = self.net.psi, self.net.theta
        self.family = OrliczFamily([make_orlicz(z, e) for z, e in zip(
            (1.0 / psi).tolist(), (1.0 / theta).tolist())])
        edge = np.ones(len(psi) + 1, dtype=bool)
        edge[1:-1] = (psi[1:] != psi[:-1]) | (theta[1:] != theta[:-1])
        bounds = np.flatnonzero(edge)
        start = bounds[:-1]
        self.runs = NetRuns(start, bounds[1:] - start, psi[start],
                            theta[start])
        self._zstar = np.full((len(start), 0), np.nan)

    @property
    def sample_shape(self) -> tuple:
        """Shape of one argument u: (dim X,), or (dim X, dim Y) for a
        euclidean factor."""
        return ((self.X.dim,) if self.Y is None
                else (self.X.dim, self.Y.dim))


def _resolve_factor(Y):
    if Y is None or isinstance(Y, EuclideanSpace):
        return Y
    raise ParameterError("factor space must be None (scalar) or euclidean")


def _sphere_samples(X, budget, seed):
    """`budget` gaussian rows over their norms; a row too close to 0 is
    replaced by the stream's next draw."""
    rng = np.random.default_rng(seed)
    out = np.zeros((0, X.dim))
    while len(out) < budget:
        rows = rng.standard_normal((budget - len(out), X.dim))
        norms = X.norm_rows(rows)
        keep = norms > 1e-12
        out = np.vstack([out, rows[keep] / norms[keep, None]])
    return out


def build_renorm(X, d, Y=None, *, boundary_samples=None, budget=512,
                 seed=0, boundary_tol=1e-9) -> PhiNormSpec:
    """Check that the members are a boundary of X's dual ball, then
    build the net and its bump family.

    The kind picks the one check.  When X's dual ball is enumerable
    (sup_finite, lorentz_predual) it is exact: every dual extreme point
    must be a member within boundary_tol / dim in l-infinity; budget and
    seed go unused there, and boundary_samples is a ParameterError.
    Every other kind is sampled: sup over the members of f(x) must reach
    1 - boundary_tol at each row of boundary_samples (unit vectors), or
    at `budget` random unit vectors drawn from `seed` when none are
    supplied.  Either failure is a ConstructionError.
    """
    Y = _resolve_factor(Y)
    if d.space is not X and (d.space.kind, d.space.dim) != (X.kind, X.dim):
        raise ParameterError("decomposition was built over a different space")
    if X.enumerable_dual:
        if boundary_samples is not None:
            raise ParameterError(
                f"kind {X.kind!r} is checked on its dual extreme points, "
                f"so boundary_samples are not used")
        # every vertex of a polytope is exposed, so a boundary holds them
        # all; and ||x||_1 <= dim ||x|| on both kinds (Lorentz weights do
        # not increase from w_0 = 1), so a member within boundary_tol / dim
        # of each vertex keeps sup f(x) within boundary_tol of 1 at every
        # unit x, which the sampled check asks only at its samples
        points = X.dual_extreme_points()
        j = d.missing(points, tol=boundary_tol / X.dim)
        if j is not None:
            raise ConstructionError(
                f"functionals are no boundary: dual extreme point "
                f"{points[j].tolist()} is not a member")
    else:
        samples = (np.atleast_2d(np.asarray(boundary_samples, dtype=float))
                   if boundary_samples is not None
                   else _sphere_samples(X, budget, seed))
        report = check_boundary(X, d.members, samples, tol=boundary_tol)
        if not report.passed:
            worst = float(np.min(report.max_values))
            raise ConstructionError(
                f"functionals do not norm the sample sphere; worst sup "
                f"f(x) = {worst}")

    return PhiNormSpec(net=build_net(d), X=X, Y=Y, epsilon=d.epsilon)


def pi_coords(spec: PhiNormSpec, u) -> np.ndarray:
    """Coordinate vector of u (a vector, a matrix or a TensorElement),
    one entry per net point, in net order: the one-row pi_coords_batch."""
    if isinstance(u, TensorElement):
        u = u.matrix
    return pi_coords_batch(spec, np.asarray(u, dtype=float)[None])[0]


def _kept_terms(spec: PhiNormSpec, coords):
    """The pruning rule of the module docstring on (n, len(net))
    nonnegative coordinate rows, from per-run column maxima: per row the
    peak and L (NaN for a zero row), and the kept (row, column) pairs in
    row-major order."""
    start, size, psi, theta = spec.runs
    with np.errstate(divide="ignore", invalid="ignore"):
        top = np.maximum.reduceat(coords, start, axis=1)
        peak = np.maximum.reduce(top, axis=1)
        top /= peak[:, None]
        bound = np.maximum.reduce(top * theta, axis=1)
        cut = bound * (1.0 - PRUNE_TOL)
        top *= psi
        # the (row, run) pairs that pass, expanded to their columns
        r, k = (top > cut[:, None]).nonzero()
        size = size[k]
        ends = size.cumsum()
        r = r.repeat(size)
        j = (start[k] - ends + size).repeat(size) + np.arange(len(r))
        keep = coords[r, j] / peak[r] * spec.net.psi[j] > cut[r]
    return peak, bound, r[keep], j[keep]


def _luxemburg_rows(spec: PhiNormSpec, coords):
    """Luxemburg norms over spec.family of (n, len(net)) nonnegative
    coordinate rows, bisecting only the terms the pruning rule of the
    module docstring keeps, from the brackets it describes."""
    n, m = coords.shape
    family = spec.family
    peak, _, r, j = _kept_terms(spec, coords)
    counts = np.bincount(r, minlength=n)
    width = counts.max(initial=0) + 1
    first = counts.cumsum() - counts
    lead = first[r]
    slot = np.arange(len(r)) - lead
    cols = np.full((n, width), m)
    cols[r, slot] = j
    vals = np.repeat(peak[:, None], width, axis=1)
    c = coords[r, j]
    vals[r, slot] = c

    # per row, T = max_h s_h(z*_h(k)) over its kept terms (module
    # docstring); a zero row keeps none, and its NaN start is no start
    hi = np.full(n, np.nan)
    rows = np.flatnonzero(counts)
    u = c / peak[r]
    hi[rows] = np.maximum.reduceat(_table_scales(spec, u, j, counts[r]),
                                   first[rows])
    # T is a single-class row's answer: it starts one float below.  Any
    # other row, where some kept term differs from the row's first in its
    # bump or coordinate, starts around Newton from T
    lo = np.nextafter(hi, 0.0)
    j0 = j[lead]
    other = ((c != c[lead])
             | (family.zero_thresholds[j] != family.zero_thresholds[j0])
             | (family.exceed_thresholds[j] != family.exceed_thresholds[j0]))
    multi = np.bincount(r[other], minlength=n) > 0
    if multi.any():
        rows = multi.nonzero()[0]
        t = multi[r]
        guess = newton_scales(family, u[t], j[t],
                              np.repeat(np.arange(len(rows)), counts[rows]),
                              hi[rows])
        lo[rows] = _ulp_steps(guess, 0.0)
        hi[rows] = _ulp_steps(guess, np.inf)
    return feasible_scale_inf(
        lambda z, idx: family.modular_rows(z, cols[idx]), vals, tol=0.0,
        start=(lo, hi)).hi


def _ulp_steps(x, toward):
    """x moved START_ULPS floats toward `toward`."""
    for _ in range(START_ULPS):
        x = np.nextafter(x, toward)
    return x


def _table_scales(spec, u, cols, counts):
    """Per kept term, s(z*(k)) for its peak-normalized coordinate u, its
    bump (a net column) and the count k (module docstring)."""
    return _smallest_scale(u, _zstar(spec, cols, counts))


def _zstar(spec, cols, counts):
    """Per kept term, z*(k) of the bump of net column cols[t] for the
    count k = counts[t] >= 1: one gather from spec._zstar, a (run x k)
    table whose missing entries are filled through modular_inverse.  An
    entry depends only on (bump, k), so a fill that a concurrent call
    loses by widening the table is only refilled, from modular_inverse's
    caches."""
    run = np.searchsorted(spec.runs.start, cols, side="right") - 1
    table = spec._zstar
    width = counts.max(initial=0) + 1
    if width > table.shape[1]:
        wider = np.full((len(table), width), np.nan)
        wider[:, :table.shape[1]] = table
        spec._zstar = table = wider
    z = table[run, counts]
    missing = np.isnan(z)
    if missing.any():
        # one entry per (run, k) pair; a run's first column holds its bump
        pairs = np.unique(run[missing] * table.shape[1] + counts[missing])
        run_k = np.divmod(pairs, table.shape[1])
        fns = [spec.family.functions[col]
               for col in spec.runs.start[run_k[0]].tolist()]
        table[run_k] = modular_inverse(fns, run_k[1])
        z = table[run, counts]
    return z


def _smallest_scale(u0, zstar):
    """Per entry, the smallest float s with fl(u0 / s) <= z*, from the
    quotient u0 / z* by float division only; fl(u0 / s) does not rise
    with s.  An entry still off after a few ulp steps is left there, and
    feasible_scale_inf widens its bracket."""
    with np.errstate(divide="ignore", invalid="ignore"):
        s = u0 / zstar
        for _ in range(SCALE_STEPS):
            up = u0 / s > zstar
            if not up.any():
                break
            s[up] = np.nextafter(s[up], np.inf)
        for _ in range(SCALE_STEPS):
            below = np.nextafter(s, 0.0)
            down = u0 / below <= zstar
            if not down.any():
                break
            s[down] = below[down]
    return s


def phi_norm(spec: PhiNormSpec, u) -> float:
    """Luxemburg norm of the coordinate vector of u, exact to the float
    on the peak-normalized scale."""
    return float(_luxemburg_rows(spec, pi_coords(spec, u)[None])[0])


def pi_coords_batch(spec: PhiNormSpec, batch) -> np.ndarray:
    """Coordinate rows for a batch: (n, dim X) vectors or
    (n, dim X, dim Y) matrices -> (n, len(net)).  A NaN or inf entry is
    a ParameterError."""
    batch = np.asarray(batch, dtype=float)
    if batch.shape[1:] != spec.sample_shape:
        raise ParameterError(f"expected a batch of shape (n, "
                             f"*{spec.sample_shape}), got {batch.shape}")
    if not np.isfinite(batch).all():
        raise ParameterError("coordinates must be finite")
    A = spec.net.matrix
    if spec.Y is None:
        coords = batch @ A.T
        return np.abs(coords, out=coords)
    return _slice_norms(A, batch)


def phi_norm_batch(spec: PhiNormSpec, batch) -> np.ndarray:
    """phi-norms of a batch via one vectorized bisection: a batch of one
    gives phi_norm's bits, but pi_coords_batch's matrix product may round
    a row of a larger batch differently, and so its last bits."""
    return _luxemburg_rows(spec, pi_coords_batch(spec, batch))


@dataclass(frozen=True)
class PhiUnitPool:
    """A reusable pool of random samples with certified phi-norms.

    Pairing values against the pool divide by `norms` instead of
    rescaling the samples, which keeps the feasibility certificate of
    the batched Luxemburg computation intact.
    """

    samples: np.ndarray
    norms: np.ndarray


def phi_unit_pool(spec: PhiNormSpec, count, seed=0):
    """Draw `count` nonzero gaussian samples and compute their
    phi-norms in one batch."""
    rng = np.random.default_rng(seed)
    samples = rng.standard_normal((count, *spec.sample_shape))
    norms = phi_norm_batch(spec, samples)
    keep = norms > 0.0
    return PhiUnitPool(samples=samples[keep], norms=norms[keep])


@dataclass(frozen=True)
class ActiveSet:
    """Net points whose coordinate can contribute near u.

    Every point outside has psi * Pi(u) <= (1 - margin) * phi_value, so
    any u' whose coordinates all move by less than radius keeps every
    outside bump at exactly zero.
    """

    indices: tuple
    margin: float
    phi_value: float
    radius: float


def active_set(spec: PhiNormSpec, u) -> ActiveSet:
    coords = pi_coords(spec, u)
    if not coords.any():
        raise ParameterError("active set is undefined at u = 0")
    rho = float(_luxemburg_rows(spec, coords[None])[0])
    weighted = spec.net.psi * coords
    inside = weighted >= rho
    if np.all(inside):
        margin = 1.0
    else:
        margin = 1.0 - float(np.max(weighted[~inside])) / rho
    max_psi = float(np.max(spec.net.psi))
    return ActiveSet(indices=tuple(np.flatnonzero(inside)),
                     margin=margin, phi_value=rho,
                     radius=margin * rho / (2.0 * max_psi))


def verify_claim2d(spec: PhiNormSpec, pool: PhiUnitPool) -> np.ndarray:
    """Sampled claim 2d: the excess of sup over unit g and pool samples u
    of |(h tensor g)(u)| / ||u||_phi over 1/theta(h), per net point h.

    Pi(u)(h) is the sup over unit g of |(h tensor g)(u)|, so one column
    max of the pool's coordinate rows over its norms covers every g.
    Sampling gives a lower bound of the sup: excess <= tol means no
    violation was found at this pool's fidelity.  An empty pool gives
    -1/theta(h).
    """
    values = pi_coords_batch(spec, pool.samples)
    values /= pool.norms[:, None]
    return values.max(axis=0, initial=0.0) - 1.0 / spec.net.theta


@dataclass(frozen=True)
class DirectionReport:
    """Central differences of t -> normfn(x + t d) across steps."""

    direction: np.ndarray
    steps: tuple
    first_diffs: tuple
    second_diffs: tuple
    richardson: float
    slope: float
    kink: bool


def _check_steps(steps, x, direction) -> list:
    """Finite-difference steps as floats: non-empty, finite, positive,
    strictly decreasing and each moving x along direction, or
    ParameterError."""
    steps = [float(h) for h in steps]
    # written to fail on NaN too
    if not (steps and all(0.0 < h < np.inf for h in steps)
            and all(h2 < h1 for h1, h2 in zip(steps, steps[1:]))):
        raise ParameterError(f"steps must be non-empty, finite, positive "
                             f"and strictly decreasing, got {steps}")
    for h in steps:
        if np.array_equal(x + h * direction, x):
            raise ParameterError(
                f"step {h} underflows at x in direction {direction}")
    return steps


def smoothness_check(normfn, x, direction, steps) -> DirectionReport:
    """Probe first/second central differences of normfn along the line
    through x in direction.

    A kink is flagged when the second difference grows like a negative
    power of h (log-log slope <= -0.5) at non-negligible size
    (median |D2 * h| >= 1e-6); both gates together keep
    root-finding noise, which also scales like 1/h^2, from being
    mistaken for a derivative jump.
    """
    x = np.asarray(x, dtype=float)
    d = np.asarray(direction, dtype=float)
    if not x.any():
        raise ParameterError("smoothness probe needs x != 0")
    steps = _check_steps(steps, x, d)

    g0 = float(normfn(x))
    first, second = [], []
    for h in steps:
        gp = float(normfn(x + h * d))
        gm = float(normfn(x - h * d))
        first.append((gp - gm) / (2.0 * h))
        second.append((gp - 2.0 * g0 + gm) / h ** 2)
    rich = max((abs(b - a) for a, b in zip(first, first[1:])), default=0.0)
    mags = np.abs(second)
    if np.count_nonzero(mags) >= 2:
        mask = mags > 0.0
        slope = float(np.polyfit(np.log(np.asarray(steps)[mask]),
                                 np.log(mags[mask]), 1)[0])
    else:
        slope = 0.0
    scale = float(np.median(mags * np.asarray(steps)))
    return DirectionReport(
        direction=d, steps=tuple(steps), first_diffs=tuple(first),
        second_diffs=tuple(second), richardson=rich, slope=slope,
        kink=slope <= -0.5 and scale >= 1e-6)
