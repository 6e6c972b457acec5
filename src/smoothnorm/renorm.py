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
of consecutive net points (PhiNormSpec.runs; 7 on the dim-7 net), and
PhiNormSpec.family holds one bump per run: a kept term is evaluated
through its run's member, and its net column only gives its coordinate.
Both roundings of fl(fl(c / peak) * w) do not fall as c rises, so a
run's largest weighted term is its column maximum, weighted.  L and the
rule's verdict on each (row, run) pair therefore come exactly from
per-run column maxima, and the rule itself, unchanged, runs only on the
columns of the pairs that pass: it keeps the same terms as over the
whole row.  The maxima are held run-major, a contiguous (runs x n)
array, so that a row's peak, L and pair test are passes over whole
rows: numpy pays some 45 ns per row to reduce a row of 3 to 8 entries
on its own.  Every gather and scatter on the batch path takes flat
indices, as 2-D fancy indexing costs about four times a take.  Only
maxima and indices change layout; every sum keeps its order.

Nor is an array of a whole batch's coordinates needed.  A batch runs in
the row blocks of boundary.row_blocks, a row being len(net) floats
wide, times dim Y for a euclidean factor: pi_coords_batch fills its
output one block at a time, and a call that fits in one block (every
phi_norm) takes a single matrix product and no loop.  A pass that needs
more than the norms computes each block's coordinates once, into one
reused buffer (_coord_blocks), and reads both from that array:
phi_norm_batch evaluates there, verify_claim2d divides the block by its
norms in place and takes a running column max, and verify.active_sets
counts its probes' woken bumps block by block.  A scalar-factor row's
coordinates, and so its value's last bits, depend on its block, which
is a fixed function of the row count and the net size.

Every row is bisected to float resolution (``tol=0.0``) from a start
on that scale, so its value is the whole-net one at ``tol=0.0``
whatever the start.  The start comes from orlicz.modular_inverse's
table, z*_h(k) for k copies of bump h, through s_h(z), the smallest
float s with fl(u_h / s) <= z (_smallest_scale).  The spec keeps these
values as a (run x k) array, one row per family member, filled
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

from .boundary import NetB, build_net, check_boundary, row_blocks
from .errors import ConstructionError, ParameterError, check_integer
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
    fixes: its runs and its bump family, one member per run (module
    docstring).

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
        edge = np.ones(len(psi) + 1, dtype=bool)
        edge[1:-1] = (psi[1:] != psi[:-1]) | (theta[1:] != theta[:-1])
        bounds = np.flatnonzero(edge)
        start = bounds[:-1]
        self.runs = NetRuns(start, bounds[1:] - start, psi[start],
                            theta[start])
        self.family = OrliczFamily([make_orlicz(z, e) for z, e in zip(
            (1.0 / self.runs.psi).tolist(), (1.0 / self.runs.theta).tolist())])
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
    one entry per net point, in net order: the one-row pi_coords_batch,
    whose one row is always one block."""
    if isinstance(u, TensorElement):
        u = u.matrix
    batch = _checked_batch(spec, np.asarray(u, dtype=float)[None])
    return _coords(spec, batch)[0]


def _kept_terms(spec: PhiNormSpec, coords):
    """The pruning rule of the module docstring on (n, len(net))
    nonnegative coordinate rows, from per-run column maxima: per row the
    peak and L (NaN for a zero row), and the kept (row, column) pairs in
    row-major order, with each pair's run."""
    start, size, psi, theta = spec.runs
    m = coords.shape[1]
    with np.errstate(divide="ignore", invalid="ignore"):
        # run-major, (runs, n): a reduction over a row's runs is then a
        # pass over contiguous rows, not a few entries per row
        top = np.maximum.reduceat(coords, start, axis=1).T.copy()
        peak = np.maximum.reduce(top)
        top /= peak
        bound = np.maximum.reduce(top * theta[:, None])
        cut = bound * (1.0 - PRUNE_TOL)
        top *= psi[:, None]
        # the (row, run) pairs that pass, expanded to their columns
        r, k = (top > cut).T.nonzero()
        size = size[k]
        ends = size.cumsum()
        r = r.repeat(size)
        j = (start[k] - ends + size).repeat(size) + np.arange(len(r))
        keep = coords.take(r * m + j) / peak[r] * spec.net.psi[j] > cut[r]
    return peak, bound, r[keep], j[keep], k.repeat(size)[keep]


def _luxemburg_rows(spec: PhiNormSpec, coords):
    """Luxemburg norms over the net's bumps of (n, len(net)) nonnegative
    coordinate rows, bisecting only the terms the pruning rule of the
    module docstring keeps, each through its run's member of
    spec.family, from the brackets it describes."""
    n, m = coords.shape
    family = spec.family
    peak, _, r, j, run = _kept_terms(spec, coords)
    counts = np.bincount(r, minlength=n)
    width = counts.max(initial=0) + 1
    first = counts.cumsum() - counts
    lead = first[r]
    # each kept term's flat index into the (n, width) arrays; in cols, a
    # term is its run, the family member of its bump
    at = r * width + (np.arange(len(r)) - lead)
    cols = np.full((n, width), len(family))
    cols.ravel()[at] = run
    vals = np.repeat(peak[:, None], width, axis=1)
    c = coords.take(r * m + j)
    vals.ravel()[at] = c

    # per row, T = max_h s_h(z*_h(k)) over its kept terms (module
    # docstring); a zero row keeps none, and its NaN start is no start
    hi = np.full(n, np.nan)
    rows = counts.nonzero()[0]
    u = c / peak[r]
    hi[rows] = np.maximum.reduceat(_table_scales(spec, u, run, counts[r]),
                                   first[rows])
    # T is a single-class row's answer: it starts one float below.  Any
    # other row, where some kept term differs from the row's first in its
    # bump or coordinate, starts around Newton from T
    lo = np.nextafter(hi, 0.0)
    run0 = run[lead]
    zero, exceed = family.zero_thresholds, family.exceed_thresholds
    other = ((c != c[lead]) | (zero[run] != zero[run0])
             | (exceed[run] != exceed[run0]))
    multi = np.bincount(r[other], minlength=n) > 0
    if multi.any():
        rows = multi.nonzero()[0]
        t = multi[r]
        guess = newton_scales(family, u[t], run[t],
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


def _table_scales(spec, u, runs, counts):
    """Per kept term, s(z*(k)) for its peak-normalized coordinate u, its
    run's bump and the count k (module docstring)."""
    return _smallest_scale(u, _zstar(spec, runs, counts))


def _zstar(spec, runs, counts):
    """Per kept term, z*(k) of the bump of run runs[t] for the count
    k = counts[t] >= 1: one gather from spec._zstar, a (run x k) table
    whose missing entries are filled through modular_inverse.  An entry
    depends only on (bump, k), so a fill that a concurrent call loses by
    widening the table is only refilled, from modular_inverse's caches."""
    table = spec._zstar
    width = counts.max(initial=0) + 1
    if width > table.shape[1]:
        wider = np.full((len(table), width), np.nan)
        wider[:, :table.shape[1]] = table
        spec._zstar = table = wider
    z = table[runs, counts]
    missing = np.isnan(z)
    if missing.any():
        # one entry per (run, k) pair
        pairs = np.unique(runs[missing] * table.shape[1] + counts[missing])
        run_k = np.divmod(pairs, table.shape[1])
        fns = [spec.family.functions[run] for run in run_k[0].tolist()]
        table[run_k] = modular_inverse(fns, run_k[1])
        z = table[runs, counts]
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


def _checked_batch(spec: PhiNormSpec, batch) -> np.ndarray:
    """The batch as floats of shape (n, *spec.sample_shape), all finite,
    or ParameterError."""
    batch = np.asarray(batch, dtype=float)
    if batch.shape[1:] != spec.sample_shape:
        raise ParameterError(f"expected a batch of shape (n, "
                             f"*{spec.sample_shape}), got {batch.shape}")
    if not np.isfinite(batch).all():
        raise ParameterError("coordinates must be finite")
    return batch


def _blocks(spec: PhiNormSpec, n) -> list[slice]:
    """boundary.row_blocks over n rows against the net: a row's width is
    its len(net) coordinates, times dim Y for a euclidean factor, whose
    slice norms hold dim Y floats per coordinate."""
    width = len(spec.net) if spec.Y is None else len(spec.net) * spec.Y.dim
    return row_blocks(n, width)


def _coords(spec: PhiNormSpec, batch, out=None) -> np.ndarray:
    """Coordinate rows of a checked batch, by one matrix product for the
    scalar factor, into `out` when given."""
    A = spec.net.matrix
    if spec.Y is None:
        coords = np.matmul(batch, A.T, out=out)
        return np.abs(coords, out=coords)
    return _slice_norms(A, batch, out=out)


def pi_coords_batch(spec: PhiNormSpec, batch) -> np.ndarray:
    """Coordinate rows for a batch: (n, dim X) vectors or
    (n, dim X, dim Y) matrices -> (n, len(net)), filled one row block
    (_blocks) at a time.  A NaN or inf entry is a ParameterError."""
    batch = _checked_batch(spec, batch)
    blocks = _blocks(spec, len(batch))
    if len(blocks) < 2:
        return _coords(spec, batch)
    coords = np.empty((len(batch), len(spec.net)))
    for block in blocks:
        _coords(spec, batch[block], out=coords[block])
    return coords


def _coord_blocks(spec: PhiNormSpec, batch):
    """(block, coords, norms) per row block (_blocks) of a checked batch:
    the block's coordinate rows from one product, and their phi-norms
    read from that same array.  Every block is written into one buffer,
    so no two blocks are ever held at once, and a block's coords are
    only valid until the next is asked for."""
    blocks = _blocks(spec, len(batch))
    if not blocks:
        return
    buffer = np.empty((blocks[0].stop, len(spec.net)))
    for block in blocks:
        coords = _coords(spec, batch[block],
                         out=buffer[:block.stop - block.start])
        yield block, coords, _luxemburg_rows(spec, coords)


def phi_norm_batch(spec: PhiNormSpec, batch) -> np.ndarray:
    """phi-norms of a batch, one vectorized bisection per row block
    (_blocks), so no n x net array is held: a batch of one gives
    phi_norm's bits, and a row gets the bits of its pi_coords_batch
    row.  With the scalar factor, the matrix product may round a row
    differently in another block, and so its last bits; a
    euclidean-factor row's bits do not depend on the batch."""
    batch = _checked_batch(spec, batch)
    if len(_blocks(spec, len(batch))) < 2:
        return _luxemburg_rows(spec, _coords(spec, batch))
    return np.concatenate([norms for *_, norms in _coord_blocks(spec, batch)])


@dataclass(frozen=True)
class PhiUnitPool:
    """Gaussian samples of positive phi-norm and those norms, from one
    batch; verify.active_sets divides the samples by their norms to get
    points of the phi-unit sphere.
    """

    samples: np.ndarray
    norms: np.ndarray


def _draw(spec: PhiNormSpec, count, seed) -> np.ndarray:
    """`count` gaussian samples of spec's sample shape from
    default_rng(seed); a count that is not a nonnegative integer is a
    ParameterError."""
    if check_integer(count, "sample count") < 0:
        raise ParameterError(
            f"sample count must be a nonnegative integer, got {count!r}")
    return np.random.default_rng(seed).standard_normal(
        (count, *spec.sample_shape))


def phi_unit_pool(spec: PhiNormSpec, count, seed=0):
    """Draw `count` nonzero gaussian samples and compute their
    phi-norms in one batch."""
    samples = _draw(spec, count, seed)
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


def verify_claim2d(spec: PhiNormSpec, samples) -> tuple[np.ndarray, int]:
    """Sampled claim 2d: the excess of sup over unit g and samples u of
    |(h tensor g)(u)| / ||u||_phi over 1/theta(h), per net point h, and
    the number of samples with a positive phi-norm, the ones it ran on.

    Pi(u)(h) is the sup over unit g of |(h tensor g)(u)|, so one column
    max of the samples' coordinate rows over their norms covers every g.
    Sampling gives a lower bound of the sup: excess <= tol means no
    violation was found at this draw's fidelity.  No sample with a
    positive norm gives -1/theta(h).  Each row block's coordinates are
    computed once (_coord_blocks): they are normed, then divided in
    place by their norms, a zero row's by inf, so that it adds nothing,
    and folded into a running column max.  No n x net array is held.
    """
    samples = _checked_batch(spec, samples)
    top = np.zeros(len(spec.net))
    kept = 0
    for _, coords, norms in _coord_blocks(spec, samples):
        positive = norms > 0.0
        kept += int(np.count_nonzero(positive))
        coords /= np.where(positive, norms, np.inf)[:, None]
        np.maximum(top, coords.max(axis=0), out=top)
    return top - 1.0 / spec.net.theta, kept


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
