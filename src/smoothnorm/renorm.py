"""Smooth approximating norms assembled from a separated net.

Given a decomposition of a norming set for X into pieces, build_net
thins it to net points h, each carrying weights theta(h) < psi(h).  Each
net point gets a smooth convex bump phi_h vanishing on [0, 1/psi(h)]
and exceeding 1 at 1/theta(h), and the approximating norm of u is the
Luxemburg norm of the coordinate vector

    Pi(u)(h) = |h(u)|            (scalar factor)
    Pi(u)(h) = ||h @ u||_2       (euclidean factor, u a matrix)

over the family {phi_h}.  The construction satisfies
||u|| <= ||u||_phi <= (1 + eps) ||u||, with the left inequality strict
for u != 0, and depends only on finitely many coordinates near any
point: active_set computes the explicit stability radius.

smoothness_check is the numerical surrogate for smoothness claims: it
contrasts second-difference blowup of a kinked norm (growing like 1/h)
against the bounded behavior of a smooth one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boundary import NetB, build_net, check_boundary
from .errors import ConstructionError, ParameterError
from .orlicz import (OrliczFamily, luxemburg_norm, luxemburg_norm_batch,
                     make_orlicz)
from .spaces import EuclideanSpace, ModelSpace
from .tensor import TensorElement

__all__ = [
    "PhiNormSpec",
    "ActiveSet",
    "Claim2dReport",
    "DirectionReport",
    "SmoothnessReport",
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

THRESHOLD_TOL = 1e-12


@dataclass
class PhiNormSpec:
    """A built approximating norm: net, bump family, and factor space.

    Y is None for the scalar factor, else a euclidean ModelSpace.
    """

    net: NetB
    family: OrliczFamily
    X: ModelSpace
    Y: ModelSpace | None
    epsilon: float
    psi_values: np.ndarray
    theta_values: np.ndarray

    def __post_init__(self):
        if len(self.family.functions) != len(self.net):
            raise ConstructionError("family must index the net points")
        for fn, p in zip(self.family.functions, self.net.points):
            if abs(fn.zero_threshold * p.psi - 1.0) > THRESHOLD_TOL:
                raise ConstructionError(
                    "zero threshold does not invert psi")
            if abs(fn.exceed_threshold * p.theta - 1.0) > THRESHOLD_TOL:
                raise ConstructionError(
                    "exceed threshold does not invert theta")


def _resolve_factor(Y):
    if Y is None or Y == "scalar":
        return None
    if isinstance(Y, EuclideanSpace):
        return Y
    raise ParameterError("factor space must be scalar or euclidean")


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
    """Verify the decomposition norms the sphere, then build the net
    and its bump family.

    The norming precondition is checked on boundary_samples, or on
    `budget` random unit vectors when none are supplied; failure is a
    construction error.
    """
    Y = _resolve_factor(Y)
    if d.space is not X and (d.space.kind, d.space.dim) != (X.kind, X.dim):
        raise ParameterError("decomposition was built over a different space")
    samples = (np.atleast_2d(np.asarray(boundary_samples, dtype=float))
               if boundary_samples is not None
               else _sphere_samples(X, budget, seed))
    stacked = np.vstack([p.members for p in d.pieces])
    report = check_boundary(X, stacked, samples, tol=boundary_tol)
    if not report.passed:
        worst = float(np.min(report.max_values))
        raise ConstructionError(
            f"functionals do not norm the sample sphere; worst sup "
            f"f(x) = {worst}")

    net = build_net(d)
    functions = [make_orlicz(1.0 / p.psi, 1.0 / p.theta)
                 for p in net.points]
    family = OrliczFamily(functions)
    return PhiNormSpec(
        net=net, family=family, X=X, Y=Y, epsilon=d.epsilon,
        psi_values=np.asarray([p.psi for p in net.points]),
        theta_values=np.asarray([p.theta for p in net.points]))


def _coerce_matrix(spec, u):
    if isinstance(u, TensorElement):
        return u.matrix
    M = np.asarray(u, dtype=float)
    if M.ndim != 2:
        raise ParameterError("euclidean factor expects a matrix argument")
    return M


def pi_coords(spec: PhiNormSpec, u) -> np.ndarray:
    """Coordinate vector of u, one entry per net point, in net order."""
    if spec.Y is None:
        u = np.asarray(u, dtype=float)
        if u.shape != (spec.X.dim,):
            raise ParameterError("vector length does not match dim X")
        return np.abs(spec.net.matrix @ u)
    M = _coerce_matrix(spec, u)
    if M.shape != (spec.X.dim, spec.Y.dim):
        raise ParameterError("matrix shape does not match dim X x dim Y")
    return np.linalg.norm(spec.net.matrix @ M, axis=1)


def phi_norm(spec: PhiNormSpec, u, tol=1e-10) -> float:
    """Luxemburg norm of the coordinate vector of u."""
    return luxemburg_norm(spec.family, pi_coords(spec, u), tol=tol)


def pi_coords_batch(spec: PhiNormSpec, batch) -> np.ndarray:
    """Coordinate rows for a batch: (n, dim X) vectors or
    (n, dim X, dim Y) matrices -> (n, len(net))."""
    batch = np.asarray(batch, dtype=float)
    A = spec.net.matrix
    if spec.Y is None:
        if batch.ndim != 2 or batch.shape[1] != spec.X.dim:
            raise ParameterError("expected (n, dim X) vectors")
        return np.abs(batch @ A.T)
    if batch.ndim != 3 or batch.shape[1:] != (spec.X.dim, spec.Y.dim):
        raise ParameterError("expected (n, dim X, dim Y) matrices")
    return np.linalg.norm(np.einsum("pi,nij->npj", A, batch), axis=2)


def phi_norm_batch(spec: PhiNormSpec, batch, tol=1e-10) -> np.ndarray:
    """phi_norm of each batch element via one vectorized bisection."""
    return luxemburg_norm_batch(spec.family, pi_coords_batch(spec, batch),
                                tol=tol)


@dataclass(frozen=True)
class PhiUnitPool:
    """A reusable pool of random samples with certified phi-norms.

    Pairing values against the pool divide by `norms` instead of
    rescaling the samples, which keeps the feasibility certificate of
    the batched Luxemburg computation intact.
    """

    samples: np.ndarray
    norms: np.ndarray


def phi_unit_pool(spec: PhiNormSpec, count, seed=0, tol=1e-10):
    """Draw `count` nonzero gaussian samples and compute their
    phi-norms in one batch."""
    rng = np.random.default_rng(seed)
    shape = ((count, spec.X.dim) if spec.Y is None
             else (count, spec.X.dim, spec.Y.dim))
    samples = rng.standard_normal(shape)
    norms = phi_norm_batch(spec, samples, tol=tol)
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


def active_set(spec: PhiNormSpec, u, tol=1e-10) -> ActiveSet:
    coords = pi_coords(spec, u)
    if not coords.any():
        raise ParameterError("active set is undefined at u = 0")
    rho = luxemburg_norm(spec.family, coords, tol=tol)
    weighted = spec.psi_values * coords
    inside = weighted >= rho
    if np.all(inside):
        margin = 1.0
    else:
        margin = 1.0 - float(np.max(weighted[~inside])) / rho
    max_psi = float(np.max(spec.psi_values))
    return ActiveSet(indices=tuple(np.flatnonzero(inside)),
                     margin=margin, phi_value=rho,
                     radius=margin * rho / (2.0 * max_psi))


@dataclass(frozen=True)
class Claim2dReport:
    """Sampled estimate of the dual phi-norm of one rank-one tensor.

    Sampling certifies a lower bound of the sup, so passed=True means
    no violation was found at this sampling fidelity.
    """

    point: int
    bound: float
    sampled_max: float
    count: int
    tol: float

    @property
    def passed(self) -> bool:
        return self.sampled_max <= self.bound + self.tol


def _point_index(spec, h):
    if isinstance(h, (int, np.integer)):
        if not 0 <= h < len(spec.net):
            raise ParameterError("net point index out of range")
        return int(h)
    for i, p in enumerate(spec.net.points):
        if p is h:
            return i
    raise ParameterError("h is not a point of this net")


def verify_claim2d(spec: PhiNormSpec, h, g=None, *, count=2000, seed=0,
                   tol=1e-7, norm_tol=1e-10, pool=None) -> Claim2dReport:
    """Sample the phi-unit ball for values of (h tensor g) above
    1/theta(h).

    Pass a PhiUnitPool to reuse one sample set across many net points.
    """
    idx = _point_index(spec, h)
    point = spec.net.points[idx]

    if spec.Y is None:
        g = 1.0 if g is None else float(g)
        if abs(abs(g) - 1.0) > 1e-9:
            raise ParameterError("g must be a unit scalar")
    else:
        if g is None:
            raise ParameterError("euclidean factor needs an explicit g")
        g = np.asarray(g, dtype=float)
        if g.shape != (spec.Y.dim,):
            raise ParameterError("g length does not match dim Y")
        if abs(np.linalg.norm(g) - 1.0) > 1e-9:
            raise ParameterError("g must have Euclidean norm 1")

    if pool is None:
        pool = phi_unit_pool(spec, count, seed=seed, tol=norm_tol)
    if spec.Y is None:
        values = abs(g) * np.abs(pool.samples @ point.functional) / pool.norms
    else:
        values = np.abs(np.einsum("i,nij,j->n", point.functional,
                                  pool.samples, g)) / pool.norms
    best = float(np.max(values)) if len(values) else 0.0
    return Claim2dReport(point=idx, bound=1.0 / point.theta,
                         sampled_max=best, count=len(pool.norms), tol=tol)


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


@dataclass(frozen=True)
class SmoothnessReport:
    point: np.ndarray
    records: tuple

    @property
    def any_kink(self) -> bool:
        return any(r.kink for r in self.records)


def smoothness_check(normfn, x, directions, steps, *, kink_slope=-0.5,
                     kink_scale=1e-6) -> SmoothnessReport:
    """Probe first/second central differences of normfn along lines.

    A kink is flagged when the second difference grows like a negative
    power of h (log-log slope <= kink_slope) at non-negligible size
    (median |D2 * h| >= kink_scale); both gates together keep
    root-finding noise, which also scales like 1/h^2, from being
    mistaken for a derivative jump.
    """
    x = np.asarray(x, dtype=float)
    if not x.any():
        raise ParameterError("smoothness probe needs x != 0")
    steps = [float(h) for h in steps]
    if any(h <= 0.0 for h in steps):
        raise ParameterError("steps must be positive")
    if any(h2 >= h1 for h1, h2 in zip(steps, steps[1:])):
        raise ParameterError("steps must be strictly decreasing")

    g0 = float(normfn(x))
    records = []
    for d in directions:
        d = np.asarray(d, dtype=float)
        first, second = [], []
        for h in steps:
            if np.array_equal(x + h * d, x):
                raise ParameterError(
                    f"step {h} underflows at x in direction {d}")
            gp = float(normfn(x + h * d))
            gm = float(normfn(x - h * d))
            first.append((gp - gm) / (2.0 * h))
            second.append((gp - 2.0 * g0 + gm) / h ** 2)
        rich = max((abs(b - a) for a, b in zip(first, first[1:])),
                   default=0.0)
        mags = np.abs(second)
        if np.count_nonzero(mags) >= 2:
            mask = mags > 0.0
            slope = float(np.polyfit(np.log(np.asarray(steps)[mask]),
                                     np.log(mags[mask]), 1)[0])
        else:
            slope = 0.0
        scale = float(np.median(mags * np.asarray(steps)))
        records.append(DirectionReport(
            direction=d, steps=tuple(steps), first_diffs=tuple(first),
            second_diffs=tuple(second), richardson=rich, slope=slope,
            kink=slope <= kink_slope and scale >= kink_scale))
    return SmoothnessReport(point=x, records=tuple(records))
