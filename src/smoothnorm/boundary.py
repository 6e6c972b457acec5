"""Piecewise boundary decompositions, psi weights, and separated nets.

A decomposition splits a set of dual-ball functionals into finitely many
pieces L_0, ..., L_N.  Each functional f gets a weight

    psi(f) = 1 + (1/2) * eps * 2^(-n(f)) * (1 + (1/4) * sum_{i in I(f)} 2^(-i))

where I(f) is the set of piece indices whose closure contains f (declared
data, default: f's own piece) and n(f) = min I(f).  The per-piece scale is

    eps_n = eps * 4^(-n) / 96,

and each piece is split into half-open psi-bins of width eps_n anchored
at 1 + k*eps_n, then thinned to a greedy maximal eps_n-separated net in
the dual metric.  Every member f of a bin then has a net point h with
||f - h|| <= eps_n and |psi(f) - psi(h)| <= eps_n, which is the
approximation property the smooth-renorming construction consumes.

The greedy net is exact and batched.  Every dual metric here bounds the
l-infinity distance from above (l1 >= l-inf, l2 >= l-inf, and both
Lorentz duals have w_0 = 1), so ||f - h|| < eps_n implies
max |f - h| < eps_n.  Each bin is therefore first compared in l-infinity
against its earlier kept members, in row blocks whose temporaries stay
at a few MB: m^2 * dim / 2 vectorised element operations at most for a
bin of m members, fewer once members are rejected.  Each candidate then
costs one ``dual_norm_rows`` call on the kept points that pass, and none
when no kept point does.  Greedy order and ties are those of the plain
pairwise loop, so the net is the same.

Net points carry theta(f) = psi(f) - eps_n; theta > 1 holds for every
valid closure oracle (psi - 1 >= (eps/2) * 2^(-n) > eps_n since
n(f) <= n), and is still checked per instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConstructionError, ParameterError

__all__ = [
    "Piece",
    "ClosureOracle",
    "Decomposition",
    "NetPoint",
    "NetB",
    "epsilon_n",
    "psi_binning",
    "build_net",
    "net_property_report",
    "check_boundary",
    "check_lrc_criterion",
]

DUAL_BALL_TOL = 1e-9
# Elements of each l-infinity prefilter temporary (2 MB).
_PREFILTER_ELEMS = 1 << 18


def _key(f) -> bytes:
    # adding 0.0 folds -0.0 into +0.0 so signed zeros share a key
    return (np.asarray(f, dtype=float) + 0.0).tobytes()


def epsilon_n(eps, n) -> float:
    """Separation scale of piece n: eps * 4^(-n) / 96."""
    if not (0.0 < eps < 1.0):
        raise ParameterError("eps must lie in (0, 1)")
    if n < 0:
        raise ParameterError("piece index must be >= 0")
    return eps * 4.0 ** (-n) / 96.0


def _psi_value(eps, index_set) -> float:
    nf = min(index_set)
    isum = 0.0
    for i in sorted(index_set):
        isum += 2.0 ** (-i)
    return 1.0 + 0.5 * eps * (2.0 ** (-nf)) * (1.0 + 0.25 * isum)


@dataclass(frozen=True)
class Piece:
    """One level of a decomposition: an (m, dim) array of functionals."""

    index: int
    members: np.ndarray
    label: str = ""

    def __post_init__(self):
        members = np.atleast_2d(np.asarray(self.members, dtype=float))
        object.__setattr__(self, "members", members)
        if self.index < 0:
            raise ParameterError("piece index must be >= 0")

    def __len__(self):
        return self.members.shape[0]


class ClosureOracle:
    """Declared closure data: (piece, member) -> set of piece indices.

    The default for an unlisted member is the singleton of its own
    piece.  Every listed set must contain the member's own piece.
    """

    def __init__(self, entries=None):
        self._entries = {}
        for key, idx in (entries or {}).items():
            n, j = key
            idx = frozenset(int(i) for i in idx)
            if n not in idx:
                raise ParameterError(
                    f"closure set for member {key} must contain its own "
                    f"piece {n}")
            if min(idx) < 0:
                raise ParameterError("closure sets contain a negative index")
            self._entries[(int(n), int(j))] = idx

    def index_set(self, n, j) -> frozenset:
        return self._entries.get((n, j), frozenset((n,)))


class Decomposition:
    """Pieces + epsilon + ambient space + optional closure oracle.

    Validates on construction: eps in (0, 1), consecutive piece indices
    from 0, pairwise-disjoint pieces, and (when the ambient dual norm is
    exact) membership of every functional in the dual ball up to 1e-9.
    With a surrogate dual metric the ball check is recorded as skipped.
    """

    def __init__(self, space, pieces, epsilon, closure=None):
        if not (0.0 < epsilon < 1.0):
            raise ParameterError("epsilon must lie in (0, 1)")
        norm_pieces = []
        for n, p in enumerate(pieces):
            if not isinstance(p, Piece):
                p = Piece(index=n, members=p, label=f"L{n}")
            if p.index != n:
                raise ParameterError(
                    f"piece indices must be consecutive from 0; "
                    f"piece {n} has index {p.index}")
            if p.members.shape[1] != space.dim:
                raise ParameterError("piece members must match space dim")
            norm_pieces.append(p)
        if not norm_pieces:
            raise ParameterError("decomposition needs at least one piece")

        self.space = space
        self.pieces = tuple(norm_pieces)
        self.epsilon = float(epsilon)
        self.closure = closure if closure is not None else ClosureOracle()
        self.dual_ball_checked = space.dual_metric == "exact"

        seen = {}
        for p in self.pieces:
            if self.dual_ball_checked:
                dn = space.dual_norm_rows(p.members)
                outside = np.flatnonzero(dn > 1.0 + DUAL_BALL_TOL)
                if outside.size:
                    j = int(outside[0])
                    raise ConstructionError(
                        f"piece {p.index} member {j} has dual norm "
                        f"{float(dn[j])} > 1 + {DUAL_BALL_TOL}")
            for j, f in enumerate(p.members):
                key = _key(f)
                if key in seen and seen[key][0] != p.index:
                    raise ConstructionError(
                        f"functional appears in pieces {seen[key][0]} "
                        f"and {p.index}; pieces must be disjoint")
                seen.setdefault(key, (p.index, j))
        self._locate = seen

        for (n, j), idx in self.closure._entries.items():
            if n >= len(self.pieces) or j >= len(self.pieces[n]):
                raise ParameterError(
                    f"closure entry ({n}, {j}) is not a member")
            if max(idx) >= len(self.pieces):
                raise ParameterError(
                    f"closure entry ({n}, {j}) references a missing piece")

    def locate(self, f):
        """(piece, member) position of a functional, by exact identity."""
        key = _key(f)
        if key not in self._locate:
            raise ParameterError("functional is not a member of any piece")
        return self._locate[key]

    def psi_of(self, n, j) -> float:
        """psi weight of member j of piece n (see module docstring)."""
        return _psi_value(self.epsilon, self.closure.index_set(n, j))


def psi_binning(psis, eps_n):
    """Group member indices into half-open psi-bins of width eps_n.

    Bin k covers [1 + k*eps_n, 1 + (k+1)*eps_n).  Returns
    {bin id: list of member indices} with bins and members in stable
    order.  Each bin's psi diameter is < eps_n by construction.
    """
    if eps_n <= 0.0:
        raise ParameterError("eps_n must be positive")
    bins: dict[int, list[int]] = {}
    for j, v in enumerate(psis):
        k = int(np.floor((v - 1.0) / eps_n))
        bins.setdefault(k, []).append(j)
    return {k: bins[k] for k in sorted(bins)}


def _linf_distances(X, Y):
    """(len(X), len(Y)) l-infinity distances, as a maximum over
    coordinate slabs."""
    diff = (np.ascontiguousarray(X.T)[:, :, None]
            - np.ascontiguousarray(Y.T)[:, None, :])
    return np.max(np.abs(diff, out=diff), axis=0)


def _greedy_indices(members, separation, metric_rows):
    """Greedy maximal separated subset of the rows, in input order.

    A row is kept iff ``metric_rows`` puts it at distance >= separation
    from every previously kept row; otherwise its home is the first kept
    row, in kept order, closer than separation.  ``metric_rows`` maps a
    (k, dim) array of differences to (k,) distances and must bound
    max |row| from above, so only kept rows within l-infinity distance
    < separation are passed to it.  Returns (kept indices, home position
    in ``kept`` of every row).
    """
    members = np.atleast_2d(np.asarray(members, dtype=float))
    m = members.shape[0]
    position = np.full(m, -1)
    kept: list[int] = []
    assign: list[int] = []
    block = max(1, _PREFILTER_ELEMS // max(m * members.shape[1], 1))
    for start in range(0, m, block):
        stop = min(start + block, m)
        # columns: every row kept before this block, then the block itself,
        # whose rows count only once kept (so only those before row i)
        cols = np.arange(start, stop)
        if kept:
            cols = np.concatenate([kept, cols])
        near = (_linf_distances(members[start:stop], members[cols])
                < separation)
        for i, cand in enumerate([cols[r] for r in near], start):
            cand = cand[position[cand] >= 0]
            home = -1
            if cand.size:
                hits = np.flatnonzero(
                    metric_rows(members[i] - members[cand]) < separation)
                if hits.size:
                    home = int(position[cand[hits[0]]])
            if home < 0:
                position[i] = home = len(kept)
                kept.append(i)
            assign.append(home)
    return kept, assign


@dataclass(frozen=True)
class NetPoint:
    """A net functional with its weights and originating piece."""

    functional: np.ndarray
    piece: int
    member: int
    bin_id: int
    psi: float
    theta: float


@dataclass
class NetB:
    """Union of the per-piece nets, with the member -> net assignment."""

    points: list[NetPoint]
    per_piece: list[list[int]]
    assignment: dict
    separations: list[float]
    metric_kind: str
    matrix: np.ndarray = field(init=False)

    def __post_init__(self):
        self.matrix = np.asarray([p.functional for p in self.points])

    def __len__(self):
        return len(self.points)


def build_net(d: Decomposition) -> NetB:
    """Bin each piece by psi, thin each bin to a greedy eps_n-net.

    The assignment maps every (piece, member) to a flat net index h with
    ||f - h||_dual <= eps_n and |psi(f) - psi(h)| <= eps_n (same bin).
    Raises ConstructionError if any net point has theta <= 1.
    """
    points: list[NetPoint] = []
    per_piece: list[list[int]] = []
    assignment: dict = {}
    separations: list[float] = []

    for p in d.pieces:
        eps_n = epsilon_n(d.epsilon, p.index)
        separations.append(eps_n)
        psis = [d.psi_of(p.index, j) for j in range(len(p))]
        flat_here: list[int] = []
        for bin_id, members in psi_binning(psis, eps_n).items():
            rows = p.members[members]
            kept, assign = _greedy_indices(rows, eps_n,
                                            d.space.dual_norm_rows)
            base = len(points)
            for pos in kept:
                j = members[pos]
                value = psis[j]
                theta = value - eps_n
                if not theta > 1.0:
                    raise ConstructionError(
                        f"net point in piece {p.index} has theta = "
                        f"{theta} <= 1")
                points.append(NetPoint(
                    functional=p.members[j].copy(), piece=p.index,
                    member=j, bin_id=bin_id, psi=value, theta=theta))
                flat_here.append(base + len(flat_here))
            for pos, j in enumerate(members):
                assignment[(p.index, j)] = base + assign[pos]
        per_piece.append(flat_here)

    return NetB(points=points, per_piece=per_piece, assignment=assignment,
                separations=separations, metric_kind=d.space.dual_metric)


@dataclass(frozen=True)
class NetPropertyReport:
    """Worst slack of the net approximation property over all members."""

    checked: int
    max_distance_excess: float
    max_psi_excess: float

    @property
    def passed(self) -> bool:
        return self.max_distance_excess <= 0.0 and self.max_psi_excess <= 0.0


def net_property_report(d: Decomposition, net: NetB) -> NetPropertyReport:
    """Verify ||f - h|| <= eps_n and |psi(f) - psi(h)| <= eps_n for the
    assigned net point h of every member f."""
    checked = 0
    max_dist = -np.inf
    max_psi = -np.inf
    for p in d.pieces:
        eps_n = epsilon_n(d.epsilon, p.index)
        homes = np.asarray([net.assignment[(p.index, j)]
                            for j in range(len(p))], dtype=int)
        dist = d.space.dual_norm_rows(p.members - net.matrix[homes])
        dpsi = np.abs(np.asarray([d.psi_of(p.index, j)
                                  for j in range(len(p))])
                      - np.asarray([net.points[h].psi for h in homes]))
        max_dist = max(max_dist, np.max(dist - eps_n, initial=-np.inf))
        max_psi = max(max_psi, np.max(dpsi - eps_n, initial=-np.inf))
        checked += len(p)
    return NetPropertyReport(checked=checked,
                             max_distance_excess=float(max_dist),
                             max_psi_excess=float(max_psi))


@dataclass(frozen=True)
class BoundaryReport:
    """Per-sample sup of f(x) over the candidate boundary set."""

    max_values: np.ndarray
    attained: np.ndarray
    tol: float

    @property
    def passed(self) -> bool:
        return bool(np.all(self.attained))


def check_boundary(space, functionals, sphere_samples, tol=1e-9):
    """Check sup_f f(x) reaches 1 (within tol) on unit-sphere samples.

    Samples must be normalized: any ||x|| outside 1 +- tol-ish is a
    parameter error, not a failed check.
    """
    A = np.atleast_2d(np.asarray(functionals, dtype=float))
    X = np.atleast_2d(np.asarray(sphere_samples, dtype=float))
    if A.shape[1] != space.dim or X.shape[1] != space.dim:
        raise ParameterError("shape mismatch with space dim")
    norm_tol = max(tol, 1e-7)
    norms = space.norm_rows(X)
    off = np.flatnonzero(np.abs(norms - 1.0) > norm_tol)
    if off.size:
        raise ParameterError(
            f"sample has norm {float(norms[off[0]])}, expected 1 within "
            f"{norm_tol}")
    vals = X @ A.T
    max_values = np.max(vals, axis=1)
    attained = max_values >= 1.0 - tol
    return BoundaryReport(max_values=max_values, attained=attained, tol=tol)


@dataclass(frozen=True)
class LrcReport:
    """Finite-scale w*-relative-compactness criterion for one piece:
    all members share one support cardinality."""

    cardinalities: tuple
    passed: bool


def check_lrc_criterion(members) -> LrcReport:
    members = np.atleast_2d(np.asarray(members, dtype=float))
    if members.size == 0:
        return LrcReport(cardinalities=(), passed=True)
    cards = tuple(sorted({int(np.count_nonzero(f)) for f in members}))
    return LrcReport(cardinalities=cards, passed=len(cards) <= 1)
