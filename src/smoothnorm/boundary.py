"""Piecewise boundary decompositions, psi weights, and separated nets.

A decomposition splits a set of dual-ball functionals into finitely many
pieces L_0, ..., L_N, given as arrays and held as aligned arrays over
the stacked members: each member's piece id and psi weight

    psi(f) = 1 + (1/2) * eps * 2^(-n(f)) * (1 + (1/4) * sum_{i in I(f)} 2^(-i))

where I(f) is the set of piece indices whose closure contains f (declared
data, a mapping (piece, member) -> indices; default: f's own piece) and
n(f) = min I(f).  The per-piece scale is

    eps_n = eps * 4^(-n) / 96,

and each piece is split into half-open psi-bins of width eps_n anchored
at 1 + k*eps_n, then thinned to a greedy maximal eps_n-separated net in
the dual metric.  Every member f of a bin then has a net point h with
||f - h|| <= eps_n and |psi(f) - psi(h)| <= eps_n, which is the
approximation property the smooth-renorming construction consumes.

The greedy net is exact.  Every dual metric here bounds the
l-infinity distance from above (l1 >= l-inf, l2 >= l-inf, and both
Lorentz duals have w_0 = 1), so ||f - h|| < eps_n implies
max |f - h| < eps_n.  A sieve first finds the members that no other
member of their bin comes that close to.  Each member gets the integer
keys floor(x / eps_n), and the members are sorted on (group, key), one
coordinate after another, starting from one group per piece and psi-bin;
a group is split wherever the key jumps by more than 2.  A pair within
l-infinity distance eps_n has exact quotients less than 1 apart, so
exact keys at most 1 apart; rounding x / eps_n up onto the next
integer can add 1 more, so 2 is the threshold that never separates a
near pair.  That bound needs every integer near the key to be a float,
so a key that is not finite or reaches 2^52 in magnitude never splits
a group.  A member left alone in its group
is kept and is its own home, whatever the greedy order, and it is near
no other member, so the greedy loop over the rest does not need it.

Every other member goes through the plain greedy loop, in input
order, one bin at a time: one vectorised l-infinity pass against the
bin's kept members so far, then one ``dual_norm_rows`` call on the kept
members that pass, and none when no kept member does.  Greedy order,
ties and homes are those of the plain pairwise loop, so the net is the
same.  On the lorentz_predual nets every member is isolated.

The net is a set of aligned arrays, one entry per net point in piece,
then psi-bin, then greedy order: the functional, psi, theta, piece and
bin; ``home`` gives each member's net point, aligned with the members.
Net points carry theta(f) = psi(f) - eps_n; theta > 1 holds for every
valid closure mapping (psi - 1 >= (eps/2) * 2^(-n) > eps_n since
n(f) <= n), and is still checked per instance.

Row identity (disjoint pieces, locate, missing, and equiv's repeated
functionals) is one RowIndex over the rows, with no Python work per
row.  Each row's float64 words, signed zeros folded, are mixed one by
one by murmur3's 64-bit finalizer, weighted by mixed per-position
words and summed modulo 2^64 into one key; the keys are sorted once.
The mix comes first because a sign flip changes only bit 63 of a word:
summed raw, two sign flips would cancel.  The position weights are
mixed too: with weights 2j + 1, distinct signed subsets share key sums
(positions {0, 3} and {1, 2} both sum to 8), and Decomposition.missing
on the lorentz_predual dim-10 ball then spent 1.7 s in the collision
fallback (2-core x86-64 VM).  Rows whose keys are equal are compared
exactly, and a collision (equal keys, different rows) falls back to
comparing the key's rows by their bytes, so the index answers exactly
as per-row byte keys do; a collision costs time, never an answer.  A
small row set, whose pairs hold at most _PAIRWISE_WORDS words (a few
dozen rows), compares every pair of rows word by word instead: a
handful of numpy calls, where keying, sorting and searching take some
thirty, each with a fixed cost that outweighs such a set's work.

Every pass of n rows against a set of columns (net points, members,
functionals) runs in the row blocks of row_blocks(n, width): runs of
max(1, BLOCK_ELEMS // width) consecutive rows, where width is a row's
float count in the pass's largest temporary.  No such temporary then
exceeds about BLOCK_ELEMS floats (8 MB), whatever n is, and the blocks
are a fixed function of n and width, so a row's bits repeat whenever
its call does.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (ConstructionError, NumericError, ParameterError,
                     check_integer)

__all__ = [
    "Decomposition",
    "NetB",
    "epsilon_n",
    "build_net",
    "net_property_report",
    "check_boundary",
    "check_lrc_criterion",
    "row_blocks",
]

DUAL_BALL_TOL = 1e-9
# floats in one row block of an n x columns pass (module docstring)
BLOCK_ELEMS = 2 ** 20
# Sieve keys at or above this magnitude never split a group (module
# docstring).
_KEY_LIMIT = 2.0 ** 52


# murmur3's 64-bit finalizer: each word of a row is mixed on its own
# before the row's words are summed (module docstring)
_MIX_SHIFT = np.uint64(33)
_MIX_MULTIPLIERS = (np.uint64(0xFF51AFD7ED558CCD),
                    np.uint64(0xC4CEB9FE1A85EC53))
# multiples of the golden-ratio word, mixed, weight a row's words by
# position (module docstring)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
# a row set whose pairs hold at most this many words is compared pair
# by pair (module docstring)
_PAIRWISE_WORDS = 2 ** 12
# words mixed per pass: 512 KB, which with its scratch stays in a core's
# cache (on a 2-core x86-64 VM, 2.2 ms for 59,048 x 10 words, against
# 4.6 ms for one pass over all of them)
_MIX_BLOCK = 2 ** 16


def _words(rows):
    """The rows' float64 words as uint64, in a new array (adding 0.0
    folds -0.0 into +0.0, so signed zeros share a word)."""
    return (rows + 0.0).view(np.uint64)


def _mix(words):
    """murmur3's 64-bit finalizer on every word, in place."""
    tmp = np.empty_like(words)
    for multiplier in _MIX_MULTIPLIERS:
        words ^= np.right_shift(words, _MIX_SHIFT, out=tmp)
        words *= multiplier
    words ^= np.right_shift(words, _MIX_SHIFT, out=tmp)
    return words


@functools.lru_cache(maxsize=None)
def _weights(width):
    """The position weights of a row of this width: multiples of the
    golden-ratio word, mixed (read-only, as the cache shares them)."""
    weights = _mix(np.arange(1, width + 1, dtype=np.uint64) * _GOLDEN)
    weights.flags.writeable = False
    return weights


def _row_hash(rows):
    """One uint64 key per row: its mixed words, weighted by position and
    summed modulo 2^64.  Equal rows (signed zeros folded) share a key.
    The words are mixed _MIX_BLOCK at a time, so that each pass over a
    block finds it in cache."""
    words = _words(rows)
    flat = words.reshape(-1)
    for at in range(0, flat.size, _MIX_BLOCK):
        _mix(flat[at:at + _MIX_BLOCK])
    return words @ _weights(rows.shape[1])


class RowIndex:
    """Identity index of a (n, dim) row set (module docstring).

    ``rows`` is the float array indexed, ``first`` gives each row the
    index of the first row equal to it (itself if none comes before),
    and ``find`` looks other rows up.  Rows are equal when their float64
    words are, after signed zeros are folded.  A small set, whose
    n * n * dim words fit in _PAIRWISE_WORDS, keeps its words and no
    keys.
    """

    def __init__(self, rows):
        self.rows = np.atleast_2d(np.asarray(rows, dtype=float))
        self._words = None
        if 0 < self.rows.size * len(self.rows) <= _PAIRWISE_WORDS:
            self._words = _words(self.rows)
            self.first = self._pairs(self._words).argmax(axis=1)
            return
        keys = _row_hash(self.rows)
        self._order = np.argsort(keys)
        self._keys = keys[self._order]
        # the first row with each key, at every sorted position
        self._head = self._order
        self.first = np.arange(len(keys))
        repeated = self._keys[1:] == self._keys[:-1]
        if not repeated.any():
            return
        new = np.append(True, ~repeated)
        self._head = np.minimum.reduceat(
            self._order, np.flatnonzero(new))[np.cumsum(new) - 1]
        self.first[self._order] = self._head
        later = np.flatnonzero(self.first != np.arange(len(keys)))
        clash = later[~self._equal(self.rows.take(later, axis=0),
                                   self.first[later])]
        for key in np.unique(keys[clash]):
            # a collision: the key's rows are told apart by their bytes
            seen = {}
            for i in self._rows_with(key).tolist():
                self.first[i] = seen.setdefault(
                    _words(self.rows[i]).tobytes(), i)

    def _pairs(self, words):
        """Whether each row of words equals each indexed row."""
        return (words[:, None, :] == self._words[None, :, :]).all(axis=2)

    def _rows_with(self, key):
        """Indices of the indexed rows with this key, ascending."""
        lo = np.searchsorted(self._keys, key, side="left")
        hi = np.searchsorted(self._keys, key, side="right")
        return np.sort(self._order[lo:hi])

    def _equal(self, rows, at):
        """Whether each row equals the indexed row at its position, by a
        float comparison: exact, but for rows with a NaN, which it never
        calls equal, and which a collision fallback then compares."""
        differ = rows != self.rows.take(at, axis=0)
        # a boolean matrix product takes a row's "any" several times
        # faster than np.any(axis=1) on short rows
        return ~(differ @ np.ones(differ.shape[1], dtype=bool))

    def find(self, rows) -> np.ndarray:
        """Per row, the index of the first indexed row equal to it, or -1
        (always for rows of another width)."""
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        if not len(self.rows) or rows.shape[1] != self.rows.shape[1]:
            return np.full(len(rows), -1)
        if self._words is not None:
            out = np.empty(len(rows), dtype=int)
            for block in row_blocks(len(rows), self._words.size):
                equal = self._pairs(_words(rows[block]))
                out[block] = np.where(equal.any(axis=1),
                                      equal.argmax(axis=1), -1)
            return out
        keys = _row_hash(rows)
        # sorted queries search far faster than scattered ones
        order = np.argsort(keys)
        pos = np.empty_like(order)
        pos[order] = np.searchsorted(self._keys, keys[order])
        np.minimum(pos, len(self._keys) - 1, out=pos)
        head = self._head[pos]
        hit = self._keys[pos] == keys
        found = hit & self._equal(rows, head)
        out = np.where(found, head, -1)
        for j in (hit & ~found).nonzero()[0].tolist():
            # a collision: every indexed row with the key is compared
            at = self._rows_with(keys[j])
            equal = np.all(_words(rows[j]) == _words(self.rows[at]), axis=1)
            if equal.any():
                out[j] = at[equal][0]
        return out


def row_blocks(n, width) -> list[slice]:
    """Slices of rows 0..n-1 in order, max(1, BLOCK_ELEMS // width) rows
    each and the last one ragged; none for n = 0."""
    step = max(1, BLOCK_ELEMS // max(width, 1))
    return [slice(at, min(at + step, n)) for at in range(0, n, step)]


def epsilon_n(eps, n) -> float:
    """Separation scale of piece n: eps * 4^(-n) / 96."""
    if not (0.0 < eps < 1.0):
        raise ParameterError("eps must lie in (0, 1)")
    if check_integer(n, "piece index") < 0:
        raise ParameterError("piece index must be >= 0")
    return eps * 4.0 ** (-n) / 96.0


def _psi_value(eps, indices) -> float:
    nf = min(indices)
    isum = 0.0
    for i in sorted(indices):
        isum += 2.0 ** (-i)
    return 1.0 + 0.5 * eps * (2.0 ** (-nf)) * (1.0 + 0.25 * isum)


class Decomposition:
    """(m_n, dim) piece arrays + epsilon + ambient space + optional
    closure mapping {(piece, member): piece indices}, which must include
    the member's own piece (the default for an unlisted member).

    Validates on construction: eps in (0, 1), finite members on every
    kind (ParameterError naming the first piece and member that is not),
    pairwise-disjoint pieces (naming the first member, in member order,
    that an earlier piece holds), the closure entries, bump thresholds
    fl(1/psi) < fl(1/theta) that separate in floats for every member
    (ConstructionError naming the first piece where they do not), and
    (when the ambient dual norm is exact) membership of every functional
    in the dual ball up to 1e-9, each piece's ball check before its
    disjointness check and both before any later piece's.
    With a surrogate dual metric the ball check is recorded as skipped.
    ``members`` stacks the pieces in piece order, ``pieces`` are row
    views of it, and ``piece``, ``psi`` and ``eps_n`` are aligned with
    it: each member's piece id, psi weight (the piece's default, with
    the closure entries written over it) and its piece's eps_n.
    """

    def __init__(self, space, pieces, epsilon, closure=None):
        if not (0.0 < epsilon < 1.0):
            raise ParameterError("epsilon must lie in (0, 1)")
        arrays = [np.atleast_2d(np.asarray(p, dtype=float)) for p in pieces]
        if any(p.shape[1] != space.dim for p in arrays):
            raise ParameterError("piece members must match space dim")
        if not arrays:
            raise ParameterError("decomposition needs at least one piece")

        self.space = space
        self.epsilon = float(epsilon)
        self.members = np.vstack(arrays)
        sizes = [len(p) for p in arrays]
        start = np.cumsum([0] + sizes)
        self.pieces = tuple(self.members[a:b]
                            for a, b in zip(start, start[1:]))
        self.piece = np.repeat(np.arange(len(sizes)), sizes)
        finite = np.isfinite(self.members).all(axis=1)
        if not finite.all():
            i = int(np.argmin(finite))
            n = int(self.piece[i])
            raise ParameterError(
                f"piece {n} member {i - int(start[n])} has a NaN or "
                f"infinite coordinate")

        # checked piece by piece, in order: a piece's dual-ball check
        # comes before its disjointness check
        self._start = start
        self._index = RowIndex(self.members)
        shared = (self.piece[self._index.first] != self.piece).nonzero()[0]
        norms = None
        if self.dual_ball_checked:
            try:
                norms = space.dual_norm_rows(self.members)
            except NumericError:
                pass    # an overflow, raised below by its own piece's call
        for n, p in enumerate(self.pieces):
            if self.dual_ball_checked:
                dn = (space.dual_norm_rows(p) if norms is None
                      else norms[start[n]:start[n + 1]])
                outside = np.flatnonzero(dn > 1.0 + DUAL_BALL_TOL)
                if outside.size:
                    j = int(outside[0])
                    raise ConstructionError(
                        f"piece {n} member {j} has dual norm "
                        f"{float(dn[j])} > 1 + {DUAL_BALL_TOL}")
            if shared.size and self.piece[shared[0]] == n:
                i = int(shared[0])
                raise ConstructionError(
                    f"functional appears in pieces "
                    f"{int(self.piece[self._index.first[i]])} and {n}; "
                    f"pieces must be disjoint")

        self.psi = np.array([_psi_value(self.epsilon, {n})
                             for n in range(len(sizes))])[self.piece]
        for (n, j), idx in (closure or {}).items():
            n = check_integer(n, "closure piece")
            j = check_integer(j, "closure member")
            idx = {check_integer(i, "closure set entry") for i in idx}
            if n not in idx:
                raise ParameterError(
                    f"closure set for member {(n, j)} must contain its "
                    f"own piece {n}")
            if min(idx) < 0:
                raise ParameterError("closure sets contain a negative index")
            if n >= len(sizes) or not 0 <= j < sizes[n]:
                raise ParameterError(
                    f"closure entry ({n}, {j}) is not a member")
            if max(idx) >= len(sizes):
                raise ParameterError(
                    f"closure entry ({n}, {j}) references a missing piece")
            self.psi[start[n] + j] = _psi_value(self.epsilon, idx)

        # each member's bump rises from 1/psi to 1/theta, theta = psi -
        # eps_n; from piece 22 on (at eps 0.1) eps_n falls below the
        # float spacing at psi, and the two thresholds coincide
        self.eps_n = np.array([epsilon_n(self.epsilon, n)
                               for n in range(len(sizes))])[self.piece]
        flat = np.flatnonzero(~(1.0 / self.psi
                                < 1.0 / (self.psi - self.eps_n)))
        if flat.size:
            i = int(flat[0])
            raise ConstructionError(
                f"piece {int(self.piece[i])} is past the float depth: its "
                f"bump thresholds 1/psi and 1/theta do not separate, with "
                f"eps_n = {float(self.eps_n[i])} and float spacing "
                f"{float(np.spacing(self.psi[i]))} at psi")

    @property
    def dual_ball_checked(self) -> bool:
        """Whether the pieces were checked against the dual ball: only an
        exact dual metric allows it."""
        return self.space.dual_metric == "exact"

    def locate(self, f):
        """(piece, member) position of a functional, one vector of the
        space's dim, by exact identity: the first member equal to it."""
        i = int(self._index.find(self.space._check_vec(f))[0])
        if i < 0:
            raise ParameterError("functional is not a member of any piece")
        n = int(self.piece[i])
        return n, i - int(self._start[n])

    def missing(self, rows, tol=DUAL_BALL_TOL):
        """Index of the first of (k, dim) rows with no member within
        l-infinity distance tol, or None.  Rows are looked up in the
        identity index first; only the rows it does not find are compared
        by distance, in row blocks of width members x dim (module
        docstring)."""
        rows = self.space._check_rows(rows)
        misses = (self._index.find(rows) < 0).nonzero()[0]
        for block in row_blocks(len(misses), self.members.size):
            part = misses[block]
            diff = rows[part].T[:, :, None] - self.members.T[:, None, :]
            near = np.max(np.abs(diff, out=diff), axis=0) <= tol
            far = part[~near.any(axis=1)]
            if far.size:
                return int(far[0])
        return None

    def psi_of(self, n, j) -> float:
        """psi weight of member j of piece n (see module docstring)."""
        n = check_integer(n, "piece")
        j = check_integer(j, "member")
        if not (0 <= n < len(self.pieces) and 0 <= j < len(self.pieces[n])):
            raise ParameterError(f"({n}, {j}) is not a member")
        return float(self.psi[self._start[n] + j])


def _psi_bins(psi, eps_n):
    """Bin id of each psi value as a float: floor((psi - 1) / eps_n),
    bit for bit what math.floor gives on the same quotient."""
    return np.floor((psi - 1.0) / eps_n)


def _greedy_indices(members, separation, metric_rows):
    """Greedy maximal separated subset of the rows, in input order.

    A row is kept iff ``metric_rows`` puts it at distance >= separation
    from every previously kept row; otherwise its home is the first kept
    row, in kept order, closer than separation.  ``metric_rows`` maps a
    (k, dim) array of differences to (k,) distances and must bound
    max |row| from above, so only kept rows within l-infinity distance
    < separation are passed to it (never a non-finite difference).
    Returns (kept indices, home position in ``kept`` of every row).
    """
    members = np.atleast_2d(np.asarray(members, dtype=float))
    cols = np.empty(members.shape[::-1])      # the kept rows, as columns
    kept = np.empty(len(members), dtype=int)
    k = 0
    assign: list[int] = []
    for i, row in enumerate(members):
        near = np.flatnonzero(
            np.abs(row[:, None] - cols[:, :k]).max(axis=0) < separation)
        if near.size:
            hits = np.flatnonzero(
                metric_rows(row - members[kept[near]]) < separation)
            if hits.size:
                assign.append(int(near[hits[0]]))
                continue
        cols[:, k] = row
        kept[k] = i
        assign.append(k)
        k += 1
    return kept[:k].tolist(), assign


@dataclass(frozen=True)
class NetB:
    """Union of the per-piece nets as aligned arrays, one entry per net
    point, and ``home``: each member's net point index, aligned with the
    decomposition's members."""

    matrix: np.ndarray
    psi: np.ndarray
    theta: np.ndarray
    piece: np.ndarray
    bin_id: np.ndarray
    home: np.ndarray

    def __len__(self):
        return len(self.psi)


def _isolated(members, sep, group):
    """Members that no other member of their group comes within
    l-infinity distance < sep of (the sieve of the module docstring).

    ``group`` holds one int id per member; ``sep`` is each member's
    separation.  Returns a boolean mask aligned with ``members``.
    """
    m = len(group)
    sizes = np.bincount(group)
    cut = np.ones(m, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        keys = np.floor(members / sep[:, None])
        for key in keys.T:
            if m == 0 or sizes.max() == 1:
                break
            order = np.lexsort((key, group))
            k = key[order]
            g = group[order]
            ok = np.abs(k) < _KEY_LIMIT
            np.not_equal(g[1:], g[:-1], out=cut[1:])
            cut[1:] |= (k[1:] - k[:-1] > 2.0) & ok[1:] & ok[:-1]
            group = np.empty_like(group)
            group[order] = np.cumsum(cut) - 1
            sizes = np.bincount(group)
    return sizes[group] == 1


def build_net(d: Decomposition) -> NetB:
    """Bin each piece by psi, thin each bin to a greedy eps_n-net.

    Member i of d.members, f, gets the net point h = home[i] with
    ||f - h||_dual <= eps_n and |psi(f) - psi(h)| <= eps_n (same bin).
    Raises ConstructionError if any net point has theta <= 1.
    """
    bins = _psi_bins(d.psi, d.eps_n)
    # members in piece, bin, then input order: the net's order
    order = np.lexsort((bins, d.piece))
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = ((d.piece[order[1:]] != d.piece[order[:-1]])
                  | (bins[order[1:]] != bins[order[:-1]]))
    group = np.empty(len(order), dtype=int)
    group[order] = np.cumsum(starts) - 1

    keep = _isolated(d.members, d.eps_n, group)
    homes = np.arange(len(keep))      # each member's net point, as a member
    rest = order[~keep[order]]
    if rest.size:
        for at in np.split(rest, np.flatnonzero(np.diff(group[rest])) + 1):
            kept, assign = _greedy_indices(d.members[at], d.eps_n[at[0]],
                                           d.space.dual_norm_rows)
            keep[at[kept]] = True
            homes[at] = at[kept][assign]

    rows = order[keep[order]]
    position = np.empty(len(keep), dtype=int)
    position[rows] = np.arange(len(rows))
    piece = d.piece[rows]
    psi = d.psi[rows]
    theta = psi - d.eps_n[rows]
    low = np.flatnonzero(~(theta > 1.0))
    if low.size:
        raise ConstructionError(
            f"net point in piece {piece[low[0]]} has theta = "
            f"{theta[low[0]]} <= 1")
    return NetB(matrix=d.members[rows], psi=psi, theta=theta, piece=piece,
                bin_id=bins[rows].astype(int), home=position[homes])


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
    dist = d.space.dual_norm_rows(d.members - net.matrix[net.home])
    dpsi = np.abs(d.psi - net.psi[net.home])
    return NetPropertyReport(
        checked=len(d.members),
        max_distance_excess=float(np.max(dist - d.eps_n, initial=-np.inf)),
        max_psi_excess=float(np.max(dpsi - d.eps_n, initial=-np.inf)))


@dataclass(frozen=True)
class BoundaryReport:
    """Per-sample sup of f(x) over the candidate boundary set; a sample
    is attained when its sup reaches 1 - tol."""

    max_values: np.ndarray
    tol: float

    @property
    def attained(self) -> np.ndarray:
        return self.max_values >= 1.0 - self.tol

    @property
    def passed(self) -> bool:
        return bool(np.all(self.attained))


def check_boundary(space, functionals, sphere_samples, tol=1e-9):
    """Check sup_f f(x) reaches 1 (within tol) on unit-sphere samples.

    Samples must be normalized: any ||x|| outside 1 +- tol-ish is a
    parameter error, not a failed check, and so are an empty sample or
    functional set and a NaN or inf entry.  Each sample's sup is taken
    per row block (module docstring).
    """
    A = np.atleast_2d(np.asarray(functionals, dtype=float))
    X = np.atleast_2d(np.asarray(sphere_samples, dtype=float))
    if A.shape[1] != space.dim or X.shape[1] != space.dim:
        raise ParameterError("shape mismatch with space dim")
    if X.shape[0] == 0:
        raise ParameterError("sample set is empty")
    if A.shape[0] == 0:
        raise ParameterError("functional set is empty")
    if not (np.isfinite(A).all() and np.isfinite(X).all()):
        raise ParameterError("functionals and samples must be finite")
    norm_tol = max(tol, 1e-7)
    norms = space.norm_rows(X)
    off = np.flatnonzero(np.abs(norms - 1.0) > norm_tol)
    if off.size:
        raise ParameterError(
            f"sample has norm {float(norms[off[0]])}, expected 1 within "
            f"{norm_tol}")
    top = np.empty(len(X))
    for block in row_blocks(len(X), len(A)):
        top[block] = np.max(X[block] @ A.T, axis=1)
    return BoundaryReport(max_values=top, tol=tol)


@dataclass(frozen=True)
class LrcReport:
    """Finite-scale w*-relative-compactness criterion for one piece:
    all members share one support cardinality."""

    cardinalities: tuple

    @property
    def passed(self) -> bool:
        return len(self.cardinalities) <= 1


def check_lrc_criterion(members) -> LrcReport:
    members = np.atleast_2d(np.asarray(members, dtype=float))
    if members.size == 0:
        return LrcReport(cardinalities=())
    return LrcReport(cardinalities=tuple(
        np.unique(np.count_nonzero(members, axis=1)).tolist()))
