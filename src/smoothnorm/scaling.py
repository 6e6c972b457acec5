"""Certified bracket-and-bisect for Luxemburg-type scaling infima.

Every Luxemburg-type norm in this package (the phi-norm over an Orlicz
family, the ``orlicz_hM`` space norm and the ``lap`` norm) has the form

    ||c|| = inf { rho > 0 : S(|c| / rho) <= 1 }

for a modular S that is continuous and nondecreasing in each coordinate,
with S(z) -> infinity as z -> infinity for z != 0 and S(0) <= 1.
``feasible_scale_inf`` is the package's only solver for these infima.
It works on a batch of coordinate rows with a row-wise modular
``modular_rows(z, idx) -> (k,)``, where ``z`` is a (k, m) block of scaled
rows and ``idx`` the positions of those rows in the batch, so a modular
can keep per-row data; a single vector is a batch of one.

Each row is scaled to peak 1 and goes through the same steps from an
initial bracket (lo, hi) on that scale, by default (1/2, 1): double hi
while it is infeasible (lo following it up), halve lo while it is
feasible (hi following it down), then bisect until the bracket is
``tol``-relative narrow or at float resolution.  Rows that have
converged are not evaluated again.  The upper endpoint is then
certified on the unnormalized row: where ``|c| / value`` rounds
differently from ``(|c| / peak) / hi`` and the modular exceeds 1,
``value`` is nudged up by one ulp at a time.  So S(|c| / value) <= 1
holds as computed, with no tolerance.

A caller that can predict a row's answer passes its own bracket as a
start.  It is never trusted.  The start round checks every row at both
ends of its start and, where the start was taken, the certificate at
its hi, in one modular call whose ``idx`` holds each row once per
segment.  A row whose start holds, that has no bisection step left and
whose certificate passes is done, so a right start costs that one call;
if its certificate fails, its first nudge needs no second check.  Every
other row goes on through the loops above from what the round found (a
row doubled from its hi is not checked again at its new lo, just found
infeasible): a wrong start is widened on the same z values, and each
row gets the bracket and bisection steps it got when the start's ends
were checked in calls of their own.  At ``tol=0.0`` the
bisection stops on adjacent floats, lo infeasible and hi feasible; as
long as the computed modular does not rise with the scale there is one
such pair, so the value does not depend on the start.  A start that is
not ``0 < lo < hi`` (NaN included), or whose ends one doubling or
halving would take out of the float range, is replaced by the default.
So a right start raises exactly where the default does; a wrong one
can differ only within a factor 2 of the float range's ends.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ParameterError

# Relative final bracket width; phi_norm bisects to the float instead.
DEFAULT_TOL = 1e-10
# Ulp nudges allowed when certifying the unnormalized value.
MAX_NUDGES = 8


@dataclass(frozen=True)
class ScalingBracket:
    """Certified final brackets of a batch of scaling infima.

    Per row, S(|c| / lo) > 1 on the peak-normalized scale and
    S(|c| / hi) <= 1 on the row itself; ``hi`` is the norm.  Zero rows
    have lo = hi = 0.  ``iterations`` is the number of bisection steps
    summed over the rows.
    """

    lo: np.ndarray
    hi: np.ndarray
    iterations: int


def _failure(message, row, lo, hi):
    return NumericError(f"{message} (row {row})",
                        bracket=(float(lo[row]), float(hi[row])))


def _midpoints(lo, hi, tol):
    """Per bracket, its midpoint and whether a bisection step is left:
    the bracket is wider than tol relative and the midpoint is a float
    strictly inside it."""
    mid = 0.5 * (lo + hi)
    return mid, (hi - lo > tol * hi) & (mid > lo) & (mid < hi)


def feasible_scale_inf(modular_rows, rows, tol=DEFAULT_TOL, start=None):
    """Bracket and bisect inf{rho > 0 : modular_rows(|c| / rho) <= 1}
    for every row c of ``rows``.

    Parameters
    ----------
    modular_rows : callable
        Row-wise modular ``modular_rows(z, idx)``: ``z`` a (k, m) array of
        nonnegative entries, ``idx`` the (k,) indices of its rows in
        ``rows``; returns (k,).  ``idx`` increases, except in the start
        round, where it is up to three increasing segments and so may
        repeat a row once per segment.
    rows : array_like, shape (n, m)
        Coordinate rows; signs are ignored.
    tol : float
        Relative final bracket width.
    start : pair of array_like, shape (n,), optional
        Per-row initial brackets (lo, hi) on the peak-normalized row
        (module docstring); NaN marks a row without one.

    Returns
    -------
    ScalingBracket
        Per-row certified brackets; the norms are ``bracket.hi``.

    Raises
    ------
    ParameterError
        If any coordinate is NaN or infinite.
    NumericError
        If a row's scale leaves the float range while bracketing, or its
        value cannot be certified; ``bracket`` is that row's last finite
        (lo, hi).
    """
    rows = np.abs(np.asarray(rows, dtype=float))
    if rows.ndim != 2:
        raise ParameterError(f"expected (n, m) rows, got shape {rows.shape}")
    peak = rows.max(axis=1, initial=0.0)
    if not np.all(np.isfinite(peak)):
        raise ParameterError("coordinates must be finite")
    live = np.flatnonzero(peak > 0.0)
    # Peak normalization keeps brackets O(1) even for subnormal or huge
    # rows and makes the result scale-equivariant.
    unit = rows / np.where(peak > 0.0, peak, 1.0)[:, None]
    # One scratch buffer for every evaluation: the rows are copied into
    # it and divided in place, so no iteration allocates a batch.  The
    # start round (below) checks up to three segments of rows at once.
    scratch = np.empty((len(rows) * (1 if start is None else 3),
                        rows.shape[1]))

    def scaled(source, idx, scale, z):
        # np.take's default mode="raise" would copy through a second
        # buffer; an entry that overflows to inf reads as infeasible
        np.take(source, idx, axis=0, out=z, mode="clip")
        with np.errstate(over="ignore"):
            z /= scale[:, None]

    def feasible(source, idx, scale):
        if not idx.size:
            return np.zeros(0, dtype=bool)
        z = scratch[:len(idx)]
        scaled(source, idx, scale, z)
        return modular_rows(z, idx) <= 1.0

    def certify(todo, refused):
        """Nudge the unnormalized hi of rows todo up until the modular
        is feasible on the row itself; return the rows that still are
        not after MAX_NUDGES nudges.  A row already refused at this hi
        (the mask refused) is nudged without a second check."""
        bad = refused[todo]
        check = todo[~bad]
        bad[~bad] = ~feasible(rows, check, hi[check])
        todo = todo[bad]
        for _ in range(MAX_NUDGES):
            if not todo.size:
                return todo
            hi[todo] = np.nextafter(hi[todo], np.inf)
            todo = todo[~feasible(rows, todo, hi[todo])]
        return todo

    def start_round(ok):
        """The first round from a start, in one modular call: every live
        row at hi and at lo on the peak-normalized scale and, where the
        start was taken (ok), the certificate at peak * hi, the product
        certify divides by.  Returns the rows to double (infeasible at
        hi), to halve (feasible at both ends) and still open, and the
        mask of rows refused at their certificate.  A row whose start
        holds and has no bisection step left keeps its hi, so it is done
        if its certificate passed, and refused if not.  A doubled row's
        new lo is a scale just found infeasible, so the halving loop does
        not check it again."""
        on = ok[live]
        taken = live[on]
        k = len(live)
        z = scratch[:2 * k + len(taken)]
        scaled(unit, live, hi[live], z[:k])
        scaled(unit, live, lo[live], z[k:2 * k])
        scaled(rows, taken, peak[taken] * hi[taken], z[2 * k:])
        feas = modular_rows(z, np.concatenate([live, live, taken])) <= 1.0
        at_hi, at_lo = feas[:k], feas[k:2 * k]
        certified = np.zeros(k, dtype=bool)
        certified[on] = feas[2 * k:]
        holds = on & at_hi & ~at_lo & ~_midpoints(lo[live], hi[live], tol)[1]
        refused = np.zeros(len(rows), dtype=bool)
        refused[live[holds & ~certified]] = True
        todo = ~(holds & certified)
        return (live[todo & ~at_hi], live[todo & at_hi & at_lo], live[todo],
                refused)

    lo = np.full(len(rows), 0.5)
    hi = np.ones(len(rows))
    rest, down, refused = live, None, np.zeros(len(rows), dtype=bool)
    if start is not None:
        s_lo, s_hi = (np.asarray(end, dtype=float) for end in start)
        # invalid or too near the float range's ends: the default
        with np.errstate(over="ignore", invalid="ignore"):
            ok = ((0.0 < s_lo) & (s_lo < s_hi)
                  & np.isfinite(2.0 * np.maximum(peak, 1.0) * s_hi)
                  & (np.minimum(peak, 1.0) * s_lo / 2.0 > 0.0))
        lo[ok], hi[ok] = s_lo[ok], s_hi[ok]
        if live.size:
            up, down, rest, refused = start_round(ok)
    if down is None:
        up = live[~feasible(unit, live, hi[live])]

    todo = up
    while todo.size:
        # Both the normalized and the unnormalized scale must stay finite.
        with np.errstate(over="ignore"):
            too_big = ~np.isfinite(2.0 * np.maximum(peak[todo], 1.0)
                                   * hi[todo])
        if too_big.any():
            row = todo[np.argmax(too_big)]
            raise _failure("no feasible scale found while doubling", row,
                           peak * lo, peak * hi)
        lo[todo] = hi[todo]
        hi[todo] *= 2.0
        todo = todo[~feasible(unit, todo, hi[todo])]

    todo = rest[feasible(unit, rest, lo[rest])] if down is None else down
    while todo.size:
        too_small = np.minimum(peak[todo], 1.0) * lo[todo] / 2.0 == 0.0
        if too_small.any():
            row = todo[np.argmax(too_small)]
            raise _failure("no infeasible scale found while halving", row,
                           peak * lo, peak * hi)
        hi[todo] = lo[todo]
        lo[todo] /= 2.0
        todo = todo[feasible(unit, todo, lo[todo])]

    # Invariant: S(unit / lo) > 1 >= S(unit / hi).
    iterations = 0
    todo = rest
    while True:
        mid, step = _midpoints(lo[todo], hi[todo], tol)
        todo, mid = todo[step], mid[step]
        if not todo.size:
            break
        iterations += todo.size
        feas = feasible(unit, todo, mid)
        hi[todo[feas]] = mid[feas]
        lo[todo[~feas]] = mid[~feas]

    lo *= peak
    hi *= peak
    failed = certify(rest, refused)
    if failed.size:
        raise _failure("could not certify feasibility at result", failed[0],
                       lo, hi)
    return ScalingBracket(lo=lo, hi=hi, iterations=int(iterations))
