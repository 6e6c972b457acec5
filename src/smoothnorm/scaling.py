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

Each row is scaled to peak 1 and goes through the same steps from a
bracket (lo, hi) on that scale: double hi while it is infeasible (lo
following it up), halve lo while it is feasible (hi following it down),
then bisect until the bracket is ``tol``-relative narrow or at float
resolution.  Rows that have converged are not evaluated again.  The
upper endpoint is then certified on the unnormalized row: where
``|c| / value`` rounds differently from ``(|c| / peak) / hi`` and the
modular exceeds 1, ``value`` is nudged up by one ulp at a time.  So
S(|c| / value) <= 1 holds as computed, with no tolerance.

The bracket is the row's start, a caller's prediction of its answer,
or the default (1/2, 1) where it has none (NaN), where the start is not
``0 < lo < hi``, or where one doubling or halving would take its ends
out of the float range.  A start is never trusted.  Every solve opens
with the start round: one modular call checks every live row at both
ends of its bracket and, where a start was taken, the certificate at
its hi; its ``idx`` holds each row once per segment.  A row whose start
holds, with no bisection step left and a passing certificate, is done,
so a right start costs that one call; one whose certificate fails needs
no second check before its first nudge.  Every other row goes on
through the loops above from what the round found (a doubled row's new
lo was just found infeasible, so it is not checked again), and gets the
bits it got when each end was checked in a call of its own.  At
``tol=0.0`` the bisection stops on adjacent floats, lo infeasible and
hi feasible; as long as the computed modular does not rise with the
scale there is one such pair, so the value does not depend on the
start.  A right start raises exactly where the default does; a wrong
one can differ only within a factor 2 of the float range's ends.
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


def _row_peaks(rows):
    """Per (n, m) row its max, 0 for m = 0: one pass over the contiguous
    transpose, which costs far less than n reductions of m entries each
    when m is small."""
    return rows.T.copy().max(axis=0, initial=0.0)


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
    peak = _row_peaks(rows)
    if not np.all(np.isfinite(peak)):
        raise ParameterError("coordinates must be finite")
    live = (peak > 0.0).nonzero()[0]
    # Peak normalization keeps brackets O(1) even for subnormal or huge
    # rows and makes the result scale-equivariant.
    unit = rows / np.where(peak > 0.0, peak, 1.0)[:, None]
    # One scratch buffer for every evaluation: the rows are copied into
    # it and divided in place, so no iteration allocates a batch.  The
    # start round (below) checks three segments of rows at most.
    scratch = np.empty((3 * len(rows), rows.shape[1]))

    def feasible(*segments):
        """Per row of the segments (source, idx, scale), stacked, whether
        the modular of source[idx] / scale is at most 1: one call."""
        idx = np.concatenate([seg[1] for seg in segments])
        if not idx.size:
            return np.zeros(0, dtype=bool)
        z = scratch[:len(idx)]
        at = 0
        for source, part, scale in segments:
            block = z[at:at + len(part)]
            at += len(part)
            # np.take's default mode="raise" would copy through a second
            # buffer; an entry that overflows to inf reads as infeasible
            np.take(source, part, axis=0, out=block, mode="clip")
            with np.errstate(over="ignore"):
                block /= scale[:, None]
        return modular_rows(z, idx) <= 1.0

    def certify(todo, refused):
        """Nudge the unnormalized hi of rows todo up until the modular
        is feasible on the row itself; return the rows that still are
        not after MAX_NUDGES nudges.  A row already refused at this hi
        (the mask refused) is nudged without a second check."""
        bad = refused[todo]
        check = todo[~bad]
        bad[~bad] = ~feasible((rows, check, hi[check]))
        todo = todo[bad]
        for _ in range(MAX_NUDGES):
            if not todo.size:
                return todo
            hi[todo] = np.nextafter(hi[todo], np.inf)
            todo = todo[~feasible((rows, todo, hi[todo]))]
        return todo

    # a start that is NaN, not 0 < lo < hi or too near the float range's
    # ends is not taken: the row gets the default
    s_lo, s_hi = (np.full((2, len(rows)), np.nan) if start is None
                  else (np.asarray(end, dtype=float) for end in start))
    with np.errstate(over="ignore", invalid="ignore"):
        taken = ((0.0 < s_lo) & (s_lo < s_hi)
                 & np.isfinite(2.0 * np.maximum(peak, 1.0) * s_hi)
                 & (np.minimum(peak, 1.0) * s_lo / 2.0 > 0.0))
    lo = np.where(taken, s_lo, 0.5)
    hi = np.where(taken, s_hi, 1.0)

    # The start round: every live row at hi and at lo and, where its start
    # was taken, its certificate at peak * hi, the product certify divides
    # by.  A row whose start holds with no bisection step left keeps its
    # hi: it is done if its certificate passed, and refused if not.
    k = len(live)
    on = taken[live]
    cert = live[on]
    feas = feasible((unit, live, hi[live]), (unit, live, lo[live]),
                    (rows, cert, peak[cert] * hi[cert]))
    at_hi, at_lo = feas[:k], feas[k:2 * k]
    certified = np.zeros(k, dtype=bool)
    certified[on] = feas[2 * k:]
    holds = on & at_hi & ~at_lo & ~_midpoints(lo[live], hi[live], tol)[1]
    refused = np.zeros(len(rows), dtype=bool)
    refused[live[holds & ~certified]] = True
    left = ~(holds & certified)
    rest = live[left]

    todo = live[left & ~at_hi]
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
        todo = todo[~feasible((unit, todo, hi[todo]))]

    # a doubled row's lo was just found infeasible: it is not checked again
    todo = live[left & at_hi & at_lo]
    while todo.size:
        too_small = np.minimum(peak[todo], 1.0) * lo[todo] / 2.0 == 0.0
        if too_small.any():
            row = todo[np.argmax(too_small)]
            raise _failure("no infeasible scale found while halving", row,
                           peak * lo, peak * hi)
        hi[todo] = lo[todo]
        lo[todo] /= 2.0
        todo = todo[feasible((unit, todo, lo[todo]))]

    # Invariant: S(unit / lo) > 1 >= S(unit / hi).
    iterations = 0
    todo = rest
    while True:
        mid, step = _midpoints(lo[todo], hi[todo], tol)
        todo, mid = todo[step], mid[step]
        if not todo.size:
            break
        iterations += todo.size
        feas = feasible((unit, todo, mid))
        hi[todo[feas]] = mid[feas]
        lo[todo[~feas]] = mid[~feas]

    lo *= peak
    hi *= peak
    failed = certify(rest, refused)
    if failed.size:
        raise _failure("could not certify feasibility at result", failed[0],
                       lo, hi)
    return ScalingBracket(lo=lo, hi=hi, iterations=int(iterations))
