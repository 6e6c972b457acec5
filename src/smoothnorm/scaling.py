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
start.  It is never trusted: a right one costs the two endpoint checks,
a wrong one is widened by the same loops.  At ``tol=0.0`` the bisection
stops on adjacent floats, lo infeasible and hi feasible; as long as the
computed modular does not rise with the scale there is one such pair,
so the value does not depend on the start.  A start that is not
``0 < lo < hi`` (NaN included), or whose ends one doubling or halving
would take out of the float range, is replaced by the default.  So a
right start raises exactly where the default does; a wrong one can
differ only within a factor 2 of the float range's ends.
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


def feasible_scale_inf(modular_rows, rows, tol=DEFAULT_TOL, start=None):
    """Bracket and bisect inf{rho > 0 : modular_rows(|c| / rho) <= 1}
    for every row c of ``rows``.

    Parameters
    ----------
    modular_rows : callable
        Row-wise modular ``modular_rows(z, idx)``: ``z`` a (k, m) array of
        nonnegative entries, ``idx`` the (k,) indices of its rows in
        ``rows``; returns (k,).
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
    # One scratch buffer for every evaluation: the live rows are copied
    # into it and divided in place, so no iteration allocates a batch.
    # np.take's default mode="raise" would copy through a second buffer.
    scratch = np.empty_like(rows)

    def feasible(source, idx, scale):
        if not idx.size:
            return np.zeros(0, dtype=bool)
        z = scratch[:len(idx)]
        np.take(source, idx, axis=0, out=z, mode="clip")
        z /= scale[:, None]
        return modular_rows(z, idx) <= 1.0

    def certify(todo):
        """Nudge the unnormalized hi of rows todo up until the modular
        is feasible on the row itself; return the rows that still are
        not after MAX_NUDGES nudges."""
        for _ in range(MAX_NUDGES):
            todo = todo[~feasible(rows, todo, hi[todo])]
            if not todo.size:
                return todo
            hi[todo] = np.nextafter(hi[todo], np.inf)
        return todo[~feasible(rows, todo, hi[todo])]

    lo = np.full(len(rows), 0.5)
    hi = np.ones(len(rows))
    if start is not None:
        s_lo, s_hi = (np.asarray(end, dtype=float) for end in start)
        # invalid or too near the float range's ends: the default
        with np.errstate(over="ignore", invalid="ignore"):
            ok = ((0.0 < s_lo) & (s_lo < s_hi)
                  & np.isfinite(2.0 * np.maximum(peak, 1.0) * s_hi)
                  & (np.minimum(peak, 1.0) * s_lo / 2.0 > 0.0))
        lo[ok], hi[ok] = s_lo[ok], s_hi[ok]

    todo = live
    while True:
        todo = todo[~feasible(unit, todo, hi[todo])]
        if not todo.size:
            break
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

    todo = live
    while True:
        todo = todo[feasible(unit, todo, lo[todo])]
        if not todo.size:
            break
        too_small = np.minimum(peak[todo], 1.0) * lo[todo] / 2.0 == 0.0
        if too_small.any():
            row = todo[np.argmax(too_small)]
            raise _failure("no infeasible scale found while halving", row,
                           peak * lo, peak * hi)
        hi[todo] = lo[todo]
        lo[todo] /= 2.0

    # Invariant: S(unit / lo) > 1 >= S(unit / hi).
    iterations = 0
    todo = live
    while True:
        todo = todo[hi[todo] - lo[todo] > tol * hi[todo]]
        mid = 0.5 * (lo[todo] + hi[todo])
        resolved = (mid > lo[todo]) & (mid < hi[todo])
        todo, mid = todo[resolved], mid[resolved]
        if not todo.size:
            break
        iterations += todo.size
        feas = feasible(unit, todo, mid)
        hi[todo[feas]] = mid[feas]
        lo[todo[~feas]] = mid[~feas]

    lo *= peak
    hi *= peak
    failed = certify(live)
    if failed.size:
        raise _failure("could not certify feasibility at result", failed[0],
                       lo, hi)
    return ScalingBracket(lo=lo, hi=hi, iterations=int(iterations))
