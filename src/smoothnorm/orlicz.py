"""Smooth Orlicz functions and generalized Luxemburg norms.

The bump construction used throughout the package is

    value(t) = scale * int_a^t exp(-1/(s-a)) ds      for t > a,
    value(t) = 0                                     for 0 <= t <= a,

with ``a = zero_threshold`` and ``scale`` chosen so that
``value(exceed_threshold) = 3/2``: the paper asks only that the bump
exceed 1 there, and the overshoot 1/2 is fixed.  The integrand is the
classic C-infinity flat bump, so value is smooth everywhere, convex,
identically zero on [0, a], and grows without bound (asymptotically
linearly).  Closed forms for the derivatives:

    value'(t)  = scale * exp(-1/(t-a))
    value''(t) = scale * exp(-1/(t-a)) / (t-a)^2

Everything is evaluated through G(x) = int_0^x exp(-1/u) du = x*E2(1/x)
in log space.  The pipelines in this package routinely produce widths
b - a ~ 1e-3, for which exp(-1/(s-a)) underflows float64 over the entire
integration range; the log-space exponential-integral form keeps the
ratio G(t-a)/G(b-a) accurate to ~1e-12 regardless of width.  Below
x = 0.01, log G comes from a 31-term asymptotic series summed by Horner's
rule.  Pruned modular calls hand it about two entries, where numpy's
fixed cost per ufunc call would dominate, so up to ``_TINY_SERIES``
entries the recurrence runs on Python floats; larger calls run it in
place on arrays.  The two agree to the bit: either way each step rounds
one product and one sum to binary64, with no fused multiply-add.  The
log and exp calls stay numpy's on both paths, because numpy's SIMD log
and exp differ from the math module's in the last bit on some inputs.

An OrliczFamily whose members are all OrliczFunctions is stored as
stacked per-column arrays (zero and exceed thresholds, log G(width)),
so a batch of rows is evaluated in one pass that touches only the
entries above their column's threshold; the bump formula is the same
function OrliczFunction uses.  The entries of a row need not be the whole
family: ``modular_rows`` takes per-row column indices, and index
``len(family)`` is an inert slot with zero threshold +inf.  This is how
renorm evaluates only the terms of a row that can be positive at a
feasible scale; without indices, entry t of a row belongs to member t.
The sum runs over the selected entries in row order either way, so a
row with some always-zero terms left out sums the same values in the
same order.  Families of other callables (for example the power family
s -> s^p) are evaluated per group of identical callables.

``modular_inverse`` inverts the modular of k equal entries of one bump:
z*(k) is the largest float z at which the sum of k copies of the bump at
z, computed as ``modular_rows`` computes a row, is at most 1.  Each
OrliczFunction caches its values, filled on first use by one bisection
on the float bit pattern between the zero and exceed thresholds that
covers every (bump, k) pair still missing.  Each step is one vectorized
bump evaluation, and there are as many steps as the widest gap between
the thresholds' bit patterns has bits: 43 for the seven bumps of the
lorentz_predual dim-7 net, about 4 ms once per process on a 2-core
x86-64 VM.  A value depends only on (bump, k), so the order of fills
does not matter.  renorm brackets every row from the table, and
feasible_scale_inf checks that bracket and widens it if wrong, so a
wrong entry costs time, never a different norm.  The per-function
caches answer one Python lookup per pair, so renorm copies the values
it has asked for into an array per spec and gathers from that; the
array is filled only through this function, so it holds the same
values.

``newton_scales`` is the other proposer: for rows of terms with
different bumps it takes NEWTON_STEPS Newton steps on
g(rho) = log sum_t phi_t(u_t / rho), each rho += log(S) S rho / D with
S = sum_t phi_t(x_t), D = sum_t phi_t'(x_t) x_t and x_t = u_t / rho,
from a feasible start (renorm passes the table's upper end).  Like a
table entry, its result is only proposed: renorm pads it to a bracket
that feasible_scale_inf checks.  Newton on S - 1 converges more slowly
on these steep bumps: on the multi-class rows of 40,000 gaussian
lorentz_predual dim-7 rows it was still 1,617 floats off after 4 steps,
where the log form was within 1 float after 3.

A generalized Luxemburg norm over a finite index set B is

    ||c||_phi = inf { rho > 0 : sum_t phi_t(|c_t| / rho) <= 1 },

computed by scaling.feasible_scale_inf, the package's one certified
bracket-and-bisect; a single vector is a batch of one.  luxemburg_norm
returns the certified upper bracket endpoint, so the modular constraint
holds at the result as computed; the bracket is feasible_scale_inf's.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ParameterError
from .scaling import feasible_scale_inf

__all__ = [
    "OrliczFunction",
    "OrliczFamily",
    "make_orlicz",
    "modular_inverse",
    "newton_scales",
    "luxemburg_norm",
    "luxemburg_norm_batch",
    "check_lemma1_bounds",
]

# Above this exponent, exp() would overflow float64; report infinity.
_LOG_HUGE = 709.0

# Switch point between the scipy expn branch and the asymptotic series.
# At x = 0.01 both agree to about 13 digits on the log scale.
_ASYM_SWITCH = 0.01

# value(exceed_threshold) of every bump, and its log.
_PEAK = 1.5
_LOG_PEAK = math.log1p(0.5)

# Coefficients of the asymptotic series E2(z) ~ e^-z/z * sum (-1)^k (k+1)!/z^k,
# written in powers of x = 1/z.  Truncation error at x <= 0.01 is < 1e-20.
_ASYM_COEF = tuple((-1.0) ** k * math.factorial(k + 1) for k in range(31))

# Series entries up to which the Horner loop runs on Python floats.  On a
# 2-core x86-64 VM its 30 steps take about 1.6 us per entry there and about
# 60 us per call as 60 numpy ufunc calls (timeit), so the two cross near
# 32 entries; 16 keeps the float loop at least twice as fast.
_TINY_SERIES = 16

# Newton steps newton_scales takes from its start (module docstring).
NEWTON_STEPS = 3


def _log_g(x: np.ndarray) -> np.ndarray:
    """log of G(x) = int_0^x exp(-1/u) du, elementwise, for x > 0."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = x < _ASYM_SWITCH
    large = ~small
    if small.any():
        xs = x[small]
        if xs.size <= _TINY_SERIES:
            # bit-identical to the array loop (module docstring)
            s = []
            for v in xs.tolist():
                acc = _ASYM_COEF[-1]
                for c in _ASYM_COEF[-2::-1]:
                    acc = acc * v + c
                s.append(acc)
            s = np.array(s)
        else:
            s = np.full_like(xs, _ASYM_COEF[-1])
            # in place: a fresh array per step would cost more than the
            # step itself on a few hundred entries
            for c in _ASYM_COEF[-2::-1]:
                s *= xs
                s += c
        out[small] = -1.0 / xs + 2.0 * np.log(xs) + np.log(s)
    if large.any():
        # imported on first use: only this branch needs scipy.special,
        # and it is most of the package's import time
        from scipy.special import expn
        xl = x[large]
        out[large] = np.log(xl * expn(2, 1.0 / xl))
    return out


def _bump(x, log_g_width, order):
    """Bump value (or derivative) at zero_threshold + x, for x > 0.

    log_g_width is a scalar or an array aligned with x.
    """
    if order == 0:
        logv = _log_g(x) - log_g_width
    elif order == 1:
        logv = -log_g_width - 1.0 / x
    else:
        logv = -log_g_width - 1.0 / x - 2.0 * np.log(x)
    # The peak factor multiplies outside the exponential so that
    # value(exceed_threshold) = _PEAK exactly.
    return np.where(logv + _LOG_PEAK > _LOG_HUGE, np.inf,
                    _PEAK * np.exp(np.minimum(logv, _LOG_HUGE)))


class OrliczFunction:
    """One smooth Orlicz function of the bump family.

    Attributes
    ----------
    zero_threshold : float
        Right edge of the flat region; the function vanishes on
        [0, zero_threshold].
    exceed_threshold : float
        Point where the function reaches 3/2.
    scale : float
        Normalization constant (may overflow to inf for very thin
        transitions; the function itself is always evaluated through
        log-space ratios and stays finite wherever its value is
        representable).
    """

    def __init__(self, zero_threshold, exceed_threshold):
        if not (0.0 < zero_threshold < exceed_threshold):
            raise ParameterError(
                "need 0 < zero_threshold < exceed_threshold, got "
                f"({zero_threshold}, {exceed_threshold})"
            )
        self.zero_threshold = float(zero_threshold)
        self.exceed_threshold = float(exceed_threshold)
        # modular_inverse's cache: k -> z*(k)
        self._inverse = {}
        width = self.exceed_threshold - self.zero_threshold
        self._log_g_width = float(_log_g(np.asarray(width)))
        if not np.isfinite(self._log_g_width):
            raise NumericError(
                "normalization constant not representable for width "
                f"{width}", bracket=None,
            )

    @property
    def scale(self) -> float:
        """(3/2) / G(width); inf if not representable."""
        log_scale = _LOG_PEAK - self._log_g_width
        if log_scale > _LOG_HUGE:
            return math.inf
        return math.exp(log_scale)

    def _eval(self, t, order):
        if order not in (0, 1, 2):
            raise ParameterError(f"order must be 0, 1 or 2, got {order}")
        t = np.asarray(t, dtype=float)
        if not np.all(t >= 0.0):
            raise ParameterError(
                "orlicz functions are defined for t >= 0, not NaN")
        a = self.zero_threshold
        out = np.zeros_like(t)
        pos = t > a
        if np.any(pos):
            out[pos] = _bump(t[pos] - a, self._log_g_width, order)
        return out

    def __call__(self, t, order=0):
        """Evaluate the function (order 0) or one of its closed-form
        derivatives (order 1, 2) at scalar or array t >= 0.

        All orders return 0 on [0, zero_threshold].
        """
        scalar = np.isscalar(t) or getattr(t, "ndim", 1) == 0
        out = self._eval(t, order)
        return float(out) if scalar else out

    def __repr__(self):
        return (f"OrliczFunction(zero_threshold={self.zero_threshold!r}, "
                f"exceed_threshold={self.exceed_threshold!r})")


@functools.lru_cache(maxsize=None)
def make_orlicz(zero_threshold, exceed_threshold):
    """Construct (and cache per threshold pair) a smooth Orlicz function;
    0 < zero_threshold < exceed_threshold."""
    return OrliczFunction(zero_threshold, exceed_threshold)


def modular_inverse(functions, counts) -> np.ndarray:
    """z*(k) for each pair of an OrliczFunction and a count k >= 1: the
    largest float z with sum of k copies of fn(z) <= 1 as computed
    (module docstring).  Missing pairs are filled in one bisection."""
    pairs = list(zip(functions, (int(k) for k in counts)))
    missing = list(dict.fromkeys(
        (fn, k) for fn, k in pairs if k not in fn._inverse))
    if missing:
        zero = np.array([fn.zero_threshold for fn, _ in missing])
        log_g_width = np.array([fn._log_g_width for fn, _ in missing])
        k = np.array([k for _, k in missing])
        # positive floats order as their bit patterns; the modular is 0 at
        # the zero threshold and at least 3/2 at the exceed threshold
        lo = zero.view(np.int64).copy()
        hi = np.array([fn.exceed_threshold for fn, _ in missing]).view(
            np.int64)
        while True:
            todo = np.flatnonzero(hi - lo > 1)
            if not todo.size:
                break
            mid = lo[todo] + (hi[todo] - lo[todo]) // 2
            vals = _bump(mid.view(float) - zero[todo], log_g_width[todo], 0)
            # summed from 0.0 in row order, as np.bincount sums a row
            total = np.zeros(len(todo))
            for copy in range(int(k[todo].max())):
                total = np.where(copy < k[todo], total + vals, total)
            ok = total <= 1.0
            lo[todo[ok]] = mid[ok]
            hi[todo[~ok]] = mid[~ok]
        for (fn, count), z in zip(missing, lo.view(float).tolist()):
            fn._inverse[count] = z
    return np.array([fn._inverse[k] for fn, k in pairs])


def newton_scales(family, u, cols, owner, start) -> np.ndarray:
    """Per row, a proposed root of its modular in the scale rho:
    NEWTON_STEPS Newton steps on g(rho) = log sum_t phi_t(u_t / rho)
    from ``start``, a feasible scale.  Term t has coordinate u[t], the
    bump of family column cols[t] and row owner[t]; rows are 0..len(start)
    - 1.  The result may be non-finite; it only proposes a bracket
    (module docstring)."""
    zero = family._zero[cols]
    log_g_width = family._log_g_width[cols]
    rho = np.array(start, dtype=float)
    with np.errstate(all="ignore"):
        for _ in range(NEWTON_STEPS):
            x = u / rho[owner]
            on = x > zero
            x, at, row = x[on], x[on] - zero[on], owner[on]
            # S = sum phi_t(x_t), D = sum phi_t'(x_t) x_t = -S rho g'(rho)
            S = np.bincount(row, weights=_bump(at, log_g_width[on], 0),
                            minlength=len(rho))
            D = np.bincount(row, weights=_bump(at, log_g_width[on], 1) * x,
                            minlength=len(rho))
            rho += np.log(S) * S * rho / D
    return rho


class OrliczFamily:
    """A finite indexed family of Orlicz functions.

    Functions must accept numpy arrays (all OrliczFunction instances do;
    plain vectorized callables such as ``lambda s: s**p`` also qualify).
    A family of OrliczFunctions is evaluated from stacked per-column
    constants; any other family is evaluated per group of identical
    callables, so constant families cost one vectorized call.

    Attributes
    ----------
    zero_thresholds, exceed_thresholds : ndarray or None
        The members' thresholds stacked in family order; None unless
        every member is an OrliczFunction.
    """

    def __init__(self, functions):
        functions = tuple(functions)
        if not functions:
            raise ParameterError("family index set must be nonempty")
        self.functions = functions
        self._groups = None
        self._all_columns = np.arange(len(functions))[None]
        self.zero_thresholds = self.exceed_thresholds = None
        if all(isinstance(fn, OrliczFunction) for fn in functions):
            self.zero_thresholds = np.array(
                [fn.zero_threshold for fn in functions])
            self.exceed_thresholds = np.array(
                [fn.exceed_threshold for fn in functions])
            # the inert slot len(family) never passes its threshold
            self._zero = np.append(self.zero_thresholds, np.inf)
            self._log_g_width = np.array(
                [fn._log_g_width for fn in functions])
            return
        groups: dict[int, list[int]] = {}
        for i, fn in enumerate(functions):
            groups.setdefault(id(fn), []).append(i)
        self._groups = [
            (functions[idx[0]], np.asarray(idx, dtype=int))
            for idx in groups.values()
        ]

    def __len__(self):
        return len(self.functions)

    def modular(self, args: np.ndarray) -> float:
        """sum_t phi_t(args_t) for an array aligned with the family."""
        return float(self.modular_rows(np.asarray(args, float)[None])[0])

    def modular_rows(self, rows: np.ndarray, cols=None) -> np.ndarray:
        """Row-wise modular for a batch: (n, w) -> (n,).

        Entry (i, j) of ``rows`` is the argument of member ``cols[i, j]``,
        where ``cols`` is an integer array of shape (n, w) or (1, w) and
        index ``len(family)`` is an inert slot whose value is 0.  By
        default w = len(family) and column j belongs to member j.  Column
        indices need a family of OrliczFunctions.
        """
        rows = np.asarray(rows, dtype=float)
        if cols is None:
            cols = self._all_columns
        elif self._groups is not None:
            raise ParameterError(
                "column indices need a family of OrliczFunctions")
        if (rows.ndim != 2 or cols.shape[1:] != rows.shape[1:]
                or cols.shape[0] not in (1, rows.shape[0])):
            raise ParameterError(
                f"rows of shape {rows.shape} do not match columns of shape "
                f"{cols.shape}")
        # written to fail on NaN too
        if rows.size and not rows.min() >= 0.0:
            raise ParameterError(
                "orlicz functions are defined for t >= 0, not NaN")
        if self._groups is not None:
            total = np.zeros(rows.shape[0])
            for fn, idx in self._groups:
                total += np.sum(fn(rows[:, idx]), axis=1)
            return total
        # Every bump vanishes up to its zero threshold, so only the
        # entries above it are evaluated.
        r, j = np.nonzero(rows > self._zero[cols])
        if not r.size:
            return np.zeros(rows.shape[0])
        t = cols[r if len(cols) == len(rows) else 0, j]
        vals = _bump(rows[r, j] - self._zero[t], self._log_g_width[t], 0)
        return np.bincount(r, weights=vals, minlength=rows.shape[0])


def _coordinate_rows(family, rows):
    """Validate (n, len(family)) coordinate rows."""
    if rows.ndim != 2 or rows.shape[1] != len(family):
        raise ParameterError(
            f"coordinates of shape {rows.shape[1:]} do not match family "
            f"size {len(family)}"
        )
    return rows


def luxemburg_norm(family: OrliczFamily, coords) -> float:
    """Generalized Luxemburg norm of a finite coordinate vector.

    ||c||_phi = inf { rho > 0 : sum_t phi_t(|c_t|/rho) <= 1 }: the
    certified upper bracket endpoint of feasible_scale_inf (relative
    width scaling.DEFAULT_TOL) on a batch of one, so feasibility at the
    result holds exactly as computed and the value equals
    luxemburg_norm_batch on the same row.  feasible_scale_inf gives the
    bracket itself.
    """
    coords = np.asarray(coords, dtype=float)
    return float(feasible_scale_inf(
        lambda z, _: family.modular_rows(z),
        _coordinate_rows(family, coords[None])).hi[0])


def luxemburg_norm_batch(family: OrliczFamily, rows) -> np.ndarray:
    """Luxemburg norms of many coordinate vectors at once.

    Same contract and, row for row, the same values as luxemburg_norm;
    the bisection runs on all rows simultaneously, which is much faster
    for large sample pools.
    """
    rows = _coordinate_rows(family, np.atleast_2d(np.asarray(rows, float)))
    return feasible_scale_inf(lambda z, _: family.modular_rows(z), rows).hi


@dataclass(frozen=True)
class Lemma1Report:
    """Result of a two-sided norm-equivalence check.

    For a family with phi_t(alpha) = 0 and phi_t(beta) >= 1 for all t,
    the sup norm is pinched:  alpha*||c||_phi <= ||c||_inf <= beta*||c||_phi.
    Slacks are measured at certified-bracket precision: the left-hand
    comparison is granted alpha * (bracket width) of slack because the
    certified value is the upper endpoint.
    """

    checked: int
    violations: int
    max_left_excess: float
    max_right_excess: float

    @property
    def passed(self) -> bool:
        return self.violations == 0


def check_lemma1_bounds(family: OrliczFamily, alpha, beta,
                        vectors) -> Lemma1Report:
    """Check alpha*||c||_phi <= ||c||_inf <= beta*||c||_phi on samples,
    bracketing all of them in one feasible_scale_inf call.

    Preconditions (validated): every family member vanishes at alpha and
    reaches at least 1 at beta.
    """
    alpha = float(alpha)
    beta = float(beta)
    if not (0.0 < alpha < beta):
        raise ParameterError("need 0 < alpha < beta")
    for fn in family.functions:
        if float(fn(np.asarray([alpha]))[0]) != 0.0:
            raise ParameterError("family member does not vanish at alpha")
        if not float(fn(np.asarray([beta]))[0]) >= 1.0:
            raise ParameterError("family member stays below 1 at beta")

    rows = np.asarray(list(vectors), dtype=float)
    if not len(rows):
        rows = np.empty((0, len(family)))
    bracket = feasible_scale_inf(lambda z, _: family.modular_rows(z),
                                 _coordinate_rows(family, rows))
    value, width = bracket.hi, bracket.hi - bracket.lo
    sup = np.abs(rows).max(axis=1)
    dust = 1e-12 * np.maximum(sup, 1.0)
    left = alpha * value - sup - alpha * width - dust
    right = sup - beta * value - dust
    return Lemma1Report(
        checked=len(rows), violations=int(np.sum((left > 0) | (right > 0))),
        max_left_excess=float(left.max(initial=0.0)),
        max_right_excess=float(right.max(initial=0.0)))
