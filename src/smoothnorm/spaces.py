"""Finite model spaces: norms, duals, projections, norming supports.

Vectors and functionals are plain 1-d numpy arrays over the index set
{0, ..., dim-1}.  A ModelSpace bundles a norm kind with its parameters:

    sup_finite       ||x|| = max |x_i|                  (dual: l1)
    euclidean        ||x|| = l2                         (self-dual)
    orlicz_hM        Luxemburg norm of a constant family M
    lap              l_{A,p}: Luxemburg-type norm of the modular
                     Phi(z) = sum_k max_{n: k in A_n} |z_k|^{p_n}
                     (per-index best exponent; equals the sup over
                     disjoint selections B_n subset A_n since terms are
                     nonnegative and independent)
    lorentz          d(w,1):  sum_j w_j * (j-th largest |x|)
    lorentz_predual  d_*(w,1): max_k (sum of k largest |x|) / W_k,
                     W_k = w_0 + ... + w_{k-1}

All kinds here have 1-unconditional monotone bases.  Lorentz weights are
expected nonincreasing with w_0 = 1 (only positivity and w_0 = 1 are
checkable invariants at finite truncation; the norm formulas apply the
weights in the given order against the decreasing rearrangement).
"""

from __future__ import annotations

import itertools
from math import isfinite

import numpy as np

from .errors import NumericError, ParameterError
from .orlicz import OrliczFamily, OrliczFunction, luxemburg_norm
from .scaling import feasible_scale_inf

__all__ = [
    "ModelSpace",
    "sup_space",
    "euclidean_space",
    "orlicz_space",
    "lap_space",
    "lorentz_space",
    "lorentz_predual_space",
    "space_norm",
    "proj",
    "support",
    "find_norming_support",
    "norming_functional",
    "dual_extreme_points",
]

_KINDS = ("sup_finite", "euclidean", "orlicz_hM", "lap", "lorentz",
          "lorentz_predual")

# Kinds whose dual norm has a closed form here; the others use a declared
# coordinate-l1 surrogate for separation metrics.
_EXACT_DUALS = ("sup_finite", "euclidean", "lorentz", "lorentz_predual")


def _nonfinite_error(what, F, row):
    """Error for a non-finite value computed from row ``row`` of ``F``:
    ParameterError when that row holds a NaN or inf, NumericError
    (overflow) when it is finite."""
    if not np.all(np.isfinite(F[row])):
        return ParameterError(
            f"{what}: row {row} has a NaN or infinite coordinate")
    return NumericError(f"{what}: row {row} overflows the float range")


class ModelSpace:
    """A finite-dimensional model space (see module docstring for kinds).

    Fields
    ------
    kind : str
        One of sup_finite | euclidean | orlicz_hM | lap | lorentz |
        lorentz_predual.
    dim : int
    weights : ndarray or None        (lorentz kinds)
    sets, exponents : lists or None  (lap)
    orlicz_m : OrliczFunction or None (orlicz_hM)
    monotone_unconditional : bool
    """

    def __init__(self, kind, dim, weights=None, sets=None, exponents=None,
                 orlicz_m=None):
        if kind not in _KINDS:
            raise ParameterError(f"unknown space kind {kind!r}")
        if dim < 1:
            raise ParameterError("dim must be >= 1")
        self.kind = kind
        self.dim = int(dim)
        self.weights = None
        self.sets = None
        self.exponents = None
        self.orlicz_m = None
        self.monotone_unconditional = True

        if kind in ("lorentz", "lorentz_predual"):
            w = np.asarray(weights, dtype=float)
            if w.shape != (self.dim,):
                raise ParameterError("weights must have length dim")
            if w[0] != 1.0 or np.any(w <= 0.0):
                raise ParameterError("need w_0 = 1 and all weights positive")
            self.weights = w
            self._wsums = np.cumsum(w)
        elif kind == "lap":
            sets = [np.asarray(sorted(s), dtype=int) for s in sets]
            p = np.asarray(exponents, dtype=float)
            if len(sets) != len(p) or len(sets) == 0:
                raise ParameterError("need one exponent per index set")
            if np.any(p < 1.0) or np.any(np.diff(p) < 0.0):
                raise ParameterError("exponents must be >= 1, nondecreasing")
            covered = set()
            for s in sets:
                if s.size == 0 or s.min() < 0 or s.max() >= self.dim:
                    raise ParameterError("index sets must be nonempty "
                                         "subsets of range(dim)")
                covered.update(int(i) for i in s)
            if covered != set(range(self.dim)):
                raise ParameterError("index sets must cover range(dim)")
            self.sets = sets
            self.exponents = p
            # exponent_table[n, k] = p_n where k in A_n, else nan
            table = np.full((len(sets), self.dim), np.nan)
            for n, s in enumerate(sets):
                table[n, s] = p[n]
            self._exponent_table = table
        elif kind == "orlicz_hM":
            if not isinstance(orlicz_m, OrliczFunction):
                raise ParameterError("orlicz_hM needs an OrliczFunction")
            self.orlicz_m = orlicz_m
            self._family = OrliczFamily([orlicz_m] * self.dim)

    # -- norms ---------------------------------------------------------

    def norm(self, x) -> float:
        x = self._check_vec(x)
        if self.kind == "sup_finite":
            value = float(np.abs(x).max())
        elif self.kind == "euclidean":
            value = float(np.linalg.norm(x))
        elif self.kind == "orlicz_hM":
            return float(luxemburg_norm(self._family, x))
        elif self.kind == "lap":
            return float(
                feasible_scale_inf(self._lap_modular_rows, x[None, :]).hi[0])
        elif self.kind == "lorentz":
            ranked = np.sort(np.abs(x))[::-1]
            value = float(np.dot(self.weights, ranked))
        else:  # lorentz_predual
            ranked = np.sort(np.abs(x))[::-1]
            value = float(np.max(np.cumsum(ranked) / self._wsums))
        if not isfinite(value):
            raise _nonfinite_error("norm", x[None, :], 0)
        return value

    def lap_modular(self, z) -> float:
        """Phi(z) = sum_k max_{n: k in A_n} |z_k|^{p_n}."""
        if self.kind != "lap":
            raise ParameterError("lap_modular is defined for lap spaces")
        z = self._check_vec(z)
        return float(self._lap_modular_rows(z[None, :])[0])

    def _lap_modular_rows(self, rows) -> np.ndarray:
        """Row-wise Phi: (n, dim) -> (n,)."""
        with np.errstate(invalid="ignore"):
            powers = np.abs(rows)[:, None, :] ** self._exponent_table
        return np.sum(np.nanmax(powers, axis=1), axis=1)

    def dual_norm(self, f) -> float:
        """Dual norm of one functional: the one-row case of
        ``dual_norm_rows``."""
        f = self._check_vec(f)
        return float(self.dual_norm_rows(f[None, :])[0])

    def dual_norm_rows(self, F) -> np.ndarray:
        """Row-wise dual norm, (k, dim) -> (k,): closed form for exact
        kinds, coordinate l1 otherwise (recorded in ``dual_metric``).

        Every kind's value bounds max |f_i| from above (l1 and l2 do, and
        both Lorentz duals have w_0 = 1).  Only elementwise operations and
        row sums are used, so a row's value is the same bits in any batch.
        """
        F = np.asarray(F, dtype=float)
        if F.ndim != 2 or F.shape[1] != self.dim:
            raise ParameterError(
                f"expected rows of shape (k, {self.dim}), got {F.shape}")
        A = np.abs(F)
        if self.kind == "euclidean":
            # scaled by the row's peak so squares neither underflow below
            # nor overflow above it, and the value is >= the peak
            peak = np.max(A, axis=1)
            unit = A / np.where(peak > 0.0, peak, 1.0)[:, None]
            out = peak * np.sqrt(np.sum(unit * unit, axis=1))
        elif self.kind == "lorentz":
            ranked = np.sort(A, axis=1)[:, ::-1]
            out = np.max(np.cumsum(ranked, axis=1) / self._wsums, axis=1)
        elif self.kind == "lorentz_predual":
            ranked = np.sort(A, axis=1)[:, ::-1]
            out = np.sum(ranked * self.weights, axis=1)
        else:
            out = np.sum(A, axis=1)
        finite = np.isfinite(out)
        if not finite.all():
            raise _nonfinite_error("dual norm", F, int(np.argmin(finite)))
        return out

    @property
    def dual_metric(self) -> str:
        return "exact" if self.kind in _EXACT_DUALS else "surrogate_l1"

    # -- plumbing ------------------------------------------------------

    def _check_vec(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ParameterError(
                f"expected vector of shape ({self.dim},), got {x.shape}")
        return x

    def __repr__(self):
        extra = ""
        if self.weights is not None:
            extra = f", weights={np.round(self.weights, 6).tolist()}"
        if self.sets is not None:
            extra = (f", sets={[s.tolist() for s in self.sets]}, "
                     f"exponents={self.exponents.tolist()}")
        return f"ModelSpace({self.kind!r}, dim={self.dim}{extra})"


def sup_space(dim) -> ModelSpace:
    return ModelSpace("sup_finite", dim)


def euclidean_space(dim) -> ModelSpace:
    return ModelSpace("euclidean", dim)


def orlicz_space(m: OrliczFunction, dim) -> ModelSpace:
    return ModelSpace("orlicz_hM", dim, orlicz_m=m)


def lap_space(sets, exponents, dim) -> ModelSpace:
    return ModelSpace("lap", dim, sets=sets, exponents=exponents)


def lorentz_space(weights) -> ModelSpace:
    return ModelSpace("lorentz", len(weights), weights=weights)


def lorentz_predual_space(weights) -> ModelSpace:
    return ModelSpace("lorentz_predual", len(weights), weights=weights)


def space_norm(space: ModelSpace, x) -> float:
    return space.norm(x)


def proj(x, sigma, dim=None):
    """Basis projection P_sigma: zero out coordinates off sigma."""
    x = np.asarray(x, dtype=float)
    if dim is not None and x.shape != (dim,):
        raise ParameterError(f"expected vector of length {dim}")
    sigma = np.asarray(sorted(set(int(i) for i in np.atleast_1d(sigma))),
                       dtype=int)
    if sigma.size and (sigma.min() < 0 or sigma.max() >= x.size):
        raise ParameterError("support indices out of range")
    out = np.zeros_like(x)
    out[sigma] = x[sigma]
    return out


def support(f) -> np.ndarray:
    """Indices of nonzero coordinates."""
    return np.nonzero(np.asarray(f))[0]


def find_norming_support(space: ModelSpace, y, tol=1e-9, cap=None):
    """Find sigma with ||P_sigma(y)|| = 1 for unit y, or None.

    For lorentz_predual the support is constructed directly: take the
    smallest maximizing k of the weighted partial sums and the k largest
    coordinates (ties broken by index).  Other kinds search supports
    exhaustively in order of size, lexicographically within a size.
    """
    y = space._check_vec(y)
    ny = space.norm(y)
    if abs(ny - 1.0) > max(tol, 1e-7):
        raise ParameterError(f"y must be on the unit sphere, got norm {ny}")

    if space.kind == "lorentz_predual":
        order = np.lexsort((np.arange(space.dim), -np.abs(y)))
        ranked = np.abs(y)[order]
        ratios = np.cumsum(ranked) / space._wsums
        kstar = int(np.argmax(ratios)) + 1  # argmax takes smallest on ties
        sigma = np.sort(order[:kstar])
        if abs(space.norm(proj(y, sigma)) - 1.0) <= tol:
            return sigma
        return None

    cap = space.dim if cap is None else min(int(cap), space.dim)
    for size in range(1, cap + 1):
        for combo in itertools.combinations(range(space.dim), size):
            sigma = np.asarray(combo, dtype=int)
            val = space.norm(proj(y, sigma))
            if abs(val - 1.0) <= tol:
                return sigma
    return None


def norming_functional(space: ModelSpace, x) -> np.ndarray:
    """f with f(x) = ||x|| and dual norm 1, for kinds with closed forms.

    sup_finite: a signed unit coordinate at the largest |x_i|.
    euclidean:  x / ||x||_2.
    lorentz_predual: the sign pattern of the maximizing partial sum,
        scaled by 1/W_k (an extreme point of the dual d(w,1)-ball).
    lorentz:    weights re-sorted onto the rank order of |x|, signed.
    lap:        normalized modular gradient (a subgradient selection
        where the active exponent ties or a coordinate vanishes).
    """
    x = space._check_vec(x)
    if not np.any(x):
        raise ParameterError("norming functional of 0 is undefined")
    sgn = np.where(x >= 0.0, 1.0, -1.0)
    if space.kind == "sup_finite":
        i = int(np.argmax(np.abs(x)))
        f = np.zeros(space.dim)
        f[i] = sgn[i]
        return f
    if space.kind == "euclidean":
        return x / float(np.linalg.norm(x))
    if space.kind == "lorentz_predual":
        order = np.lexsort((np.arange(space.dim), -np.abs(x)))
        ranked = np.abs(x)[order]
        ratios = np.cumsum(ranked) / space._wsums
        kstar = int(np.argmax(ratios)) + 1
        f = np.zeros(space.dim)
        idx = order[:kstar]
        f[idx] = sgn[idx] / space._wsums[kstar - 1]
        return f
    if space.kind == "lorentz":
        order = np.lexsort((np.arange(space.dim), -np.abs(x)))
        f = np.zeros(space.dim)
        f[order] = sgn[order] * space.weights
        return f
    if space.kind == "lap":
        u = x / space.norm(x)
        au = np.abs(u)
        with np.errstate(invalid="ignore"):
            powers = au[None, :] ** space._exponent_table
        p_act = space.exponents[np.nanargmax(powers, axis=0)]
        g = np.where(au > 0.0, p_act * au ** (p_act - 1.0) * sgn, 0.0)
        return g / float(g @ u)
    raise ParameterError(
        f"no closed-form norming functional for kind {space.kind!r}")


def dual_extreme_points(space: ModelSpace, max_support=None,
                        budget=200000) -> np.ndarray:
    """Extreme points of the dual unit ball, for polyhedral dual kinds.

    sup_finite: +-e_i.  lorentz_predual: sign patterns of 1/W_k on every
    k-subset (vertices of the d(w,1)-ball).  Other kinds raise.
    """
    if space.kind == "sup_finite":
        eye = np.eye(space.dim)
        return np.vstack([eye, -eye])
    if space.kind == "lorentz_predual":
        cap = space.dim if max_support is None else min(
            int(max_support), space.dim)
        total = sum(
            2 ** k * _ncr(space.dim, k) for k in range(1, cap + 1))
        if total > budget:
            raise ParameterError(
                f"{total} extreme points exceeds budget {budget}")
        rows = []
        for k in range(1, cap + 1):
            scale = 1.0 / space._wsums[k - 1]
            for combo in itertools.combinations(range(space.dim), k):
                for signs in itertools.product((1.0, -1.0), repeat=k):
                    f = np.zeros(space.dim)
                    f[list(combo)] = np.asarray(signs) * scale
                    rows.append(f)
        return np.asarray(rows)
    raise ParameterError(
        f"dual ball of kind {space.kind!r} is not enumerable here")


def _ncr(n, r):
    out = 1
    for i in range(r):
        out = out * (n - i) // (i + 1)
    return out
