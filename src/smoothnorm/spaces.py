"""Finite model spaces: norms, duals, projections, norming supports.

Vectors and functionals are plain 1-d numpy arrays over the index set
{0, ..., dim-1}, batches are (k, dim) arrays of rows.  Each kind is a
ModelSpace subclass holding its parameters (in the order below: SupSpace,
EuclideanSpace, OrliczSpace, LapSpace, LorentzSpace, LorentzPredualSpace):

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
from math import comb

import numpy as np

from .errors import NumericError, ParameterError
from .orlicz import OrliczFamily, OrliczFunction, luxemburg_norm_batch
from .scaling import feasible_scale_inf

__all__ = [
    "ModelSpace",
    "SupSpace",
    "EuclideanSpace",
    "OrliczSpace",
    "LapSpace",
    "LorentzSpace",
    "LorentzPredualSpace",
    "sup_space",
    "euclidean_space",
    "orlicz_space",
    "lap_space",
    "lorentz_space",
    "lorentz_predual_space",
    "proj",
    "support",
    "find_norming_support",
]


def _signs(x):
    return np.where(x >= 0.0, 1.0, -1.0)


class ModelSpace:
    """A finite-dimensional model space; each kind is a subclass.

    A kind supplies the row formula ``_norm_rows`` and, unless its dual
    is the coordinate l1 norm, ``_dual_norm_rows``: (k, dim) -> (k,).
    ``norm_rows`` / ``dual_norm_rows`` add the shape and non-finite
    checks, and ``norm`` / ``dual_norm`` are their one-row case.  Kinds
    with closed forms add ``_norming_functional`` and
    ``dual_extreme_points``.  Class attributes:

    kind                    name in reports and messages
    dual_metric             "exact", or "surrogate_l1" when the dual
                            norm rows are coordinate l1 standing in
    monotone_unconditional  the unit vector basis is 1-unconditional
                            and monotone
    enumerable_dual         dual_extreme_points lists the dual ball's
                            extreme points
    """

    kind = "model"
    dual_metric = "surrogate_l1"
    monotone_unconditional = True
    enumerable_dual = False

    def __init__(self, dim):
        if dim < 1:
            raise ParameterError("dim must be >= 1")
        self.dim = int(dim)

    # -- norms ---------------------------------------------------------

    def norm(self, x) -> float:
        x = self._check_vec(x)
        return float(self.norm_rows(x[None, :])[0])

    def norm_rows(self, X) -> np.ndarray:
        """Row-wise norm, (k, dim) -> (k,)."""
        X = self._check_rows(X)
        return self._finite("norm", X, self._norm_rows(X))

    def dual_norm(self, f) -> float:
        f = self._check_vec(f)
        return float(self.dual_norm_rows(f[None, :])[0])

    def dual_norm_rows(self, F) -> np.ndarray:
        """Row-wise dual norm, (k, dim) -> (k,): closed form for exact
        kinds, coordinate l1 otherwise (recorded in ``dual_metric``).

        Every kind's value bounds max |f_i| from above (l1 and l2 do, and
        both Lorentz duals have w_0 = 1).  Only elementwise operations and
        row sums are used, so a row's value is the same bits in any batch.
        """
        F = self._check_rows(F)
        return self._finite("dual norm", F, self._dual_norm_rows(F))

    def _norm_rows(self, X):
        raise NotImplementedError

    def _dual_norm_rows(self, F):
        return np.sum(np.abs(F), axis=1)

    # -- closed forms --------------------------------------------------

    def norming_functional(self, x) -> np.ndarray:
        """f with f(x) = ||x|| and dual norm 1, for kinds with a closed
        form (all but orlicz_hM)."""
        x = self._check_vec(x)
        if not np.any(x):
            raise ParameterError("norming functional of 0 is undefined")
        return self._norming_functional(x)

    def _norming_functional(self, x):
        raise ParameterError(
            f"no closed-form norming functional for kind {self.kind!r}")

    def dual_extreme_points(self, max_support=None,
                            budget=200000) -> np.ndarray:
        """Extreme points of the dual unit ball, for enumerable kinds."""
        raise ParameterError(
            f"dual ball of kind {self.kind!r} is not enumerable here")

    # -- plumbing ------------------------------------------------------

    def _check_vec(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ParameterError(
                f"expected vector of shape ({self.dim},), got {x.shape}")
        return x

    def _check_rows(self, F):
        F = np.asarray(F, dtype=float)
        if F.ndim != 2 or F.shape[1] != self.dim:
            raise ParameterError(
                f"expected rows of shape (k, {self.dim}), got {F.shape}")
        return F

    @staticmethod
    def _finite(what, F, out):
        """``out``, unless a value is not finite: then ParameterError when
        its row of ``F`` holds a NaN or inf, NumericError (overflow) when
        the row is finite."""
        finite = np.isfinite(out)
        if not finite.all():
            row = int(np.argmin(finite))
            if not np.all(np.isfinite(F[row])):
                raise ParameterError(
                    f"{what}: row {row} has a NaN or infinite coordinate")
            raise NumericError(f"{what}: row {row} overflows the float range")
        return out

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim})"


class SupSpace(ModelSpace):
    kind = "sup_finite"
    dual_metric = "exact"
    enumerable_dual = True

    def _norm_rows(self, X):
        return np.abs(X).max(axis=1)

    def _norming_functional(self, x):
        # a signed unit coordinate at the largest |x_i|
        i = int(np.argmax(np.abs(x)))
        f = np.zeros(self.dim)
        f[i] = _signs(x[i])
        return f

    def dual_extreme_points(self, max_support=None, budget=200000):
        eye = np.eye(self.dim)
        return np.vstack([eye, -eye])


class EuclideanSpace(ModelSpace):
    kind = "euclidean"
    dual_metric = "exact"

    def _norm_rows(self, X):
        # self-dual, so this serves both norms; scaled by the row's peak so
        # squares neither underflow below nor overflow above it, and the
        # value is >= the peak
        A = np.abs(X)
        peak = np.max(A, axis=1)
        unit = A / np.where(peak > 0.0, peak, 1.0)[:, None]
        return peak * np.sqrt(np.sum(unit * unit, axis=1))

    _dual_norm_rows = _norm_rows

    def _norming_functional(self, x):
        return x / self.norm(x)


class _LorentzKind(ModelSpace):
    """The two Lorentz kinds: each one's norm is the other's dual."""

    dual_metric = "exact"

    def __init__(self, weights):
        w = np.asarray(weights, dtype=float)
        super().__init__(len(w))
        if w.shape != (self.dim,):
            raise ParameterError("weights must have length dim")
        if w[0] != 1.0 or np.any(w <= 0.0):
            raise ParameterError("need w_0 = 1 and all weights positive")
        self.weights = w
        self._wsums = np.cumsum(w)

    def _weighted_sum_rows(self, F):
        ranked = np.sort(np.abs(F), axis=1)[:, ::-1]
        return np.sum(ranked * self.weights, axis=1)

    def _partial_ratio_rows(self, F):
        ranked = np.sort(np.abs(F), axis=1)[:, ::-1]
        return np.max(np.cumsum(ranked, axis=1) / self._wsums, axis=1)

    def _rank_order(self, x):
        """Indices by decreasing |x|, ties broken by index."""
        return np.lexsort((np.arange(self.dim), -np.abs(x)))


class LorentzSpace(_LorentzKind):
    kind = "lorentz"
    _norm_rows = _LorentzKind._weighted_sum_rows
    _dual_norm_rows = _LorentzKind._partial_ratio_rows

    def _norming_functional(self, x):
        # the weights re-sorted onto the rank order of |x|, signed
        order = self._rank_order(x)
        f = np.zeros(self.dim)
        f[order] = _signs(x[order]) * self.weights
        return f


class LorentzPredualSpace(_LorentzKind):
    kind = "lorentz_predual"
    enumerable_dual = True
    _norm_rows = _LorentzKind._partial_ratio_rows
    _dual_norm_rows = _LorentzKind._weighted_sum_rows

    def top_support(self, x):
        """The rank order of |x| and the smallest k maximizing the
        partial-sum ratio: the order's first k indices carry the norm."""
        order = self._rank_order(x)
        ratios = np.cumsum(np.abs(x)[order]) / self._wsums
        return order, int(np.argmax(ratios)) + 1  # smallest on ties

    def _norming_functional(self, x):
        # the sign pattern of the maximizing partial sum, scaled by 1/W_k
        # (an extreme point of the dual d(w,1)-ball)
        order, k = self.top_support(x)
        idx = order[:k]
        f = np.zeros(self.dim)
        f[idx] = _signs(x[idx]) / self._wsums[k - 1]
        return f

    def dual_extreme_points(self, max_support=None, budget=200000):
        """Sign patterns of 1/W_k on every k-subset, k <= max_support:
        the vertices of the d(w,1)-ball."""
        cap = self.dim if max_support is None else min(
            int(max_support), self.dim)
        total = sum(2 ** k * comb(self.dim, k) for k in range(1, cap + 1))
        if total > budget:
            raise ParameterError(
                f"{total} extreme points exceeds budget {budget}")
        rows = []
        for k in range(1, cap + 1):
            scale = 1.0 / self._wsums[k - 1]
            for combo in itertools.combinations(range(self.dim), k):
                for signs in itertools.product((1.0, -1.0), repeat=k):
                    f = np.zeros(self.dim)
                    f[list(combo)] = np.asarray(signs) * scale
                    rows.append(f)
        return np.asarray(rows)


class OrliczSpace(ModelSpace):
    kind = "orlicz_hM"

    def __init__(self, m: OrliczFunction, dim):
        if not isinstance(m, OrliczFunction):
            raise ParameterError("orlicz_hM needs an OrliczFunction")
        super().__init__(dim)
        self.orlicz_m = m
        self._family = OrliczFamily([m] * self.dim)

    def _norm_rows(self, X):
        return luxemburg_norm_batch(self._family, X)


class LapSpace(ModelSpace):
    kind = "lap"

    def __init__(self, sets, exponents, dim):
        super().__init__(dim)
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

    def _norm_rows(self, X):
        return feasible_scale_inf(self._lap_modular_rows, X).hi

    def lap_modular(self, z) -> float:
        """Phi(z) = sum_k max_{n: k in A_n} |z_k|^{p_n}."""
        z = self._check_vec(z)
        return float(self._lap_modular_rows(z[None, :])[0])

    def _lap_modular_rows(self, rows) -> np.ndarray:
        """Row-wise Phi: (n, dim) -> (n,)."""
        with np.errstate(invalid="ignore"):
            powers = np.abs(rows)[:, None, :] ** self._exponent_table
        return np.sum(np.nanmax(powers, axis=1), axis=1)

    def _norming_functional(self, x):
        # the normalized modular gradient (a subgradient selection where
        # the active exponent ties or a coordinate vanishes)
        u = x / self.norm(x)
        au = np.abs(u)
        with np.errstate(invalid="ignore"):
            powers = au[None, :] ** self._exponent_table
        p_act = self.exponents[np.nanargmax(powers, axis=0)]
        g = np.where(au > 0.0, p_act * au ** (p_act - 1.0) * _signs(u), 0.0)
        return g / float(g @ u)


# the factories, by kind parameters
sup_space = SupSpace
euclidean_space = EuclideanSpace
orlicz_space = OrliczSpace
lap_space = LapSpace
lorentz_space = LorentzSpace
lorentz_predual_space = LorentzPredualSpace


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

    For lorentz_predual the support is constructed directly: the sorted
    first k indices of ``top_support``.  Other kinds search supports
    exhaustively in order of size, lexicographically within a size.
    """
    y = space._check_vec(y)
    ny = space.norm(y)
    if abs(ny - 1.0) > max(tol, 1e-7):
        raise ParameterError(f"y must be on the unit sphere, got norm {ny}")

    if isinstance(space, LorentzPredualSpace):
        order, k = space.top_support(y)
        sigma = np.sort(order[:k])
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
