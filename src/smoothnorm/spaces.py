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

All kinds here have 1-unconditional monotone bases.  Lorentz weights
are finite, positive and nonincreasing with w_0 = 1; equal weights are
allowed.  The formulas apply the weights in the given order against the
decreasing rearrangement, so an increasing pair would make lorentz no
norm (||e_0 + e_1|| above ||e_0|| + ||e_1||) and would list predual dual
extreme points that are not extreme.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import NumericError, ParameterError, check_integer
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


def _ranks(X):
    """Each entry's place in its row's order by decreasing |x|, ties
    broken by index."""
    order = np.argsort(-np.abs(X), axis=1, kind="stable")
    return np.argsort(order, axis=1)


class ModelSpace:
    """A finite-dimensional model space; each kind is a subclass.

    A kind supplies the row formulas ``_norm_rows``, ``_dual_norm_rows``
    (unless its dual is the coordinate l1 norm) and, where closed forms
    exist, ``_norming_functional_rows`` and ``support_levels``.  The
    public ``*_rows`` methods add the shape and non-finite checks, and
    ``norm`` / ``dual_norm`` / ``norming_functional`` are their one-row
    case.  A kind whose best supports are not the largest |x_i|
    overrides ``_support_ranks``.  Class attributes:

    kind                    name in reports and messages
    dual_metric             "exact", or "surrogate_l1" when the dual
                            norm rows are coordinate l1 standing in
    monotone_unconditional  the unit vector basis is 1-unconditional
                            and monotone
    enumerable_dual         support_levels lists the dual ball's
                            extreme points
    """

    kind = "model"
    dual_metric = "surrogate_l1"
    monotone_unconditional = True
    enumerable_dual = False

    def __init__(self, dim):
        self.dim = check_integer(dim, "dim")
        if self.dim < 1:
            raise ParameterError("dim must be >= 1")

    # -- norms ---------------------------------------------------------

    def norm(self, x) -> float:
        x = self._check_vec(x)
        return float(self.norm_rows(x[None, :])[0])

    def norm_rows(self, X) -> np.ndarray:
        """Row-wise norm, (k, dim) -> (k,)."""
        X = self._check_rows(X)
        # _finite raises on every non-finite value, so none warns first
        with np.errstate(over="ignore", invalid="ignore"):
            out = self._norm_rows(X)
        return self._finite("norm", X, out)

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
        with np.errstate(over="ignore", invalid="ignore"):
            out = self._dual_norm_rows(F)
        return self._finite("dual norm", F, out)

    def _norm_rows(self, X):
        raise NotImplementedError

    def _dual_norm_rows(self, F):
        return np.sum(np.abs(F), axis=1)

    # -- closed forms --------------------------------------------------

    def norming_functional(self, x) -> np.ndarray:
        x = self._check_vec(x)
        return self.norming_functional_rows(x[None, :])[0]

    def norming_functional_rows(self, X) -> np.ndarray:
        """Row-wise f with f(x) = ||x|| and dual norm 1, (k, dim) ->
        (k, dim), for the closed-form kinds; a zero row, or one with a
        NaN or inf, is a ParameterError naming the row."""
        X = self._check_rows(X)
        peak = self._finite("norming functional", X, np.abs(X).max(axis=1))
        if not np.all(peak > 0.0):
            raise ParameterError(f"norming functional of 0 is undefined "
                                 f"(row {int(np.argmin(peak))})")
        return self._norming_functional_rows(X)

    def _norming_functional_rows(self, X):
        raise ParameterError(
            f"no closed-form norming functional for kind {self.kind!r}")

    def support_levels(self):
        """The extreme points of the dual unit ball split by support size,
        for enumerable kinds: dim (k, dim) arrays, level k - 1 holding
        those of support k (possibly none).  These are the paper's level
        increments, piece k - 1 of the direct route."""
        raise ParameterError(
            f"dual ball of kind {self.kind!r} is not enumerable here")

    def dual_extreme_points(self) -> np.ndarray:
        """The dual unit ball's extreme points: the support levels stacked."""
        return np.vstack(self.support_levels())

    # -- projections ---------------------------------------------------

    def top_projection_rows(self, S, n):
        """max over |sigma| = n of ||P_sigma x|| per row x of S, as the
        ``norm_rows`` of the masked rows, and the (k, dim) boolean masks
        of supports attaining it (n above dim: the full support)."""
        return next(self.top_projections(S, (n,)))

    def top_projections(self, S, sizes):
        """``top_projection_rows(S, n)`` for each n of sizes in turn, from
        one ranking of the rows: the support of size n is the entries
        ranked below n, the n largest keys with ties to the lower index.
        A row that holds a NaN or inf is a ParameterError naming the row,
        raised before any ranking."""
        S = self._check_rows(S)
        if not self.monotone_unconditional:
            raise ParameterError(
                f"kind {self.kind!r} has no monotone unconditional basis")
        self._finite("top projection", S, np.abs(S).max(axis=1))
        ranks = _ranks(S)
        for n in sizes:
            n = min(check_integer(n, "support size"), self.dim)
            if n < 0:
                raise ParameterError("support size must be >= 0")
            masks = self._support_ranks(S, n, ranks) < n
            yield self.norm_rows(np.where(masks, S, 0.0)), masks

    def _support_ranks(self, S, n, ranks):
        # the ranks by |x|: exact for the symmetric kinds, whose computed
        # norms depend only on the decreasing rearrangement of |x|
        return ranks

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

    def _norming_functional_rows(self, X):
        # a signed unit coordinate at each row's largest |x_i|
        i = np.argmax(np.abs(X), axis=1)[:, None]
        return np.where(np.arange(self.dim) == i, _signs(X), 0.0)

    def support_levels(self):
        # every extreme point has support size 1
        eye = np.eye(self.dim)
        return [np.vstack([eye, -eye])] + [eye[:0]] * (self.dim - 1)


class EuclideanSpace(ModelSpace):
    kind = "euclidean"
    dual_metric = "exact"

    def _norm_rows(self, X):
        # self-dual, so this serves both norms; scaled by the row's peak so
        # squares neither underflow below nor overflow above it, and the
        # value is >= the peak.  Summed in increasing order, so a row's
        # value is the same bits under any permutation of its entries.
        A = np.sort(np.abs(X), axis=1)
        peak = A[:, -1]
        unit = A / np.where(peak > 0.0, peak, 1.0)[:, None]
        return peak * np.sqrt(np.sum(unit * unit, axis=1))

    _dual_norm_rows = _norm_rows

    def _norming_functional_rows(self, X):
        return X / self.norm_rows(X)[:, None]


class _LorentzKind(ModelSpace):
    """The two Lorentz kinds: each one's norm is the other's dual."""

    dual_metric = "exact"

    def __init__(self, weights):
        w = np.asarray(weights, dtype=float)
        super().__init__(len(w))
        if w.shape != (self.dim,):
            raise ParameterError("weights must have length dim")
        # written so that NaN fails it
        if not (w[0] == 1.0 and np.all((w > 0.0) & np.isfinite(w))):
            raise ParameterError(
                "need w_0 = 1 and all weights finite and positive")
        if np.any(np.diff(w) > 0.0):
            raise ParameterError(
                f"weights must be nonincreasing, got {w.tolist()}")
        self.weights = w
        self._wsums = np.cumsum(w)

    def _weighted_sum_rows(self, F):
        ranked = np.sort(np.abs(F), axis=1)[:, ::-1]
        return np.sum(ranked * self.weights, axis=1)

    def _partial_ratio_rows(self, F):
        ranked = np.sort(np.abs(F), axis=1)[:, ::-1]
        return np.max(np.cumsum(ranked, axis=1) / self._wsums, axis=1)


class LorentzSpace(_LorentzKind):
    kind = "lorentz"
    _norm_rows = _LorentzKind._weighted_sum_rows
    _dual_norm_rows = _LorentzKind._partial_ratio_rows

    def _norming_functional_rows(self, X):
        # the weights on each row's rank order of |x|, signed; zeros get 0.0
        return np.where(X != 0.0, _signs(X) * self.weights[_ranks(X)], 0.0)


class LorentzPredualSpace(_LorentzKind):
    kind = "lorentz_predual"
    enumerable_dual = True
    _norm_rows = _LorentzKind._partial_ratio_rows
    _dual_norm_rows = _LorentzKind._weighted_sum_rows

    def _norming_functional_rows(self, X):
        # the sign pattern of each row's smallest maximizing partial sum,
        # scaled by 1/W_k (an extreme point of the dual d(w,1)-ball)
        ranked = np.sort(np.abs(X), axis=1)[:, ::-1]
        k = np.argmax(np.cumsum(ranked, axis=1) / self._wsums, axis=1)
        return np.where(_ranks(X) <= k[:, None],
                        _signs(X) / self._wsums[k][:, None], 0.0)

    def support_levels(self):
        """Level k - 1 holds the sign patterns of 1/W_k on every k-subset:
        the vertices of the d(w,1)-ball, 3^dim - 1 in all; more than
        200,000 of them is a ParameterError."""
        total = 3 ** self.dim - 1
        if total > 200_000:
            raise ParameterError(
                f"{total} extreme points exceeds the cap of 200,000")
        levels = []
        for k in range(1, self.dim + 1):
            # indexed by (combination, sign pattern), both in itertools order
            combos = list(itertools.combinations(range(self.dim), k))
            signs = np.asarray(list(itertools.product((1.0, -1.0), repeat=k)))
            level = np.zeros((len(combos), len(signs), self.dim))
            np.put_along_axis(level, np.asarray(combos)[:, None, :],
                              signs * (1.0 / self._wsums[k - 1]), axis=2)
            levels.append(level.reshape(-1, self.dim))
        return levels


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
        sets = [np.asarray(sorted(check_integer(i, "index set entry")
                                  for i in s), dtype=int) for s in sets]
        p = np.asarray(exponents, dtype=float)
        if len(sets) != len(p) or len(sets) == 0:
            raise ParameterError("need one exponent per index set")
        # written so that NaN fails it: a NaN exponent would read as the
        # exponent table's "not in this set" marker
        if not (np.all((p >= 1.0) & np.isfinite(p))
                and np.all(np.diff(p) >= 0.0)):
            raise ParameterError(
                "exponents must be finite, >= 1 and nondecreasing")
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
        return feasible_scale_inf(
            lambda z, _: self._lap_modular_rows(z), X).hi

    def lap_modular(self, z) -> float:
        """Phi(z) = sum_k max_{n: k in A_n} |z_k|^{p_n}."""
        z = self._check_vec(z)
        return float(self._lap_modular_rows(z[None, :])[0])

    def _lap_modular_rows(self, rows) -> np.ndarray:
        """Row-wise Phi: (n, dim) -> (n,)."""
        return np.sum(self._lap_terms(rows), axis=1)

    def _lap_terms(self, rows) -> np.ndarray:
        """Phi's terms max_{n: k in A_n} |z_k|^{p_n}, (n, dim) -> same."""
        with np.errstate(invalid="ignore"):
            powers = np.abs(rows)[:, None, :] ** self._exponent_table
        return np.nanmax(powers, axis=1)

    def _support_ranks(self, S, n, ranks):
        # Phi's largest value over size-n supports is the sum of its n
        # largest terms, itself a modular whose scaling infimum is the
        # largest projection norm; rank the terms at that scale (any
        # ranks give sizes 0 and dim their one support)
        if n in (0, self.dim):
            return ranks

        def top_modular_rows(rows, _):
            return np.sum(np.sort(self._lap_terms(rows), axis=1)[:, -n:],
                          axis=1)

        rho = feasible_scale_inf(top_modular_rows, S).hi
        return _ranks(self._lap_terms(
            S / np.where(rho > 0.0, rho, 1.0)[:, None]))

    def _norming_functional_rows(self, X):
        # the normalized modular gradient (a subgradient selection where
        # the active exponent ties or a coordinate vanishes), each row over
        # its own g @ u: a vectorized row sum would round differently
        U = X / self.norm_rows(X)[:, None]
        AU = np.abs(U)
        with np.errstate(invalid="ignore"):
            powers = AU[:, None, :] ** self._exponent_table
        P = self.exponents[np.nanargmax(powers, axis=1)]
        G = np.where(AU > 0.0, P * AU ** (P - 1.0) * _signs(U), 0.0)
        return G / np.array([g @ u for g, u in zip(G, U)])[:, None]


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


def find_norming_support(space: ModelSpace, y):
    """Find sigma with ||P_sigma(y)|| = 1 for y of norm 1 (within 1e-7),
    or None: the support ``top_projections`` gives at the smallest size
    whose projection sup is within 1e-9 of 1."""
    y = space._check_vec(y)
    ny = space.norm(y)
    if abs(ny - 1.0) > 1e-7:
        raise ParameterError(f"y must be on the unit sphere, got norm {ny}")
    for values, masks in space.top_projections(y[None, :],
                                               range(1, space.dim + 1)):
        if abs(values[0] - 1.0) <= 1e-9:
            return np.flatnonzero(masks[0])
    return None
