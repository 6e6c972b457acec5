"""Finite-dimensional injective tensor products.

An element u of X tensor Y is stored as its coefficient matrix over the
standard bases, rows indexed by X and columns by Y.  A functional f on X
slices u to the Y-vector apply_fY(f, u) = f @ u, a functional g on Y
slices it to apply_gX(g, u) = u @ g, and the rank-one pairing satisfies

    (f tensor g)(u) = f @ u @ g = g(apply_fY(f, u)) = f(apply_gX(g, u)).

The injective norm is the sup of that pairing over the two dual balls.
Y is restricted to euclidean factors (euclidean(1) doubles as the scalar
case): the inner sup over g is then closed-form, g = f@u / ||f@u||_2, so
the norm reduces to maximizing ||f @ u||_2 over the dual ball of X.  For
polyhedral X duals (sup_finite, lorentz_predual) that maximum is an
exact finite enumeration over extreme points; otherwise a seeded
alternating ascent returns a certified lower bound with its witness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .spaces import EuclideanSpace, ModelSpace

__all__ = [
    "TensorElement",
    "DualPair",
    "InjectiveNormResult",
    "ProductAttainmentRecord",
    "ProductBoundaryReport",
    "apply_fY",
    "apply_gX",
    "tensor_apply",
    "injective_norm",
    "boundary_product_check",
]


@dataclass
class TensorElement:
    """Coefficient matrix of an element of X tensor Y."""

    matrix: np.ndarray
    X: ModelSpace
    Y: ModelSpace

    def __post_init__(self):
        self.matrix = np.atleast_2d(np.asarray(self.matrix, dtype=float))
        if self.matrix.shape != (self.X.dim, self.Y.dim):
            raise ParameterError(
                f"matrix shape {self.matrix.shape} does not match "
                f"dim X x dim Y = ({self.X.dim}, {self.Y.dim})")


@dataclass(frozen=True)
class DualPair:
    """A witness pair of functionals, f on X and g on Y."""

    f: np.ndarray
    g: np.ndarray


def _matrix_of(u):
    return u.matrix if isinstance(u, TensorElement) else \
        np.atleast_2d(np.asarray(u, dtype=float))


def apply_fY(f, u):
    """Left slice f @ u: the Y-vector of f applied to each X-row."""
    f = np.asarray(f, dtype=float)
    M = _matrix_of(u)
    if f.shape != (M.shape[0],):
        raise ParameterError("functional length does not match dim X")
    return f @ M


def apply_gX(g, u):
    """Right slice u @ g: the X-vector of g applied to each Y-column."""
    g = np.asarray(g, dtype=float)
    M = _matrix_of(u)
    if g.shape != (M.shape[1],):
        raise ParameterError("functional length does not match dim Y")
    return M @ g


def tensor_apply(f, g, u) -> float:
    """The rank-one pairing (f tensor g)(u) = f @ u @ g."""
    return float(apply_fY(f, u) @ np.asarray(g, dtype=float))


@dataclass(frozen=True)
class InjectiveNormResult:
    """Injective norm value with its witness pair.

    exact is True for the enumeration strategy (and for u = 0); the
    sampled ascent only certifies value <= true norm.
    """

    value: float
    pair: DualPair
    strategy: str
    exact: bool


def injective_norm(u: TensorElement, strategy="enumerate", *,
                   samples=64, iters=60, seed=0,
                   tol=1e-13) -> InjectiveNormResult:
    """Injective norm sup { f @ u @ g } over the two dual balls.

    strategy="enumerate" is exact and requires an enumerable X dual
    ball; strategy="sample+ascent" alternates the closed-form g update
    with a norming functional for the X side, from seeded random starts
    plus the Y basis directions, and returns the best value found.
    """
    if not isinstance(u, TensorElement):
        raise ParameterError("injective_norm expects a TensorElement")
    if not isinstance(u.Y, EuclideanSpace):
        raise ParameterError("factor space Y must be euclidean")
    M = u.matrix
    dim_x, dim_y = M.shape

    if not M.any():
        pair = DualPair(f=np.zeros(dim_x), g=np.zeros(dim_y))
        return InjectiveNormResult(0.0, pair, strategy, exact=True)

    if strategy == "enumerate":
        if not u.X.enumerable_dual:
            raise ParameterError(
                f"enumerate strategy needs a polyhedral dual ball; "
                f"X has kind {u.X.kind!r}")
        F = u.X.dual_extreme_points()
        rows = F @ M
        vals = np.linalg.norm(rows, axis=1)
        best = int(np.argmax(vals))
        value = float(vals[best])
        g = rows[best] / value if value > 0.0 else np.zeros(dim_y)
        return InjectiveNormResult(value, DualPair(f=F[best], g=g),
                                   "enumerate", exact=True)

    if strategy != "sample+ascent":
        raise ParameterError(f"unknown strategy {strategy!r}")

    rng = np.random.default_rng(seed)
    starts = list(np.eye(dim_y))
    raw = rng.standard_normal((samples, dim_y))
    starts.extend(raw / np.linalg.norm(raw, axis=1, keepdims=True))

    best_val = 0.0
    best_pair = DualPair(f=np.zeros(dim_x), g=np.zeros(dim_y))
    for g in starts:
        val = 0.0
        f = None
        for _ in range(iters):
            x = M @ g
            if not x.any():
                break
            f = u.X.norming_functional(x)
            y = f @ M
            new_val = float(np.linalg.norm(y))
            if new_val <= val + tol:
                val = max(val, new_val)
                break
            val = new_val
            g = y / new_val
        if f is not None and val > best_val:
            best_val = val
            best_pair = DualPair(f=f, g=g)
    return InjectiveNormResult(best_val, best_pair, "sample+ascent",
                               exact=False)


@dataclass(frozen=True)
class ProductAttainmentRecord:
    """Best rank-one pairing over N x M for one unit-norm sample."""

    sample: int
    value: float
    f_index: int
    g_index: int
    attained: bool
    norm_exact: bool


@dataclass(frozen=True)
class ProductBoundaryReport:
    records: list
    tol: float

    @property
    def passed(self) -> bool:
        return all(r.attained for r in self.records)

    @property
    def max_deficit(self) -> float:
        return max((1.0 - r.value for r in self.records), default=0.0)


def boundary_product_check(N, M, samples, tol=1e-9,
                           norm_tol=1e-7) -> ProductBoundaryReport:
    """Check the product set {f tensor g} norms unit tensor elements.

    For each sample u with injective norm 1 (anything else is a
    parameter error) the best g in M is paired with the best f in N for
    the sliced vector u @ g, and the sample passes when that pairing
    reaches 1 - tol.
    """
    N = np.atleast_2d(np.asarray(N, dtype=float))
    M = np.atleast_2d(np.asarray(M, dtype=float))
    records = []
    for i, u in enumerate(samples):
        if not isinstance(u, TensorElement):
            raise ParameterError("samples must be TensorElement instances")
        if N.shape[1] != u.X.dim or M.shape[1] != u.Y.dim:
            raise ParameterError("functional sets do not match the factors")
        strategy = "enumerate" if u.X.enumerable_dual else "sample+ascent"
        res = injective_norm(u, strategy)
        if abs(res.value - 1.0) > norm_tol:
            raise ParameterError(
                f"sample {i} has injective norm {res.value}, expected 1 "
                f"within {norm_tol}")
        sliced = u.matrix @ M.T
        vals = N @ sliced
        f_idx, g_idx = np.unravel_index(np.argmax(vals), vals.shape)
        value = float(vals[f_idx, g_idx])
        records.append(ProductAttainmentRecord(
            sample=i, value=value, f_index=int(f_idx), g_index=int(g_idx),
            attained=value >= 1.0 - tol, norm_exact=res.exact))
    return ProductBoundaryReport(records=records, tol=tol)
