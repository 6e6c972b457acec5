"""Finite-dimensional injective tensor products.

An element u of X tensor Y is stored as its coefficient matrix over the
standard bases, rows indexed by X and columns by Y.  A functional f on X
slices u to the Y-vector apply_fY(f, u) = f @ u, a functional g on Y
slices it to apply_gX(g, u) = u @ g, and the rank-one pairing
tensor_apply, the double sum of f_i u_ij g_j, satisfies

    (f tensor g)(u) = f @ u @ g = g(apply_fY(f, u)) = f(apply_gX(g, u)).

The injective norm is the sup of that pairing over the two dual balls.
Y is restricted to euclidean factors (euclidean(1) doubles as the scalar
case): the inner sup over g is then closed-form, g = f@u / ||f@u||_2, so
the norm reduces to maximizing ||f @ u||_2 over the dual ball of X.  On
a kind that lists its dual extreme points (lists_vertices) that maximum
is an exact enumeration over them, _injective_rows, shared with the
approx window; every other X kind (euclidean, lap) is refused.  The
slice norms ||f @ u||_2 have one formula, _slice_norms, shared with the
phi-norm coordinates; it scales
each matrix by a power of two, so no square of a finite u overflows,
and contracts in one fixed order, each product and sum rounded on its
own,

    c_j = (f_0 u_0j + f_1 u_1j) + ... + f_{m-1} u_{m-1,j},
    ||f @ u||_2 = sqrt((c_0^2 + c_1^2) + ... + c_{n-1}^2),

so a matrix's norms depend on that matrix alone, whatever its batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boundary import row_blocks
from .errors import ParameterError
from .spaces import EuclideanSpace, ModelSpace

__all__ = [
    "TensorElement",
    "InjectiveNormResult",
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
    """The rank-one pairing (f tensor g)(u), summed as sum_ij f_i u_ij g_j
    rather than through a slice, so that it checks both slices."""
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    M = _matrix_of(u)
    if f.shape != (M.shape[0],) or g.shape != (M.shape[1],):
        raise ParameterError("functional lengths do not match the factors")
    return float(np.sum(np.outer(f, g) * M))


@dataclass(frozen=True)
class InjectiveNormResult:
    """Injective norm value with witnesses f on X and g on Y attaining it."""

    value: float
    f: np.ndarray
    g: np.ndarray


def _refuse_non_finite(what, M):
    """ParameterError naming the first row of M (along its first axis)
    that holds a NaN or inf, as ModelSpace.norm_rows refuses one."""
    finite = np.isfinite(M).all(axis=tuple(range(1, M.ndim)))
    if not finite.all():
        raise ParameterError(f"{what}: row {int(np.argmin(finite))} has a "
                             f"NaN or infinite coordinate")


def _slice_norms(F, M, out=None):
    """||f @ u||_2 for every row f of F and u one (dim X, dim Y) matrix,
    (len(F),) norms, or a (k, dim X, dim Y) stack, (k, len(F)) norms,
    written into `out` when given.

    Each matrix is divided by the power of two of its largest entry and
    its norms multiplied back: exact, except that a slice under about
    2^-511 times that entry squares to a subnormal or 0, too small to
    move a maximum or a peak-normalized coordinate.  The scaled stack is
    a copy, laid out (dim X, dim Y, k), so the caller's array is never
    written; it is contracted in one fixed order, each product and sum
    rounded on its own: c_j = (f_0 u_0j + f_1 u_1j) + ... + f_{m-1} u_{m-1,j}, then
    sqrt((c_0^2 + c_1^2) + ... + c_{n-1}^2).  So a matrix's norms
    depend on that matrix alone, whatever the rest of the stack."""
    M = np.asarray(M, dtype=float)
    stack = M.reshape((-1,) + M.shape[-2:])
    k, dim_x, dim_y = stack.shape
    T = np.empty((dim_x, dim_y, k))
    T[...] = stack.transpose(1, 2, 0)
    top = np.maximum.reduce(np.abs(T).reshape(dim_x * dim_y, k), axis=0)
    _, e = np.frexp(top)
    np.ldexp(T, -e, out=T)
    # the longer of len(F) and dim_y * k runs innermost in memory, so
    # each ufunc loop is long; the order of the operations is the same
    shape = (len(F), dim_y, k)
    acc = np.empty(shape) if len(F) <= dim_y * k else np.empty(shape[::-1]).T
    prod = np.empty_like(acc)
    cols = F.T[:, :, None, None]
    np.multiply(cols[0], T[0], out=acc)
    for f, t in zip(cols[1:], T[1:]):
        acc += np.multiply(f, t, out=prod)
    np.square(acc, out=acc)
    norms = acc[:, 0]
    for j in range(1, dim_y):
        norms += acc[:, j]
    np.sqrt(norms, out=norms)
    if out is None:
        out = np.empty((k, len(F)))
    np.ldexp(norms.T, e[:, None], out=out)
    return out.reshape(M.shape[:-2] + (len(F),))


def _injective_rows(X, mats):
    """The injective norm of each (dim X, dim Y) matrix of a (k, dim X,
    dim Y) stack of finite entries, Y euclidean, and the first dual
    extreme point of X attaining it, (k,) and (k, dim X): the max of
    _slice_norms over X.dual_extreme_points(), one boundary.row_blocks
    block of matrices at a time.  ParameterError unless X lists its
    dual extreme points."""
    if not X.lists_vertices:
        raise ParameterError(
            f"the injective norm needs the dual extreme points of X; "
            f"kind {X.kind!r} lists none")
    F = X.dual_extreme_points()
    values = np.empty(len(mats))
    best = np.empty(len(mats), dtype=np.intp)
    for block in row_blocks(len(mats), len(F) * mats.shape[-1]):
        norms = _slice_norms(F, mats[block])
        values[block], best[block] = norms.max(axis=1), norms.argmax(axis=1)
    return values, F[best]


def injective_norm(u: TensorElement) -> InjectiveNormResult:
    """Injective norm sup { f @ u @ g } over the two dual balls.

    Exact: the max of ||f @ u||_2 over the dual extreme points f of X
    (_injective_rows).  Raises ParameterError unless X lists its dual
    extreme points and Y is euclidean, and on a NaN or inf entry,
    naming its row.
    """
    if not isinstance(u, TensorElement):
        raise ParameterError("injective_norm expects a TensorElement")
    if not isinstance(u.Y, EuclideanSpace):
        raise ParameterError("factor space Y must be euclidean")
    M = u.matrix
    _refuse_non_finite("injective norm", M)
    values, f = _injective_rows(u.X, M[None])
    value = float(values[0])
    if value == 0.0:
        return InjectiveNormResult(0.0, np.zeros(M.shape[0]),
                                   np.zeros(M.shape[1]))
    return InjectiveNormResult(value, f[0], apply_fY(f[0], M) / value)


@dataclass(frozen=True)
class ProductBoundaryReport:
    """Per sample, the best rank-one pairing value over N x M and the
    rows f_index of N and g_index of M attaining it."""

    values: np.ndarray
    f_index: np.ndarray
    g_index: np.ndarray
    tol: float

    @property
    def passed(self) -> bool:
        return bool(np.all(self.values >= 1.0 - self.tol))

    @property
    def max_deficit(self) -> float:
        return float(np.max(1.0 - self.values))


def boundary_product_check(N, M, samples, tol=1e-9) -> ProductBoundaryReport:
    """Check the product set {f tensor g} norms unit tensor elements.

    For each sample u with injective norm 1 within 1e-7 (anything else,
    or an X whose dual ball injective_norm refuses, is a parameter
    error) the best g in M is paired with the best f in N for the
    sliced vector u @ g, and the sample passes when that pairing
    reaches 1 - tol.  An empty sample set is a parameter error.
    """
    samples = list(samples)
    if not samples:
        raise ParameterError("sample set is empty")
    N = np.atleast_2d(np.asarray(N, dtype=float))
    M = np.atleast_2d(np.asarray(M, dtype=float))
    values, f_index, g_index = [], [], []
    for i, u in enumerate(samples):
        if not isinstance(u, TensorElement):
            raise ParameterError("samples must be TensorElement instances")
        if N.shape[1] != u.X.dim or M.shape[1] != u.Y.dim:
            raise ParameterError("functional sets do not match the factors")
        res = injective_norm(u)
        if abs(res.value - 1.0) > 1e-7:
            raise ParameterError(
                f"sample {i} has injective norm {res.value}, expected 1 "
                f"within 1e-7")
        vals = N @ (u.matrix @ M.T)
        f_idx, g_idx = np.unravel_index(np.argmax(vals), vals.shape)
        values.append(vals[f_idx, g_idx])
        f_index.append(f_idx)
        g_index.append(g_idx)
    return ProductBoundaryReport(
        values=np.array(values, dtype=float),
        f_index=np.array(f_index, dtype=int),
        g_index=np.array(g_index, dtype=int), tol=tol)
