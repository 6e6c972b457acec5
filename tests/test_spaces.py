"""Tests for model spaces.

Oracles implemented here: brute-force subset maxima for lorentz_predual,
permutation maxima for lorentz, exhaustive disjoint selections for lap
modulars, and direct Hoelder pairings for duality checks.
"""

import hashlib
import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from smoothnorm.equiv import (BoundaryNormSpace, RelativeBoundaryChain,
                              build_F)
from smoothnorm.errors import NumericError, ParameterError
from smoothnorm.orlicz import make_orlicz
from smoothnorm.spaces import (
    euclidean_space,
    find_norming_support,
    lap_space,
    lorentz_predual_space,
    lorentz_space,
    proj,
    sup_space,
    support,
    orlicz_space,
)

GEOM3 = [1.0, 0.5, 0.25]
GEOM4 = [1.0, 0.5, 0.25, 0.125]
GEOM5 = [1.0, 0.5, 0.25, 0.125, 0.0625]

# one space of every kind, dim 5
ALL_KINDS = [
    sup_space(5),
    euclidean_space(5),
    lorentz_space(GEOM5),
    lorentz_predual_space(GEOM5),
    lap_space([[0, 1], [1, 2, 3], [3, 4]], [1.0, 1.5, 2.0], dim=5),
    orlicz_space(make_orlicz(0.7, 1.4), 5),
]
CLOSED_FORM_KINDS = ALL_KINDS[:4]


def sup_boundary_space(dim):
    """The sup norm of R^dim as a one-level BoundaryNormSpace."""
    H = np.vstack([np.eye(dim), -np.eye(dim)])
    ch = RelativeBoundaryChain(space=sup_space(dim), levels=(H,), samples=H,
                               level_ids=(0,))
    return build_F(ch, a_strategy="ones")


BOUNDARY5 = sup_boundary_space(5)

finite_rows = arrays(
    float, st.tuples(st.integers(1, 12), st.just(5)),
    elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))


def predual_norm_oracle(w, y):
    """max over k and k-subsets of sum_sigma |y_i| / W_k, brute force."""
    w = np.asarray(w, float)
    y = np.abs(np.asarray(y, float))
    wsums = np.cumsum(w)
    best = 0.0
    for k in range(1, y.size + 1):
        for combo in itertools.combinations(range(y.size), k):
            best = max(best, y[list(combo)].sum() / wsums[k - 1])
    return best


def lorentz_norm_oracle(w, x):
    """max over injective assignments of sum_j w_j |x_{a_j}|."""
    w = np.asarray(w, float)
    x = np.abs(np.asarray(x, float))
    best = 0.0
    for perm in itertools.permutations(range(x.size)):
        best = max(best, float(np.dot(w, x[list(perm)])))
    return best


def lap_modular_oracle(sets, p, z):
    """max over disjoint selections B_n subset A_n of
    sum_n sum_{k in B_n} |z_k|^{p_n}; brute force over per-index choices
    (each index picks one containing set or none).  Powers come from one
    broadcast table so the scalar and vectorized ** paths agree."""
    z = np.abs(np.asarray(z, float))
    table = np.full((len(sets), z.size), np.nan)
    for n, s in enumerate(sets):
        table[n, list(s)] = p[n]
    with np.errstate(invalid="ignore"):
        powers = z[None, :] ** table
    choices = []
    for k in range(z.size):
        opts = [None] + [n for n, s in enumerate(sets) if k in s]
        choices.append(opts)
    best = -np.inf
    for assign in itertools.product(*choices):
        terms = np.zeros(z.size)
        for k, n in enumerate(assign):
            if n is not None:
                terms[k] = powers[n, k]
        best = max(best, float(np.sum(terms)))
    return best


class TestSupAndEuclidean:
    def test_sup_norm(self):
        X = sup_space(3)
        assert X.norm([1.0, -2.0, 0.5]) == 2.0
        assert X.dual_norm([1.0, -2.0, 0.5]) == 3.5

    def test_euclidean_self_dual(self):
        X = euclidean_space(2)
        np.testing.assert_allclose(X.norm([3.0, 4.0]), 5.0)
        np.testing.assert_allclose(X.dual_norm([3.0, 4.0]), 5.0)

    def test_euclidean_tiny_entries(self):
        """Squares of subnormal entries underflow; the norm is scaled by
        the peak like its dual, so it stays positive and equals it."""
        X = euclidean_space(5)
        x = np.full(5, 2.2e-309)
        assert X.norm(x) == X.dual_norm(x)
        assert X.norm(x) >= 2.2e-309


class TestLorentzPredual:
    def test_frozen_example(self):
        X = lorentz_predual_space(GEOM3)
        np.testing.assert_allclose(X.norm([1.0, 1.0, 0.0]), 4.0 / 3.0,
                                   rtol=1e-15)

    def test_against_brute_force(self):
        rng = np.random.default_rng(42)
        X = lorentz_predual_space(GEOM4)
        for _ in range(100):
            y = rng.standard_normal(4)
            np.testing.assert_allclose(X.norm(y),
                                       predual_norm_oracle(GEOM4, y),
                                       rtol=1e-12)

    def test_weight_validation(self):
        with pytest.raises(ParameterError):
            lorentz_predual_space([0.5, 0.25])
        with pytest.raises(ParameterError):
            lorentz_predual_space([1.0, -0.5])


@pytest.mark.parametrize("factory", [lorentz_space, lorentz_predual_space])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_lorentz_weight_refused(factory, bad):
    # used to construct, then fail at the first norm with NumericError
    with pytest.raises(ParameterError, match="finite"):
        factory([1.0, bad, 0.25])


@pytest.mark.parametrize("factory", [lorentz_space, lorentz_predual_space])
def test_increasing_lorentz_weights_refused(factory):
    # lorentz_space([1.0, 2.0]) used to give norm(e0 + e1) = 3.0 with
    # norm(e0) = norm(e1) = 1.0, which is no norm
    for weights in ([1.0, 2.0], [1.0, 0.5, 0.75]):
        with pytest.raises(ParameterError, match="nonincreasing"):
            factory(weights)
    # equal weights are allowed: lorentz is then l1, its predual sup
    X = factory([1.0, 1.0, 1.0])
    expected = 6.0 if factory is lorentz_space else 3.0
    assert X.norm([1.0, -2.0, 3.0]) == expected


@pytest.mark.parametrize("dim", [2.5, 3.0, True])
def test_non_integer_dim_refused(dim):
    # sup_space(2.5) used to be a 2-dimensional space
    for factory in (sup_space, euclidean_space):
        with pytest.raises(ParameterError, match="integer"):
            factory(dim)


def test_numpy_integer_dim_accepted():
    X = sup_space(np.int64(3))
    assert X.dim == 3 and type(X.dim) is int


class TestLorentz:
    def test_sorted_weight_pairing(self):
        X = lorentz_space(GEOM3)
        # |x| ranked (3, 2, 1) -> 3 + 0.5*2 + 0.25*1
        np.testing.assert_allclose(X.norm([2.0, -3.0, 1.0]), 4.25)

    def test_against_permutation_oracle(self):
        rng = np.random.default_rng(5)
        X = lorentz_space(GEOM4)
        for _ in range(50):
            x = rng.standard_normal(4)
            np.testing.assert_allclose(X.norm(x),
                                       lorentz_norm_oracle(GEOM4, x),
                                       rtol=1e-12)

    def test_duality_with_predual(self):
        """|<h, y>| <= ||h||_d * ||y||_{d*} and the pairing is sharp over
        dual extreme points."""
        rng = np.random.default_rng(9)
        d = lorentz_space(GEOM4)
        dstar = lorentz_predual_space(GEOM4)
        ext = dstar.dual_extreme_points()  # d(w,1)-ball vertices
        for _ in range(50):
            y = rng.standard_normal(4)
            ny = dstar.norm(y)
            for _ in range(10):
                h = rng.standard_normal(4)
                h /= d.norm(h)
                assert abs(np.dot(h, y)) <= ny * (1 + 1e-9)
            np.testing.assert_allclose(np.max(ext @ y), ny, rtol=1e-12)


class TestLap:
    def test_frozen_two_level_example(self):
        X = lap_space([[0], [1, 2]], [1.0, 2.0], dim=3)
        np.testing.assert_allclose(X.norm([0.0, 1.0, 1.0]), np.sqrt(2.0),
                                   rtol=1e-9)

    def test_frozen_overlap_example(self):
        X = lap_space([[0, 1], [1, 2]], [1.0, 2.0], dim=3)
        np.testing.assert_allclose(X.norm([0.0, 0.5, 0.0]), 0.5, rtol=1e-9)

    def test_norm_is_certified(self):
        """The modular at x / ||x|| is <= 1 exactly as computed."""
        rng = np.random.default_rng(23)
        spaces = [lap_space([[0], [1, 2]], [1.0, 2.0], dim=3),
                  lap_space([[0, 1, 2], [2, 3, 4]], [1.5, 4.0], dim=5)]
        for X in spaces:
            for _ in range(200):
                x = (rng.standard_normal(X.dim)
                     * 10.0 ** rng.uniform(-3.0, 3.0))
                assert X.lap_modular(x / X.norm(x)) <= 1.0

    @settings(max_examples=30, deadline=None)
    @given(bad=st.sampled_from([np.nan, np.inf, -np.inf]),
           at=st.integers(0, 2))
    def test_non_finite_rejected(self, bad, at):
        x = np.array([0.5, 1.0, 0.0])
        x[at] = bad
        for X in (lap_space([[0], [1, 2]], [1.0, 2.0], dim=3),
                  orlicz_space(make_orlicz(0.7, 1.4), 3)):
            with pytest.raises(ParameterError):
                X.norm(x)

    def test_modular_equals_brute_force(self):
        """Per-index best exponent equals the max over disjoint
        selections, exactly (same floats, same summation order)."""
        rng = np.random.default_rng(21)
        for _ in range(30):
            dim = int(rng.integers(2, 7))
            nsets = int(rng.integers(1, 4))
            sets = []
            for _ in range(nsets):
                size = int(rng.integers(1, dim + 1))
                sets.append(sorted(rng.choice(dim, size=size,
                                              replace=False).tolist()))
            covered = sorted(set(itertools.chain.from_iterable(sets)))
            missing = [k for k in range(dim) if k not in covered]
            if missing:
                sets.append(missing)
            sets.sort(key=lambda s: min(s))
            p = np.sort(rng.uniform(1.0, 3.0, size=len(sets)))
            X = lap_space(sets, p, dim=dim)
            z = rng.standard_normal(dim) * 2.0
            assert X.lap_modular(z) == lap_modular_oracle(X.sets, p, z)

    @pytest.mark.parametrize("sets", [[[0.5, 1.7]], [[0, 1.0]],
                                      [[True, 0]], [["0", 1]]])
    def test_non_integer_index_refused(self, sets):
        # [[0.5, 1.7]] gave the index set [0, 1]
        with pytest.raises(ParameterError,
                           match=r"^index set entry must be an integer"):
            lap_space(sets, [1.0], dim=2)

    def test_numpy_integer_indices_accepted(self):
        X = lap_space([np.arange(2)], [1.5], dim=2)
        assert [s.tolist() for s in X.sets] == [[0, 1]]

    def test_validation(self):
        with pytest.raises(ParameterError):
            lap_space([[0]], [1.0], dim=2)  # does not cover
        with pytest.raises(ParameterError):
            lap_space([[0], [1]], [2.0, 1.0], dim=2)  # not nondecreasing
        with pytest.raises(ParameterError):
            lap_space([[0], [1]], [0.5, 1.0], dim=2)  # p < 1
        # NaN is the exponent table's "not in this set" marker, so a NaN
        # exponent used to drop its set and give the plain l1 norm
        for bad in (np.nan, np.inf):
            with pytest.raises(ParameterError, match="finite"):
                lap_space([range(13), range(6, 13)], [1.0, bad], dim=13)


class TestNormAxioms:
    """Homogeneity and triangle inequality per kind at 1e-9."""

    def spaces(self):
        return list(ALL_KINDS)

    def test_homogeneity_and_triangle(self):
        rng = np.random.default_rng(12)
        for X in self.spaces():
            cheap = X.kind not in ("lap", "orlicz_hM")
            n = 1000 if cheap else 100
            for _ in range(n):
                u = rng.standard_normal(5)
                v = rng.standard_normal(5)
                lam = rng.uniform(-4, 4)
                nu, nv = X.norm(u), X.norm(v)
                assert abs(X.norm(lam * u) - abs(lam) * nu) <= 1e-9 * max(
                    nu, 1.0)
                assert X.norm(u + v) <= nu + nv + 1e-9 * max(nu + nv, 1.0)

    def test_monotone_unconditional(self):
        rng = np.random.default_rng(13)
        for X in self.spaces():
            assert X.monotone_unconditional
            for _ in range(40):
                x = rng.standard_normal(5)
                signs = rng.choice([-1.0, 1.0], size=5)
                assert abs(X.norm(x * signs) - X.norm(x)) <= 1e-9 * max(
                    X.norm(x), 1.0)
                sigma = rng.choice(5, size=3, replace=False)
                assert X.norm(proj(x, sigma)) <= X.norm(x) * (1 + 1e-9)


class TestDualNormRows:
    """The row forms of both norms, on every kind and the boundary
    norm's space (here the sup norm of R^5 as a boundary norm)."""

    @settings(max_examples=60, deadline=None)
    @given(F=finite_rows, X=st.sampled_from(ALL_KINDS + [BOUNDARY5]),
           dual=st.booleans())
    def test_bounds_linf(self, F, X, dual):
        linf = np.max(np.abs(F), axis=1)
        if dual:
            assert np.all(X.dual_norm_rows(F) >= linf)
        else:
            # ||x|| >= |x_i| * ||e_i||, and ||e_i|| = ||e_0|| for every i;
            # the Luxemburg-type kinds are certified to 1e-10 relative
            bound = linf * X.norm(np.eye(X.dim)[0]) * (1.0 - 1e-9)
            assert np.all(X.norm_rows(F) >= bound)

    @settings(max_examples=60, deadline=None)
    @given(F=finite_rows, X=st.sampled_from(ALL_KINDS + [BOUNDARY5]),
           dual=st.booleans())
    def test_one_row_is_bitwise_row_of_batch(self, F, X, dual):
        one, rows = ((X.dual_norm, X.dual_norm_rows) if dual
                     else (X.norm, X.norm_rows))
        if isinstance(X, BoundaryNormSpace) and not dual:
            # a matrix product: one row is the batch of one, but batches
            # of other sizes may differ by an ulp
            for f in F:
                assert one(f) == rows(f[None])[0]
            return
        batch = rows(F)
        for i, f in enumerate(F):
            assert one(f) == batch[i]
            assert rows(F[i:])[0] == batch[i]

    def test_frozen_values(self):
        f = np.array([[1.0, -2.0, 0.5]])
        assert sup_space(3).dual_norm_rows(f)[0] == 3.5
        np.testing.assert_allclose(
            lorentz_predual_space(GEOM3).dual_norm_rows(f),
            [2.0 + 0.5 + 0.125], rtol=1e-15)
        np.testing.assert_allclose(
            lorentz_space(GEOM3).dual_norm_rows(f), [2.0], rtol=1e-15)

    def test_shape_checked(self):
        with pytest.raises(ParameterError):
            sup_space(3).dual_norm_rows(np.ones(3))
        with pytest.raises(ParameterError):
            sup_space(3).dual_norm_rows(np.ones((2, 4)))


class TestNonFinite:
    """NaN or inf input raises ParameterError; finite input whose value
    overflows raises NumericError.  Nothing returns a non-finite value."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=60, deadline=None)
    @given(bad=st.sampled_from([np.nan, np.inf, -np.inf]),
           at=st.integers(0, 4), row=st.integers(0, 2),
           X=st.sampled_from(ALL_KINDS))
    def test_non_finite_input_rejected(self, bad, at, row, X):
        F = np.full((3, 5), 0.25)
        F[row, at] = bad
        with pytest.raises(ParameterError):
            X.norm(F[row])
        with pytest.raises(ParameterError):
            X.dual_norm(F[row])
        with pytest.raises(ParameterError, match=f"row {row}"):
            X.dual_norm_rows(F)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=40, deadline=None)
    @given(big=arrays(float, 5, elements=st.floats(1e308, 1.79e308)),
           X=st.sampled_from(ALL_KINDS))
    def test_dual_overflow_is_numeric_error(self, big, X):
        with pytest.raises(NumericError):
            X.dual_norm(big)
        with pytest.raises(NumericError, match="row 1"):
            X.dual_norm_rows(np.vstack([np.zeros(5), big]))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=40, deadline=None)
    @given(big=arrays(float, 5, elements=st.floats(1e308, 1.79e308)),
           X=st.sampled_from(CLOSED_FORM_KINDS[1:]))
    def test_norm_overflow_is_numeric_error(self, big, X):
        with pytest.raises(NumericError):
            X.norm(big)


class TestProjections:
    def test_proj_zeroes_complement(self):
        out = proj([1.0, 2.0, 3.0], [0, 2])
        np.testing.assert_array_equal(out, [1.0, 0.0, 3.0])

    def test_out_of_range_rejected(self):
        with pytest.raises(ParameterError):
            proj([1.0, 2.0], [2])

    def test_support(self):
        np.testing.assert_array_equal(support([0.0, 1.0, 0.0, -2.0]), [1, 3])


@st.composite
def projection_cases(draw):
    """A space of a kind with an exact top projection (dim <= 9), rows
    drawn partly from a small pool so zeros and ties occur, and n."""
    dim = draw(st.integers(1, 9))
    kind = draw(st.sampled_from(
        ["sup", "euclidean", "lorentz", "predual", "lap"]))
    if kind == "sup":
        X = sup_space(dim)
    elif kind == "euclidean":
        X = euclidean_space(dim)
    elif kind == "lap":
        sets = draw(st.lists(st.sets(st.integers(0, dim - 1), min_size=1),
                             min_size=1, max_size=3))
        rest = set(range(dim)).difference(*sets)
        if rest:
            sets.append(rest)
        p = sorted(draw(st.lists(st.floats(1.0, 5.0), min_size=len(sets),
                                 max_size=len(sets))))
        X = lap_space([sorted(a) for a in sets], p, dim)
    else:
        tail = draw(st.lists(st.floats(0.05, 1.0), min_size=dim - 1,
                             max_size=dim - 1))
        w = [1.0] + sorted(tail, reverse=True)
        X = lorentz_space(w) if kind == "lorentz" else (
            lorentz_predual_space(w))
    entries = st.one_of(st.sampled_from([0.0, -0.0, 0.3, -0.3, 1.0, -2.5]),
                        st.floats(-10.0, 10.0))
    S = draw(arrays(float, st.tuples(st.integers(1, 4), st.just(dim)),
                    elements=entries))
    return X, S, draw(st.integers(0, dim))


class TestTopProjectionRows:
    @settings(max_examples=150, deadline=None)
    @given(case=projection_cases())
    def test_matches_brute_force(self, case):
        X, S, n = case
        values, masks = X.top_projection_rows(S, n)
        supports = np.asarray(
            [np.isin(np.arange(X.dim), sigma)
             for sigma in itertools.combinations(range(X.dim), n)])
        for x, value, mask in zip(S, values, masks):
            assert value == np.max(X.norm_rows(np.where(supports, x, 0.0)))
            assert np.count_nonzero(mask) == n
            assert X.norm_rows(np.where(mask, x, 0.0)[None])[0] == value

    @settings(max_examples=150, deadline=None)
    @given(case=projection_cases(), data=st.data())
    def test_one_walk_matches_per_size_calls(self, case, data):
        # every size, then sizes in any order with repeats: the one
        # ranking is shared, and no size changes it
        X, S, _ = case
        sizes = [*range(X.dim + 2), *data.draw(
            st.lists(st.integers(0, X.dim + 1), max_size=8))]
        for n, (values, masks) in zip(sizes, X.top_projections(S, sizes)):
            one_values, one_masks = X.top_projection_rows(S, n)
            assert values.tobytes() == one_values.tobytes()
            np.testing.assert_array_equal(masks, one_masks)

    def test_lap_top_terms_beat_top_entries(self):
        # the largest |x_i| sits under exponent 4, where its term is small
        X = lap_space([[1, 2], [0]], [1.0, 4.0], dim=3)
        values, masks = X.top_projection_rows([[0.5, 0.4, 0.3]], 2)
        assert masks.tolist() == [[False, True, True]]
        assert values[0] == X.norm([0.0, 0.4, 0.3]) > X.norm([0.5, 0.4, 0])

    def test_n_beyond_dim_is_full_support(self):
        X = lorentz_space(GEOM3)
        values, masks = X.top_projection_rows([[1.0, -2.0, 0.5]], 5)
        assert masks.all() and values[0] == X.norm([1.0, -2.0, 0.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("X", ALL_KINDS, ids=lambda X: X.kind)
    def test_non_finite_row_rejected(self, X, bad):
        """A row holding a NaN or inf is refused before ranking, at every
        size: a NaN ranked last and masked out gave a number (1.0 on
        sup_finite and lorentz_predual at n = 2, 1.118 on euclidean)."""
        S = np.ones((3, 5))
        S[1, 0] = bad
        for n in (0, 2, 5):
            with pytest.raises(ParameterError,
                               match=r"^top projection: row 1 has a NaN or "
                                     r"infinite coordinate$"):
                X.top_projection_rows(S, n)
        with pytest.raises(ParameterError, match="row 1"):
            next(X.top_projections(S, [2, 4]))

    @pytest.mark.parametrize("n", [2.5, True, np.float64(1.0)])
    def test_non_integer_size_refused(self, n):
        # 2.5 acted as 2
        X = sup_space(3)
        with pytest.raises(ParameterError,
                           match=rf"^support size must be an integer, "
                                 rf"got {re.escape(repr(n))}$"):
            X.top_projection_rows([[1.0, 0.0, 0.0]], n)
        with pytest.raises(ParameterError, match="integer"):
            list(X.top_projections([[1.0, 0.0, 0.0]], [1, n]))

    def test_errors(self):
        with pytest.raises(ParameterError):
            sup_space(3).top_projection_rows([[1.0, 0.0, 0.0]], -1)
        with pytest.raises(ParameterError):
            BOUNDARY5.top_projection_rows(np.eye(5), 2)
        with pytest.raises(ParameterError):
            list(sup_space(3).top_projections([[1.0, 0.0, 0.0]], [1, -1]))


class TestNormingSupport:
    def test_predual_frozen_example(self):
        X = lorentz_predual_space(GEOM3)
        y = np.array([0.75, 0.75, 0.0])
        np.testing.assert_allclose(X.norm(y), 1.0, rtol=1e-15)
        sigma = find_norming_support(X, y)
        np.testing.assert_array_equal(sigma, [0, 1])
        np.testing.assert_allclose(X.norm(proj(y, sigma)), 1.0, rtol=1e-12)

    def test_predual_random_unit_vectors(self):
        rng = np.random.default_rng(3)
        X = lorentz_predual_space(GEOM4)
        for _ in range(100):
            y = rng.standard_normal(4)
            y /= X.norm(y)
            sigma = find_norming_support(X, y)
            assert sigma is not None
            assert abs(X.norm(proj(y, sigma)) - 1.0) <= 1e-9

    def test_sup_returns_peak_coordinate(self):
        X = sup_space(3)
        sigma = find_norming_support(X, [0.2, -1.0, 0.5])
        np.testing.assert_array_equal(sigma, [1])

    def test_euclidean_needs_full_support(self):
        X = euclidean_space(3)
        y = np.array([3.0, 4.0, 0.0]) / 5.0
        sigma = find_norming_support(X, y)
        np.testing.assert_array_equal(sigma, [0, 1])

    def test_unnormalized_rejected(self):
        X = sup_space(2)
        with pytest.raises(ParameterError):
            find_norming_support(X, [2.0, 0.0])


# the kinds with a closed-form norming functional, dim 5
FUNCTIONAL_KINDS = ALL_KINDS[:5]

# entries with zeros, signed zeros and tied |x_i| drawn in
tie_prone = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 3.0, -3.0]),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))


class TestNormingFunctional:
    def test_all_closed_form_kinds(self):
        rng = np.random.default_rng(77)
        cases = [
            sup_space(4),
            euclidean_space(4),
            lorentz_space(GEOM4),
            lorentz_predual_space(GEOM4),
        ]
        for X in cases:
            P = rng.standard_normal((50, 4))
            F = X.norming_functional_rows(P)
            np.testing.assert_allclose(np.sum(F * P, axis=1),
                                       X.norm_rows(P), rtol=1e-12)
            np.testing.assert_allclose(X.dual_norm_rows(F), 1.0, rtol=1e-12)
            for x, f in zip(P, F):
                np.testing.assert_allclose(np.dot(X.norming_functional(x), x),
                                           X.norm(x), rtol=1e-12)
                np.testing.assert_allclose(X.dual_norm(f), 1.0, rtol=1e-12)

    def test_lap_gradient_functional(self):
        X = lap_space([[0], [1, 2]], [1.0, 2.0], dim=3)
        rng = np.random.default_rng(78)
        P = rng.standard_normal((100, 3)) * 10.0 ** rng.integers(-2, 3,
                                                                (100, 1))
        F = X.norming_functional_rows(P)
        np.testing.assert_allclose(np.sum(F * P, axis=1), X.norm_rows(P),
                                   rtol=1e-12)
        for x, f in zip(P, F):
            np.testing.assert_allclose(np.dot(X.norming_functional(x), x),
                                       X.norm(x), rtol=1e-12)
            # dual feasibility: bisection slack only
            y = rng.standard_normal(3)
            assert np.dot(f, y) <= X.norm(y) * (1.0 + 1e-8)

    @settings(max_examples=60, deadline=None)
    @given(X=st.sampled_from(FUNCTIONAL_KINDS),
           P=st.sampled_from([1, 7, 256]).flatmap(
               lambda k: arrays(float, (k, 5), elements=tie_prone)))
    def test_rows_are_stacked_one_row_calls(self, X, P):
        # bit for bit, signed zeros included; zero rows are refused
        P[~np.any(P, axis=1), 0] = 1.0
        F = X.norming_functional_rows(P)
        one = np.array([X.norming_functional(x) for x in P])
        assert F.shape == P.shape
        assert F.tobytes() == one.tobytes()

    def test_lap13_level_rows_pinned(self):
        """The functionals of 32 samples' best projections at every level
        of a lap13 space, as sha256 of their bytes: a row normalization
        that rounds differently from each row's own g @ u fails."""
        X = lap_space([list(range(7)), list(range(6, 13))], [1.0, 4.0], 13)
        S = np.random.default_rng(13).standard_normal((32, 13))
        S = S / X.norm_rows(S)[:, None]
        P = np.vstack([np.where(X.top_projection_rows(S, n)[1], S, 0.0)
                       for n in range(1, 14)])
        F = X.norming_functional_rows(P)
        assert hashlib.sha256(F.tobytes()).hexdigest() == (
            "512db713b7bb961217a851a53e5584a1fa6f167d5b4246a44177275df8d59646")

    def test_lap_functional_support_and_basis(self):
        X = lap_space([[0], [1, 2]], [1.0, 2.0], dim=3)
        f = X.norming_functional([3.0, 0.0, 1.0])
        assert f[1] == 0.0
        np.testing.assert_array_equal(
            X.norming_functional([0.0, -2.0, 0.0]), [0.0, -1.0, 0.0])

    def test_lorentz_functional_stays_on_the_support(self):
        """A zero coordinate used to get sign +1 and a weight, so a
        projection's functional had full support."""
        X = lorentz_space([1.0, 0.7, 0.5, 0.3])
        np.testing.assert_array_equal(
            X.norming_functional([0.5, 0.0, 0.0, 0.0]), [1.0, 0.0, 0.0, 0.0])
        P = np.array([[0.0, -2.0, 0.0, 1.0], [-0.0, 3.0, 0.5, -0.0],
                      [0.2, -0.1, 0.4, 0.3]])
        F = X.norming_functional_rows(P)
        np.testing.assert_array_equal(F, [[0.0, -1.0, 0.0, 0.7],
                                          [0.0, 1.0, 0.7, 0.0],
                                          [0.5, -0.3, 1.0, 0.7]])
        assert not np.signbit(F[P == 0.0]).any()
        np.testing.assert_allclose(np.sum(F * P, axis=1), X.norm_rows(P),
                                   rtol=1e-15)
        assert X.dual_norm_rows(F).tolist() == [1.0, 1.0, 1.0]

    @pytest.mark.parametrize("row", [0, 3, 6])
    @pytest.mark.parametrize("X", FUNCTIONAL_KINDS,
                             ids=lambda X: X.kind)
    def test_zero_row_anywhere_rejected(self, X, row):
        P = np.random.default_rng(row).standard_normal((7, 5))
        P[row] = -0.0 if row else 0.0
        with pytest.raises(ParameterError,
                           match=rf"^norming functional of 0 is undefined "
                                 rf"\(row {row}\)$"):
            X.norming_functional_rows(P)
        with pytest.raises(ParameterError):
            X.norming_functional(P[row])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("X", FUNCTIONAL_KINDS,
                             ids=lambda X: X.kind)
    def test_non_finite_row_rejected(self, X, bad):
        P = np.random.default_rng(5).standard_normal((7, 5))
        P[4, 2] = bad
        with pytest.raises(ParameterError,
                           match=r"^norming functional: row 4 has a NaN or "
                                 r"infinite coordinate$"):
            X.norming_functional_rows(P)
        with pytest.raises(ParameterError, match="row 0"):
            X.norming_functional(P[4])

    def test_unsupported_kind_rejected(self):
        for X in (ALL_KINDS[5], BOUNDARY5):
            with pytest.raises(ParameterError, match="no closed-form"):
                X.norming_functional([1.0, 0.0, 0.0, 0.0, 0.0])
            with pytest.raises(ParameterError, match="no closed-form"):
                X.norming_functional_rows(np.eye(5))


class TestDualExtremePoints:
    def test_sup_gives_signed_units(self):
        pts = sup_space(3).dual_extreme_points()
        assert pts.shape == (6, 3)
        assert {tuple(p) for p in pts} == {
            (1, 0, 0), (0, 1, 0), (0, 0, 1),
            (-1, 0, 0), (0, -1, 0), (0, 0, -1)}

    def test_predual_patterns_have_unit_dual_norm(self):
        X = lorentz_predual_space(GEOM4)
        pts = X.dual_extreme_points()
        assert pts.shape[0] == 8 + 24 + 32 + 16
        for f in pts:
            np.testing.assert_allclose(X.dual_norm(f), 1.0, rtol=1e-12)

    def test_sharpness(self):
        """The norm equals the max pairing against the enumerated dual
        extreme points."""
        rng = np.random.default_rng(8)
        for X in (sup_space(4), lorentz_predual_space(GEOM4)):
            pts = X.dual_extreme_points()
            for _ in range(50):
                x = rng.standard_normal(4)
                np.testing.assert_allclose(np.max(pts @ x), X.norm(x),
                                           rtol=1e-12)

    def test_predual_matches_loop_oracle(self):
        """Each support level reproduces the per-row loop for its support
        size bit for bit, row order and signed zeros included, and the
        levels stack to dual_extreme_points."""
        for dim in range(3, 9):
            X = lorentz_predual_space(1.0 / np.arange(1.0, dim + 1) ** 0.7)
            levels = X.support_levels()
            assert len(levels) == dim
            for k, level in enumerate(levels, start=1):
                rows = []
                scale = 1.0 / X._wsums[k - 1]
                for combo in itertools.combinations(range(dim), k):
                    for signs in itertools.product((1.0, -1.0), repeat=k):
                        f = np.zeros(dim)
                        f[list(combo)] = np.asarray(signs) * scale
                        rows.append(f)
                assert level.tobytes() == np.asarray(rows).tobytes()
            assert (np.vstack(levels).tobytes()
                    == X.dual_extreme_points().tobytes())

    @pytest.mark.parametrize("X", [sup_space(1), sup_space(4)] + [
        lorentz_predual_space(1.0 / np.arange(1.0, dim + 1) ** 0.7)
        for dim in range(1, 8)], ids=lambda X: f"{X.kind}{X.dim}")
    def test_levels_split_by_support_size(self, X):
        """Level k - 1 holds points of support k, each of dual norm 1;
        sup_finite's levels past the first are empty."""
        levels = X.support_levels()
        assert len(levels) == X.dim
        for k, level in enumerate(levels, start=1):
            assert level.shape[1] == X.dim
            assert np.all(np.count_nonzero(level, axis=1) == k)
            np.testing.assert_allclose(X.dual_norm_rows(level), 1.0,
                                       rtol=0.0, atol=1e-12)
        assert sum(len(level) for level in levels) == (
            2 * X.dim if X.kind == "sup_finite" else 3 ** X.dim - 1)

    @pytest.mark.parametrize("dim", range(1, 8))
    def test_predual_level_maxima_are_partial_ratios(self, dim):
        """max over level k of h . |x| is the k-th partial ratio
        (sum of the k largest |x_i|) / W_k: the closed form that needs
        no enumeration."""
        X = lorentz_predual_space(1.0 / np.arange(1.0, dim + 1) ** 0.7)
        A = np.abs(np.random.default_rng(dim).standard_normal((50, dim)))
        ratios = (np.cumsum(np.sort(A, axis=1)[:, ::-1], axis=1)
                  / np.cumsum(X.weights))
        for k, level in enumerate(X.support_levels(), start=1):
            np.testing.assert_allclose(np.max(A @ level.T, axis=1),
                                       ratios[:, k - 1], rtol=1e-12)

    def test_predual_refuses_above_cap(self):
        """3^dim - 1 vertices: 177,146 at dim 11 are listed, 531,440 at
        dim 12 exceed the 200,000 cap."""
        def predual(dim):
            return lorentz_predual_space(1.0 / np.arange(1.0, dim + 1))

        assert predual(11).dual_extreme_points().shape == (177146, 11)
        with pytest.raises(ParameterError, match="531440"):
            predual(12).dual_extreme_points()

    def test_non_polyhedral_rejected(self):
        with pytest.raises(ParameterError, match="not enumerable"):
            euclidean_space(3).dual_extreme_points()
        with pytest.raises(ParameterError, match="not enumerable"):
            euclidean_space(3).support_levels()
