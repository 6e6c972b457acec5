"""Boundary chains, level constants, and the two renorm pipelines."""

from __future__ import annotations

import itertools
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial import HalfspaceIntersection

from smoothnorm import equiv
from smoothnorm.boundary import RowIndex, net_property_report
from smoothnorm.equiv import (
    BoundaryNormSpace,
    RelativeBoundaryChain,
    build_F,
    compute_bn,
    compute_cn,
    corollary_b_pipeline,
    default_a_sequence,
    support_ball,
)
from smoothnorm.errors import ConstructionError, NumericError, ParameterError
from smoothnorm.renorm import phi_norm, phi_norm_batch, smoothness_check
from smoothnorm.spaces import (euclidean_space, lap_space,
                               lorentz_predual_space, lorentz_space, proj,
                               sup_space)
from smoothnorm.verify import (CHECK_COUNT, MARGIN_COUNT, POOL_COUNT,
                               active_sets, approx_window, claim2d_sweep)

W4 = [1.0, 0.5, 0.25, 0.125]
W8 = [1.0 / np.sqrt(k + 1) for k in range(8)]


def unit_rows(space, count, seed):
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((count, space.dim))
    return rows / np.array([space.norm(x) for x in rows])[:, None]


def row_set(A, decimals=12):
    return {tuple(np.round(f, decimals)) for f in np.atleast_2d(A)}


def sup2_boundary_norm():
    """The sup norm of R^2 as a one-level boundary norm."""
    sp = sup_space(2)
    S = unit_rows(sp, 30, 14)
    H = np.vstack([np.eye(2), -np.eye(2)])
    ch = RelativeBoundaryChain(space=sp, levels=(H,), samples=S,
                               level_ids=(0,))
    return build_F(ch, a_strategy="ones")


def support_levels(space):
    """The level increments of support_ball(space, n), n = 1..dim."""
    balls = [np.zeros((0, space.dim))] + [
        support_ball(space, n) for n in range(1, space.dim + 1)]
    return [cur[len(prev):] for prev, cur in zip(balls, balls[1:])]


@pytest.fixture(scope="module")
def predual4():
    return lorentz_predual_space(W4)


@pytest.fixture(scope="module")
def lap3():
    return lap_space([[0], [1, 2]], [1.0, 2.0], 3)


@pytest.fixture(scope="module")
def direct_result(predual4):
    samples = np.random.default_rng(0).standard_normal((200, 4))
    return corollary_b_pipeline(predual4, samples, 0.1, seed=0)


@pytest.fixture(scope="module")
def chain_result(lap3):
    samples = np.random.default_rng(1).standard_normal((64, 3))
    return corollary_b_pipeline(lap3, samples, 0.1, seed=0)


class TestSupportBall:
    def test_sup_level_one(self):
        ball = support_ball(sup_space(3), 1)
        assert len(ball) == 6
        assert row_set(ball) == row_set(
            np.vstack([np.eye(3), -np.eye(3)]))

    def test_sup_higher_levels_add_no_extreme_points(self):
        assert row_set(support_ball(sup_space(3), 3)) == row_set(
            support_ball(sup_space(3), 1))

    def test_level_zero(self):
        for space in (sup_space(2), lorentz_predual_space([1.0, 0.5])):
            np.testing.assert_array_equal(support_ball(space, 0),
                                          [[0.0, 0.0]])

    def test_predual_levels(self):
        sp = lorentz_predual_space([1.0, 0.5])
        assert len(support_ball(sp, 1)) == 4
        assert len(support_ball(sp, 2)) == 8

    def test_predual_vertices_match_halfspace_oracle(self):
        # dual ball of d(w,1) in the plane: max|f| + 0.5 min|f| <= 1
        sp = lorentz_predual_space([1.0, 0.5])
        halves = []
        for s0 in (1.0, -1.0):
            for s1 in (1.0, -1.0):
                halves.append([s0, 0.5 * s1, -1.0])
                halves.append([0.5 * s0, s1, -1.0])
        hs = HalfspaceIntersection(np.asarray(halves), np.zeros(2))
        assert row_set(hs.intersections, 9) == row_set(
            support_ball(sp, 2), 9)

    def test_levels_are_nested_extreme_points(self, predual4):
        levels = predual4.support_levels()
        balls = [support_ball(predual4, n) for n in range(1, 5)]
        for n, ball in enumerate(balls, start=1):
            np.testing.assert_array_equal(ball, np.vstack(levels[:n]))
        for cur, nxt in zip(balls, balls[1:]):
            np.testing.assert_array_equal(nxt[:len(cur)], cur)

    @pytest.mark.parametrize("space", [
        euclidean_space(3),
        lorentz_space([1.0, 0.5, 0.25]),
        lap_space([[0], [1, 2]], [1.0, 2.0], 3),
    ], ids=["euclidean3", "lorentz3", "lap3"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_refuses_kind_without_enumerable_dual(self, space, n):
        # a sample of the dual sphere is no boundary
        with pytest.raises(ParameterError):
            support_ball(space, n)

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            support_ball(sup_space(2), -1)

    @pytest.mark.parametrize("n", [1.9, True, np.float64(2.0), "1"])
    def test_non_integer_level_refused(self, predual4, n):
        # 1.9 and True each gave level 1
        with pytest.raises(ParameterError,
                           match=rf"^support level must be an integer, "
                                 rf"got {re.escape(repr(n))}$"):
            support_ball(predual4, n)

    def test_numpy_integer_level_accepted(self, predual4):
        np.testing.assert_array_equal(support_ball(predual4, np.int64(2)),
                                      support_ball(predual4, 2))


class TestComputeBn:
    def test_sup_square(self):
        H = np.vstack([np.eye(2), -np.eye(2)])
        assert compute_bn(H, [[1.0, 1.0]]) == 1.0

    def test_zero_set(self):
        assert compute_bn(np.zeros((1, 2)), [[1.0, 0.0]]) == 0.0

    def test_nondecreasing_in_level(self, predual4):
        S = unit_rows(predual4, 50, 3)
        values = [compute_bn(support_ball(predual4, n), S)
                  for n in range(1, 5)]
        assert all(b2 >= b1 for b1, b2 in zip(values, values[1:]))
        np.testing.assert_allclose(values[-1], 1.0, rtol=1e-12)

    def test_errors(self):
        with pytest.raises(ParameterError):
            compute_bn(np.eye(2), np.zeros((0, 2)))
        with pytest.raises(ParameterError):
            compute_bn(np.zeros((0, 2)), [[1.0, 0.0]])
        with pytest.raises(ParameterError):
            compute_bn(np.eye(3), [[1.0, 0.0]])

    def test_nan_sample_refused(self):
        with pytest.raises(ParameterError):
            compute_bn(np.eye(2), [[np.nan, 1.0], [1.0, 0.5]])

    def test_inf_sample_refused(self):
        with pytest.raises(ParameterError):
            compute_bn(np.eye(2), [[np.inf, 1.0], [1.0, 0.5]])

    def test_nan_functional_refused(self):
        with pytest.raises(ParameterError):
            compute_bn([[np.nan, 0.0], [0.0, 1.0]], [[1.0, 0.5]])


class TestComputeCn:
    def test_needs_monotone_flag(self):
        class Stub:
            dim = 2
            monotone_unconditional = False

        with pytest.raises(ParameterError):
            compute_cn(Stub(), [[1.0, 0.0]], 1)

    def test_norming_support_certificate(self, predual4):
        # (0.75, 0.75, 0, 0) attains its norm on the first two slots
        assert compute_cn(predual4, [[0.75, 0.75, 0.0, 0.0]], 2) == 1.0

    def test_basis_vector(self, predual4):
        assert compute_cn(predual4, [[1.0, 0.0, 0.0, 0.0]], 1) == 1.0

    def test_full_level_is_identity(self, predual4):
        S = unit_rows(predual4, 30, 5)
        np.testing.assert_allclose(compute_cn(predual4, S, 4), 1.0,
                                   rtol=1e-12)

    def test_identity_with_bn(self, predual4):
        S = unit_rows(predual4, 40, 6)
        for n in range(1, 5):
            c = compute_cn(predual4, S, n, identity_tol=1e-9)
            b = compute_bn(support_ball(predual4, n), S)
            assert abs(b - c) <= 1e-9

    @pytest.mark.parametrize("identity_tol", [None, 1e-9])
    def test_non_integer_level_refused(self, predual4, identity_tol):
        # 1.9 measured c_1
        S = unit_rows(predual4, 10, 8)
        with pytest.raises(ParameterError,
                           match=r"^support size must be an integer, "
                                 r"got 1\.9$"):
            compute_cn(predual4, S, 1.9, identity_tol=identity_tol)

    def test_identity_needs_exact_balls(self, lap3):
        S = unit_rows(lap3, 5, 7)
        with pytest.raises(ParameterError):
            compute_cn(lap3, S, 1, identity_tol=1e-9)

    def test_identity_mismatch_raises(self, predual4):
        S = unit_rows(predual4, 10, 8)
        with pytest.raises(NumericError):
            compute_cn(predual4, S, 1, identity_tol=-1.0)

    def test_nan_identity_tol_fails(self, predual4):
        # NaN fails every comparison; it used to skip the check
        S = unit_rows(predual4, 10, 8)
        with pytest.raises(NumericError, match="beyond nan$"):
            compute_cn(predual4, S, 1, identity_tol=np.nan)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_sample_rejected(self, bad):
        # a NaN entry, ranked last and masked out, gave c_2 = 1.0
        with pytest.raises(ParameterError, match="row 1"):
            compute_cn(sup_space(3), [[1.0, 0.5, 0.0], [bad, 1.0, 1.0]], 2)

    def test_heuristic_matches_sup_norm_beyond_exhaustive_dim(self):
        sp = sup_space(14)
        rng = np.random.default_rng(9)
        S = rng.standard_normal((20, 14))
        S /= np.max(np.abs(S), axis=1)[:, None]
        assert compute_cn(sp, S, 3) == 1.0

    def test_lap_dim13_matches_brute_force(self):
        # the top-|x| support is not the best one for a lap space (it
        # gives c_3 = 0.388 here); the top-term route is exact, against
        # all C(13, 3) = 286 supports
        X = lap_space([range(0, 7), range(6, 13)], [1, 4], 13)
        S = unit_rows(X, 20, 0)
        masks = np.asarray([np.isin(np.arange(13), sigma) for sigma in
                            itertools.combinations(range(13), 3)])
        brute = min(float(np.max(X.norm_rows(np.where(masks, x, 0.0))))
                    for x in S)
        assert compute_cn(X, S, 3) == brute
        assert round(brute, 7) == 0.5755085

    def test_exhaustive_matches_inline_brute_force(self, lap3):
        S = unit_rows(lap3, 15, 10)
        for n in (1, 2):
            brute = min(
                max(lap3.norm(proj(x, sigma, 3))
                    for sigma in itertools.combinations(range(3), n))
                for x in S)
            assert compute_cn(lap3, S, n) == brute


class TestRelativeBoundaryChain:
    def chain(self, predual4, **overrides):
        h1, h2 = (support_ball(predual4, n) for n in (1, 2))
        fields = dict(space=predual4, levels=(h1, h2[len(h1):]),
                      samples=unit_rows(predual4, 10, 11),
                      level_ids=(1, 2))
        fields.update(overrides)
        return RelativeBoundaryChain(**fields)

    def test_valid_chain(self, predual4):
        ch = self.chain(predual4)
        assert len(ch) == 2
        assert len(ch.levels[0]) == 8
        assert len(ch.levels[1]) == 24
        for i, n in enumerate((1, 2)):
            assert ch.b_values[i] == compute_bn(support_ball(predual4, n),
                                                ch.samples)

    def test_disjointness_enforced(self, predual4):
        h1 = support_ball(predual4, 1)
        with pytest.raises(ConstructionError, match="disjoint"):
            self.chain(predual4, levels=(h1, h1[:4]))
        # a repeat inside one level, and one with only a signed zero
        # changed, count too
        with pytest.raises(ConstructionError, match="disjoint"):
            self.chain(predual4, levels=(h1, np.vstack([-h1[:1] * 0.5] * 2)))
        flipped = h1[:1] * 0.5 + 0.0
        flipped[0, 1] = -0.0
        with pytest.raises(ConstructionError, match="disjoint"):
            self.chain(predual4, levels=(h1, np.vstack([h1[:1] * 0.5,
                                                         flipped])))

    def test_b_range_enforced(self, predual4):
        # samples of norm 2 give b_2 = 2
        with pytest.raises(ConstructionError, match=r"\[0, 1\]"):
            self.chain(predual4, samples=2.0 * unit_rows(predual4, 10, 11))

    def test_shape_errors(self, predual4):
        with pytest.raises(ConstructionError):
            self.chain(predual4, level_ids=(2, 1))

    @pytest.mark.parametrize("bad", [1.7, True, "2"])
    def test_non_integer_level_id_refused(self, predual4, bad):
        # (1.7, 2) was stored as (1, 2)
        with pytest.raises(ParameterError,
                           match=rf"^level id must be an integer, "
                                 rf"got {re.escape(repr(bad))}$"):
            self.chain(predual4, level_ids=(bad, 2))
        assert self.chain(
            predual4, level_ids=(np.int64(1), 2)).level_ids == (1, 2)
        with pytest.raises(ConstructionError):
            self.chain(predual4, c_values=[1.0])
        with pytest.raises(ConstructionError):
            self.chain(predual4, samples=np.zeros((0, 4)))

    @pytest.mark.parametrize("field, width", [("levels", 3), ("levels", 5),
                                              ("samples", 3)])
    def test_wrong_width_refused(self, field, width):
        # a width-3 level on a dim-2 space used to surface as numpy's
        # matmul ValueError inside build_F
        sp = sup_space(2)
        fields = dict(levels=(np.vstack([np.eye(2), -np.eye(2)]),),
                      samples=unit_rows(sp, 5, 12))
        fields[field] = (np.ones((2, width)),) if field == "levels" \
            else np.ones((4, width))
        with pytest.raises(ConstructionError, match="width 2"):
            RelativeBoundaryChain(space=sp, level_ids=(1,), **fields)


@st.composite
def random_chains(draw):
    """A chain over sup_finite(dim) with 1 to 6 levels, the later ones
    possibly empty, and 1 to 6 samples: nonnegative functionals of l1
    norm at most 1 and nonnegative unit samples, so b lies in [0, 1]."""
    dim = draw(st.integers(1, 11))
    sizes = [draw(st.integers(1, 4))] + draw(
        st.lists(st.integers(0, 4), max_size=5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    H = rng.random((sum(sizes), dim)) / dim
    S = rng.random((draw(st.integers(1, 6)), dim))
    S /= S.max(axis=1, keepdims=True)
    levels = np.split(H, np.cumsum(sizes)[:-1])
    return RelativeBoundaryChain(space=sup_space(dim), levels=levels,
                                 samples=S,
                                 level_ids=range(1, len(sizes) + 1))


class TestChainInOnePass:
    """b from one product and a running max, against compute_bn on each
    prefix of levels."""

    @settings(max_examples=300, deadline=None)
    @given(chain=random_chains())
    def test_b_matches_compute_bn_per_prefix(self, chain):
        b, S = chain.b_values, chain.samples
        assert np.all(np.diff(b) >= 0.0)
        H = np.vstack(chain.levels)
        # a one-row prefix or a single sample goes through gemv, which
        # rounds apart from the one product's gemm
        bound = 2 * chain.space.dim * 2.0 ** -53 * np.max(
            np.abs(S) @ np.abs(H).T)
        for i in range(len(chain)):
            prefix = np.vstack(chain.levels[:i + 1])
            oracle = compute_bn(prefix, S)
            if len(S) >= 2 and len(prefix) >= 2:
                assert b[i] == oracle
            else:
                assert abs(b[i] - oracle) <= bound

    def test_b_over_sample_blocks(self):
        """2,500 samples against 1,024 functionals run in sample blocks
        of 1,024, 1,024 and 452 rows; b equals the whole product's
        running max and column min.  Every entry is a multiple of 1/64
        or 1/16, so every product and sum is exact."""
        rng = np.random.default_rng(6)
        H = np.unique(rng.integers(0, 9, size=(1100, 8)), axis=0)[:1024] / 64
        S = rng.integers(0, 17, size=(2500, 8)) / 16
        S[:, 0] = 1.0
        assert len(H) == 1024
        levels = np.split(H, [100, 400, 400, 1000])
        chain = RelativeBoundaryChain(space=sup_space(8), levels=levels,
                                      samples=S, level_ids=range(1, 6))
        top = np.maximum.accumulate(S @ H.T, axis=1)
        ends = np.cumsum([len(h) for h in levels]) - 1
        assert np.array_equal(chain.b_values, top[:, ends].min(axis=0))

    def test_one_row_first_level_keeps_b_nondecreasing(self):
        # level 2 lies below level 1 at the sample that sets b_1, so
        # b_2 = b_1; a product per prefix of levels put b_2 one ulp
        # below b_1 here, as a one-row product rounds apart from a
        # longer one
        rng = np.random.default_rng(3)
        h1 = rng.random((1, 10)) / 10
        h2 = 0.1 * rng.random((3, 10)) / 10
        S = rng.random((4, 10))
        S /= S.max(axis=1, keepdims=True)
        chain = RelativeBoundaryChain(space=sup_space(10), levels=(h1, h2),
                                      samples=S, level_ids=(1, 2))
        assert chain.b_values[1] == chain.b_values[0]

    def test_non_finite_entries_refused(self):
        sp = sup_space(2)
        H = np.vstack([np.eye(2), -np.eye(2)])
        with pytest.raises(ParameterError, match="finite"):
            RelativeBoundaryChain(space=sp, levels=(H,), samples=[
                [1.0, np.nan]], level_ids=(1,))
        with pytest.raises(ParameterError, match="finite"):
            RelativeBoundaryChain(space=sp, levels=(H, [[np.inf, 0.0]]),
                                  samples=[[1.0, 0.5]], level_ids=(1, 2))

    @pytest.mark.parametrize("space", [
        sup_space(4), lorentz_predual_space(W4),
        lap_space([[0, 1, 2], [2, 3, 4]], [1.0, 2.0], 5),
        lorentz_space([1.0, 0.5, 0.25]), euclidean_space(3),
    ], ids=["sup4", "predual4", "lap5", "lorentz3", "euclidean3"])
    def test_one_top_projections_pass_per_route(self, space, monkeypatch):
        calls = []
        walk = type(space).top_projections

        def counting(self, S, sizes):
            calls.append(tuple(sizes))
            return walk(self, S, sizes)

        monkeypatch.setattr(type(space), "top_projections", counting)
        S = equiv._normalize_rows(space, np.random.default_rng(
            0).standard_normal((16, space.dim)))
        chain = equiv._route_chain(space, S)
        assert calls == [tuple(range(1, space.dim + 1))]
        for n, c_n in zip(chain.level_ids, chain.c_values):
            assert c_n == compute_cn(space, S, n)


class TestDefaultASequence:
    def test_properties(self):
        a = default_a_sequence((1, 2, 3), [0.5, 0.8, 1.0])
        assert np.all(np.diff(a) < 0.0)
        assert np.all(a > 1.0)
        assert np.all(a * [0.5, 0.8, 1.0] > 1.0)

    def test_rejects_zero_b(self):
        with pytest.raises(ConstructionError):
            default_a_sequence((1, 2), [0.0, 1.0])

    def test_rejects_nan_b(self):
        # NaN fails every comparison, so the check must be written
        # positively; it used to return [nan, 1.125]
        with pytest.raises(ConstructionError):
            default_a_sequence((1, 2), [np.nan, 1.0])


class TestBuildF:
    def test_single_level_boundary_reproduces_norm(self):
        sp = sup_space(2)
        S = unit_rows(sp, 30, 14)
        H = np.vstack([np.eye(2), -np.eye(2)])
        ch = RelativeBoundaryChain(space=sp, levels=(H,), samples=S,
                                   level_ids=(0,))
        bn = build_F(ch, a_strategy="ones")
        rng = np.random.default_rng(15)
        for _ in range(50):
            x = rng.standard_normal(2)
            assert bn.norm(x) == sp.norm(x)

    def test_unit_coefficients_on_full_chain_reproduce_norm(self, predual4):
        S = unit_rows(predual4, 20, 16)
        ch = RelativeBoundaryChain(space=predual4,
                                   levels=support_levels(predual4),
                                   samples=S, level_ids=(1, 2, 3, 4))
        bn = build_F(ch, a_strategy="ones")
        rng = np.random.default_rng(17)
        for _ in range(50):
            x = rng.standard_normal(4)
            np.testing.assert_allclose(bn.norm(x), predual4.norm(x),
                                       rtol=1e-12)

    def test_default_strategy_report(self, predual4):
        S = unit_rows(predual4, 40, 18)
        ch = RelativeBoundaryChain(space=predual4,
                                   levels=support_levels(predual4),
                                   samples=S, level_ids=(1, 2, 3, 4))
        bn = build_F(ch)
        assert np.all(np.diff(bn.a_values) < 0.0)
        assert bn.equivalent
        assert bn.expected_range[0] <= bn.ratio_range[0]
        assert bn.ratio_range[1] <= bn.expected_range[1]
        assert all(r.passed for r in bn.lrc_reports)
        assert [r.cardinalities for r in bn.lrc_reports] == [
            (1,), (2,), (3,), (4,)]

    def test_equivalent_is_derived_from_the_ranges(self, predual4):
        S = unit_rows(predual4, 40, 18)
        bn = build_F(RelativeBoundaryChain(
            space=predual4, levels=support_levels(predual4), samples=S,
            level_ids=(1, 2, 3, 4)))
        lo, hi = bn.ratio_range
        assert bn.equivalent
        assert not replace(bn, expected_range=(2.0 * hi, np.inf)).equivalent
        assert not replace(bn, expected_range=(0.0, 0.5 * lo)).equivalent
        assert replace(bn, expected_range=(lo, hi)).equivalent

    def test_empty_later_levels_are_dropped(self, predual4):
        # only the first level must be nonempty (the chain refuses an
        # empty one, as it does its other malformed levels); an empty
        # increment adds no piece
        S = unit_rows(predual4, 10, 20)
        H = support_ball(predual4, 4)
        bn = build_F(RelativeBoundaryChain(
            space=predual4, levels=(H, np.zeros((0, 4))), samples=S,
            level_ids=(4, 5)), a_strategy="ones")
        assert len(bn.pieces) == 1 and len(bn.a_values) == 2
        with pytest.raises(ConstructionError, match="first level is empty"):
            RelativeBoundaryChain(space=predual4, levels=(np.zeros((0, 4)), H),
                                  samples=S, level_ids=(1, 2))

    def test_zero_sample_rejected_by_its_b(self, predual4):
        # a zero sample gives b = 0 at every level, refused before any
        # ratio divides by its norm
        S = np.vstack([unit_rows(predual4, 5, 19), np.zeros((1, 4))])
        ch = RelativeBoundaryChain(space=predual4,
                                   levels=support_levels(predual4),
                                   samples=S, level_ids=(1, 2, 3, 4))
        with pytest.raises(ConstructionError, match="strictly positive"):
            build_F(ch)

    def test_zero_b_rejected(self, predual4):
        S = unit_rows(predual4, 5, 19)
        ch = RelativeBoundaryChain(space=predual4,
                                   levels=(np.zeros((1, 4)),), samples=S,
                                   level_ids=(0,))
        with pytest.raises(ConstructionError):
            build_F(ch)

    def test_coefficient_validation(self, predual4):
        S = unit_rows(predual4, 10, 20)
        H = support_ball(predual4, 4)
        ch = RelativeBoundaryChain(space=predual4, levels=(H,), samples=S,
                                   level_ids=(4,))
        with pytest.raises(ParameterError):
            build_F(ch, a_strategy=[1.0, 2.0])
        with pytest.raises(ParameterError):
            build_F(ch, a_strategy="golden")


class TestBoundaryNormSpace:
    def test_quacks_like_a_space(self, predual4):
        S = unit_rows(predual4, 15, 21)
        H = support_ball(predual4, 4)
        ch = RelativeBoundaryChain(space=predual4, levels=(H,), samples=S,
                                   level_ids=(4,))
        space = build_F(ch, a_strategy="ones")
        assert isinstance(space, BoundaryNormSpace)
        assert space.kind == "boundary_sup"
        assert space.dim == 4
        assert space.dual_metric == "surrogate_l1"
        assert not space.monotone_unconditional
        rows = np.random.default_rng(22).standard_normal((10, 4))
        # batched and single matmuls may differ by an ulp
        np.testing.assert_allclose(
            space.norm_rows(rows),
            [space.norm(x) for x in rows], rtol=1e-14)
        assert space.dual_norm([1.0, -2.0, 0.0, 0.5]) == 3.5

    @settings(max_examples=40, deadline=None)
    @given(F=arrays(float, st.tuples(st.integers(1, 12), st.just(2)),
                    elements=st.floats(-1e6, 1e6, allow_nan=False)))
    def test_dual_norm_rows(self, F):
        """Row-wise l1: bounds l-inf, one row is bitwise its batch row."""
        space = sup2_boundary_norm()
        batch = space.dual_norm_rows(F)
        assert np.all(batch >= np.max(np.abs(F), axis=1))
        for i, f in enumerate(F):
            assert space.dual_norm(f) == batch[i]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=20, deadline=None)
    @given(bad=st.sampled_from([np.nan, np.inf, -np.inf]),
           at=st.integers(0, 1))
    def test_dual_norm_non_finite(self, bad, at):
        space = sup2_boundary_norm()
        f = np.array([0.5, 0.25])
        f[at] = bad
        with pytest.raises(ParameterError):
            space.dual_norm(f)
        with pytest.raises(NumericError):
            space.dual_norm([1.5e308, 1.5e308])


class TestPipelineDirect:
    def test_route_and_levels(self, direct_result):
        res = direct_result
        assert res.route == "direct"
        assert res.passed and res.report.passed
        assert res.boundary_norm is None
        assert [len(p) for p in res.decomposition.pieces] == [
            8, 24, 32, 16]
        assert len(res.phi_spec.net) == 80

    def test_level_constants(self, direct_result):
        ch = direct_result.chain
        assert np.all(np.diff(ch.b_values) >= 0.0)
        np.testing.assert_allclose(ch.b_values[-1], 1.0, rtol=1e-12)
        assert direct_result.report.bc_gap <= 1e-12

    def test_epsilon_band_on_fresh_vectors(self, direct_result, predual4):
        rng = np.random.default_rng(23)
        U = rng.standard_normal((300, 4))
        base = np.array([predual4.norm(u) for u in U])
        rho = phi_norm_batch(direct_result.phi_spec, U)
        assert np.all(rho > base)
        assert np.all(rho <= 1.1 * base * (1.0 + 1e-9))

    def test_ridge_contrast(self, direct_result, predual4):
        y = np.array([1.0, 0.5, 0.0, 0.0])
        d = np.array([1.0, -1.0, 0.0, 0.0])
        steps = (1e-3, 1e-4)
        base = smoothness_check(lambda w: predual4.norm(w), y, d, steps)
        assert base.kink
        for d2, h in zip(base.second_diffs, steps):
            np.testing.assert_allclose(d2, 1.0 / h, rtol=1e-2)
        spec = direct_result.phi_spec
        smooth = smoothness_check(lambda w: phi_norm(spec, w), y, d, steps)
        assert not smooth.kink
        assert smooth.richardson <= 1e-5

    def test_sup_space_trivial_route(self):
        sp = sup_space(3)
        res = corollary_b_pipeline(
            sp, unit_rows(sp, 60, 24), 0.1, seed=1)
        assert res.route == "direct" and res.passed
        assert len(res.decomposition.pieces) == 1
        assert len(res.phi_spec.net) == 6

    def test_support_balls_enumerated_once(self, predual4, monkeypatch):
        # the direct route reads its levels from one support_levels call
        calls, inside = [], []
        support_levels = type(predual4).support_levels
        route_chain = equiv._route_chain

        def counting(space):
            calls.append(space)
            return support_levels(space)

        def route(space, S):
            before = len(calls)
            chain = route_chain(space, S)
            inside.append(len(calls) - before)
            return chain

        monkeypatch.setattr(type(predual4), "support_levels", counting)
        monkeypatch.setattr(equiv, "_route_chain", route)
        samples = np.random.default_rng(0).standard_normal((200, 4))
        corollary_b_pipeline(predual4, samples, 0.1, seed=0)
        assert inside == [1]

    def test_identity_mismatch_raises(self, predual4):
        samples = np.random.default_rng(0).standard_normal((200, 4))
        with pytest.raises(NumericError,
                           match=r"^b_1 = .* and c_1 = .* disagree beyond "
                                 r"-1\.0$"):
            corollary_b_pipeline(predual4, samples, 0.1, identity_tol=-1.0)

    def test_nan_identity_tol_fails(self, predual4):
        samples = np.random.default_rng(0).standard_normal((200, 4))
        with pytest.raises(NumericError, match=r"^b_1 = .* beyond nan$"):
            corollary_b_pipeline(predual4, samples, 0.1,
                                 identity_tol=np.nan)


class TestPipelineReport:
    """The report holds the records of the checks it ran, each value
    once, and derives its verdict from them."""

    @pytest.mark.parametrize("which", ["direct", "chain"])
    def test_records_are_the_checks_on_the_pipeline_seeds(
            self, which, direct_result, chain_result):
        res = direct_result if which == "direct" else chain_result
        phi, rep, seed = res.phi_spec, res.report, 0
        assert rep.net == net_property_report(res.decomposition, phi.net)
        rows = np.random.default_rng(seed + 101).standard_normal(
            (CHECK_COUNT, *phi.sample_shape))
        for got, want in zip(rep.window, approx_window(phi, rows)):
            np.testing.assert_array_equal(got, want)
        margins = active_sets(phi, MARGIN_COUNT, seed=seed + 202)
        np.testing.assert_array_equal(rep.margins.points, margins.points)
        assert rep.margins[1:] == margins[1:]
        # the probes ran, and woke no bump
        assert rep.margins.inactive_checked > 0 == rep.margins.violations
        assert rep.claim2d == claim2d_sweep(phi, POOL_COUNT, seed=seed + 303)
        assert rep.bc_gap == np.max(np.abs(res.chain.b_values
                                           - res.chain.c_values))

    def test_each_value_is_stored_once(self):
        assert [f.name for f in fields(equiv.PipelineReport)] == [
            "net", "window", "margins", "claim2d", "bc_gap", "equivalent"]
        assert [f.name for f in fields(equiv.PipelineResult)] == [
            "chain", "boundary_norm", "decomposition", "phi_spec", "report"]
        assert [f.name for f in fields(BoundaryNormSpace)] == [
            "pieces", "a_values", "matrix", "ratio_range", "expected_range",
            "lrc_reports"]


def cumulative_levels(space, S, level_ids):
    """The adapted route's cumulative level sets as a chain held them
    before it held increments: the oracle for the increments."""
    h_sets, acc = [], np.zeros((0, space.dim))
    for n in level_ids:
        _, masks = space.top_projection_rows(S, n)
        acc = equiv._unique_rows(np.vstack(
            [acc, *(space.norming_functional(p)
                    for p in np.where(masks, S, 0.0))]))
        h_sets.append(acc)
    return h_sets


class TestRouteLevels:
    """Each route's level increments, checked against the cumulative
    sets they replace: levels 1..n together are that set row for row,
    and b_n is compute_bn on it, bit for bit."""

    @pytest.mark.parametrize("space", [sup_space(d) for d in range(1, 7)]
                             + [lorentz_predual_space(W8[:d])
                                for d in range(2, 9)],
                             ids=[f"sup{d}" for d in range(1, 7)]
                             + [f"predual{d}" for d in range(2, 9)])
    def test_direct_levels_are_support_ball_increments(self, space):
        S = equiv._normalize_rows(space, np.random.default_rng(
            space.dim).standard_normal((40, space.dim)))
        chain = equiv._route_chain(space, S)
        assert chain.level_ids == tuple(range(1, space.dim + 1))
        for i, n in enumerate(chain.level_ids):
            ball = support_ball(space, n)
            below = RowIndex(support_ball(space, n - 1))
            new = ball[below.find(ball) < 0]
            np.testing.assert_array_equal(chain.levels[i], new)
            np.testing.assert_array_equal(np.vstack(chain.levels[:i + 1]),
                                          ball)
            assert chain.b_values[i] == compute_bn(ball, S)

    @pytest.mark.parametrize("space", [
        lap_space([[0], [1, 2]], [1.0, 2.0], 3),
        lap_space([[0, 1, 2], [2, 3, 4]], [1.0, 2.0], 5),
        lorentz_space([1.0, 0.5, 0.25]),
        euclidean_space(3),
    ], ids=["lap3", "lap5", "lorentz3", "euclidean3"])
    def test_adapted_levels_match_cumulative_oracle(self, space):
        S = equiv._normalize_rows(space, np.random.default_rng(
            space.dim).standard_normal((40, space.dim)))
        chain = equiv._route_chain(space, S)
        oracle = cumulative_levels(space, S, chain.level_ids)
        for i, h in enumerate(oracle):
            np.testing.assert_array_equal(np.vstack(chain.levels[:i + 1]),
                                          h)
            assert chain.b_values[i] == compute_bn(h, S)


class TestPipelineChain:
    def test_route_and_verdict(self, chain_result):
        res = chain_result
        assert res.route == "chain"
        assert res.passed
        assert res.report.bc_gap <= 1e-12
        np.testing.assert_allclose(res.chain.c_values[-1], 1.0, rtol=1e-9)

    def test_boundary_norm_report(self, chain_result):
        bn = chain_result.boundary_norm
        assert np.all(np.diff(bn.a_values) < 0.0)
        assert bn.equivalent
        assert all(r.passed for r in bn.lrc_reports)
        assert [r.cardinalities for r in bn.lrc_reports] == [
            (1,), (2,), (3,)]

    def test_phi_approximates_boundary_norm(self, chain_result):
        res = chain_result
        rng = np.random.default_rng(27)
        U = rng.standard_normal((200, 3))
        base = np.array([res.phi_spec.X.norm(u) for u in U])
        rho = phi_norm_batch(res.phi_spec, U)
        assert np.all(rho > base)
        assert np.all(rho <= 1.1 * base * (1.0 + 1e-9))

    @pytest.mark.parametrize("verdict", ["equivalent"])
    def test_boundary_norm_verdicts_gate_the_report(self, lap3, verdict,
                                                    monkeypatch):
        # the phi-norm checks alone do not pass a chain-route build whose
        # rescaled norm misses its expected ratio range
        def failing_build_F(chain):
            space = build_F(chain)
            return replace(space, expected_range=(
                2.0 * space.ratio_range[1], space.expected_range[1]))

        monkeypatch.setattr(equiv, "build_F", failing_build_F)
        samples = np.random.default_rng(1).standard_normal((64, 3))
        res = corollary_b_pipeline(lap3, samples, 0.1, seed=0)
        assert res.route == "chain"
        assert not getattr(res.boundary_norm, verdict)
        assert res.report.net.passed and res.report.claim2d.ok
        assert not res.passed and not res.report.passed

    def test_one_functional_call_per_level(self, monkeypatch):
        space = lap_space([[0, 1, 2], [2, 3, 4]], [1.0, 2.0], 5)
        calls = []
        rows_call = type(space).norming_functional_rows

        def counting(self, X):
            calls.append(len(X))
            return rows_call(self, X)

        monkeypatch.setattr(type(space), "norming_functional_rows",
                            counting)
        samples = np.random.default_rng(0).standard_normal((24, 5))
        res = corollary_b_pipeline(space, samples, 0.1, seed=0)
        assert res.route == "chain"
        assert calls == [24] * 5

    @pytest.mark.parametrize("space", [sup_space(3), lap_space(
        [[0], [1, 2]], [1.0, 2.0], 3)], ids=["direct", "chain"])
    def test_empty_sample_set_refused(self, space):
        # the chain route used to fail in numpy's min of no values
        with pytest.raises(ParameterError, match="empty"):
            corollary_b_pipeline(space, np.zeros((0, 3)), 0.1)

    def test_factor_space_needs_direct_route(self, lap3):
        with pytest.raises(ParameterError):
            corollary_b_pipeline(lap3, unit_rows(lap3, 10, 28), 0.1,
                                 Y=euclidean_space(2))

    @pytest.mark.parametrize("space, route", [
        (lap_space([[0, 1, 2], [2, 3, 4]], [1.0, 2.0], 5), "chain"),
        (lap_space([[0], [1, 2]], [1.0, 2.0], 3), "chain"),
        (euclidean_space(3), "chain"),
        (lorentz_space([1.0, 0.5, 0.25]), "chain"),
        (sup_space(3), "direct"),
        (lorentz_predual_space(W4), "direct"),
    ], ids=["lap5", "lap3", "euclidean3", "lorentz3", "sup3", "predual4"])
    def test_auto_takes_chain_without_enumerable_dual(self, space, route):
        # every sample has a norming support at level dim; the route is
        # direct exactly when the kind's dual ball is enumerable
        samples = np.random.default_rng(0).standard_normal((24, space.dim))
        res = corollary_b_pipeline(space, samples, 0.1, seed=0)
        assert res.route == route and res.passed

    @pytest.mark.parametrize("weights", [
        [1.0, 0.5, 0.25], [1.0, 0.7, 0.5, 0.3], W8[:6]],
        ids=["lorentz3", "lorentz4", "lorentz6"])
    def test_lorentz_levels_have_support_n(self, weights):
        """A Lorentz functional of a projection used to take the full
        support: b_1 < 0 raised on 7 of these seeds at lorentz4 and 9
        at lorentz6, and bc_gap reached 0.41 at lorentz3."""
        space = lorentz_space(weights)
        for seed in range(20):
            samples = np.random.default_rng(seed).standard_normal(
                (48, space.dim))
            res = corollary_b_pipeline(space, samples, 0.1, seed=seed)
            assert res.route == "chain" and res.passed
            assert res.report.bc_gap <= 1e-12
            for n, level in zip(res.chain.level_ids, res.chain.levels):
                assert np.all(np.count_nonzero(level, axis=1) == n)


class TestLevelIdentitySweep:
    def test_cn_equals_bn_across_random_configurations(self):
        rng = np.random.default_rng(30)
        spaces = [sup_space(3), sup_space(5),
                  lorentz_predual_space([1.0, 0.5, 0.25]),
                  lorentz_predual_space(W4)]
        checked = 0
        for _ in range(12):
            sp = spaces[rng.integers(len(spaces))]
            n = int(rng.integers(1, sp.dim + 1))
            S = unit_rows(sp, 15, int(rng.integers(10**6)))
            c = compute_cn(sp, S, n, identity_tol=1e-9)
            b = compute_bn(support_ball(sp, n), S)
            assert abs(b - c) <= 1e-9
            checked += 1
        assert checked == 12
