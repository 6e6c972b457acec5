"""Decompositions, psi weights, binning, greedy nets, boundary checks."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothnorm.boundary import (
    ClosureOracle,
    Decomposition,
    Piece,
    _greedy_indices,
    build_net,
    check_boundary,
    check_lrc_criterion,
    epsilon_n,
    net_property_report,
    psi_binning,
)
from smoothnorm.errors import ConstructionError, ParameterError
from smoothnorm.spaces import (
    euclidean_space,
    lap_space,
    lorentz_predual_space,
    lorentz_space,
    sup_space,
)


def sup2_decomposition(eps=0.1, closure=None):
    members = np.vstack([np.eye(2), -np.eye(2)])
    return Decomposition(sup_space(2), [members], eps, closure=closure)


class TestEpsilonN:
    def test_reference_values_exact(self):
        assert epsilon_n(0.96, 0) == 0.01
        assert epsilon_n(0.96, 1) == 0.0025

    def test_ratio_is_four(self):
        for eps in (0.96, 0.37, 0.1):
            for n in range(6):
                assert epsilon_n(eps, n) / epsilon_n(eps, n + 1) == 4.0

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            epsilon_n(0.0, 0)
        with pytest.raises(ParameterError):
            epsilon_n(1.0, 0)
        with pytest.raises(ParameterError):
            epsilon_n(0.5, -1)


class TestPsi:
    def test_single_piece_value_exact(self):
        d = sup2_decomposition(eps=0.1)
        for f in d.pieces[0].members:
            assert d.psi_of(*d.locate(f)) == 1.0625

    def test_closure_enlarges_weight(self):
        # member (0, 0) is declared to lie in the closure of piece 1 as
        # well, which adds 2^-1 to its index sum
        members0 = np.array([[1.0, 0.0], [-1.0, 0.0]])
        members1 = np.array([[0.0, 1.0], [0.0, -1.0]])
        closure = ClosureOracle({(0, 0): {0, 1}})
        d = Decomposition(sup_space(2), [members0, members1], 0.1,
                          closure=closure)
        assert d.psi_of(0, 0) == 1.06875
        assert d.psi_of(0, 1) == 1.0625
        assert d.psi_of(1, 0) == 1.028125

    def test_range_and_theta_margin(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            eps = float(rng.uniform(0.01, 0.99))
            npieces = int(rng.integers(1, 5))
            n = int(rng.integers(0, npieces))
            extra = set(int(i) for i in
                        rng.integers(0, npieces, size=rng.integers(0, 3)))
            idx = frozenset({n} | {i for i in extra if i >= n})
            value = 1.0 + 0.5 * eps * (2.0 ** -min(idx)) * (
                1.0 + 0.25 * sum(2.0 ** -i for i in sorted(idx)))
            assert 1.0 < value < 1.0 + eps
            # theta stays above 1: psi - 1 >= eps/2 * 2^-n > eps_n
            assert value - epsilon_n(eps, n) > 1.0

    def test_locate_rejects_non_member(self):
        d = sup2_decomposition()
        with pytest.raises(ParameterError):
            d.psi_of(*d.locate(np.array([0.5, 0.5])))

    def test_locate_by_value_identity(self):
        d = sup2_decomposition()
        assert d.locate(np.array([0.0, -1.0])) == (0, 3)


class TestClosureOracle:
    def test_default_is_own_piece(self):
        oracle = ClosureOracle()
        assert oracle.index_set(3, 17) == frozenset({3})

    def test_must_contain_own_piece(self):
        with pytest.raises(ParameterError):
            ClosureOracle({(0, 0): {1}})

    def test_entry_out_of_range_rejected(self):
        members = np.eye(2)
        with pytest.raises(ParameterError):
            Decomposition(sup_space(2), [members], 0.1,
                          closure=ClosureOracle({(0, 5): {0}}))
        with pytest.raises(ParameterError):
            Decomposition(sup_space(2), [members], 0.1,
                          closure=ClosureOracle({(0, 0): {0, 9}}))


class TestDecompositionValidation:
    def test_epsilon_out_of_range(self):
        members = np.eye(2)
        for eps in (0.0, 1.0, -0.2, 2.0):
            with pytest.raises(ParameterError):
                Decomposition(sup_space(2), [members], eps)

    def test_pieces_must_be_disjoint(self):
        a = np.array([[1.0, 0.0]])
        with pytest.raises(ConstructionError):
            Decomposition(sup_space(2), [a, a.copy()], 0.1)

    def test_duplicate_inside_one_piece_is_allowed(self):
        a = np.array([[1.0, 0.0], [1.0, 0.0]])
        d = Decomposition(sup_space(2), [a], 0.1)
        assert len(d.pieces[0]) == 2

    def test_dual_ball_enforced_for_exact_duals(self):
        bad = np.array([[0.6, 0.6]])
        with pytest.raises(ConstructionError):
            Decomposition(sup_space(2), [bad], 0.1)
        # just inside the tolerance passes
        ok = np.array([[0.5, 0.5 + 4e-10]])
        d = Decomposition(sup_space(2), [ok], 0.1)
        assert d.dual_ball_checked

    def test_dual_ball_error_names_first_offender(self):
        members = np.array([[0.5, 0.5], [0.7, 0.7], [0.9, 0.9]])
        with pytest.raises(ConstructionError,
                           match=r"piece 1 member 1 has dual norm 1\.4 "):
            Decomposition(sup_space(2), [np.eye(2), members], 0.1)

    def test_surrogate_dual_skips_ball_check(self):
        space = lap_space([[0, 1], [2]], [1.0, 2.0], 3)
        big = np.array([[2.0, 2.0, 2.0]])
        d = Decomposition(space, [big], 0.1)
        assert not d.dual_ball_checked

    def test_nonconsecutive_piece_indices_rejected(self):
        p = Piece(index=1, members=np.eye(2))
        with pytest.raises(ParameterError):
            Decomposition(sup_space(2), [p], 0.1)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            Decomposition(sup_space(3), [np.eye(2)], 0.1)


class TestPsiBinning:
    def test_frozen_example(self):
        bins = psi_binning([1.1, 1.3, 1.35, 1.6], 0.25)
        assert bins == {0: [0], 1: [1, 2], 2: [3]}

    def test_bin_diameter(self):
        rng = np.random.default_rng(3)
        psis = 1.0 + rng.uniform(0.0, 0.1, size=400)
        eps_n = 0.007
        for members in psi_binning(psis, eps_n).values():
            vals = psis[members]
            assert vals.max() - vals.min() <= eps_n

    def test_requires_positive_width(self):
        with pytest.raises(ParameterError):
            psi_binning([1.05], 0.0)


def greedy_oracle(members, separation, metric):
    """The plain pairwise greedy loop: each row against every kept row in
    kept order, one metric call per pair."""
    kept, assign = [], []
    for i, f in enumerate(members):
        home = None
        for pos, k in enumerate(kept):
            if metric(f, members[k]) < separation:
                home = pos
                break
        if home is None:
            assign.append(len(kept))
            kept.append(i)
        else:
            assign.append(home)
    return kept, assign


def greedy_rows(members, separation, metric_rows):
    kept, _ = _greedy_indices(members, separation, metric_rows)
    return [members[i] for i in kept]


def scalar_rows(D):
    return np.abs(D[:, 0])


def l1_rows(D):
    return np.sum(np.abs(D), axis=1)


class TestGreedyNet:
    def test_frozen_scalar_example(self):
        pts = np.array([[0.0], [0.5], [1.2]])
        kept = greedy_rows(pts, 0.6, scalar_rows)
        assert [k[0] for k in kept] == [0.0, 1.2]

    def test_separated_and_maximal(self):
        rng = np.random.default_rng(11)
        metric = lambda f, g: np.sum(np.abs(f - g))
        for _ in range(50):
            pts = rng.uniform(-1, 1, size=(rng.integers(2, 30), 3))
            sep = float(rng.uniform(0.1, 1.5))
            kept = greedy_rows(pts, sep, l1_rows)
            for i in range(len(kept)):
                for j in range(i + 1, len(kept)):
                    assert metric(kept[i], kept[j]) >= sep
            # maximality: every input point is within sep of the net
            for f in pts:
                assert min(metric(f, k) for k in kept) < sep or any(
                    np.array_equal(f, k) for k in kept)

    def test_first_point_always_kept(self):
        pts = np.array([[0.3], [0.2], [0.9]])
        kept = greedy_rows(pts, 10.0, scalar_rows)
        assert kept[0][0] == 0.3 and len(kept) == 1

    def test_duplicates_collapse(self):
        pts = np.array([[1.0, 0.0], [1.0, 0.0]])
        kept = greedy_rows(pts, 0.5, l1_rows)
        assert len(kept) == 1


GREEDY_SPACES = [sup_space(3), euclidean_space(3),
                 lorentz_space([1.0, 0.5, 0.25]),
                 lorentz_predual_space([1.0, 0.5, 0.25]),
                 lap_space([[0], [1, 2]], [1.0, 2.0], dim=3)]


@st.composite
def clustered_rows(draw):
    """Rows on a 1/8 grid (so many l1 and l-inf distances are exactly
    0.25 or 0.5), repeated outright and jittered inside small clusters."""
    centres = draw(st.lists(
        st.lists(st.integers(-8, 8), min_size=3, max_size=3),
        min_size=1, max_size=6))
    picks = draw(st.lists(
        st.tuples(st.integers(0, len(centres) - 1),
                  st.sampled_from([0.0, 0.0, 1.0 / 64.0, -1.0 / 32.0,
                                   0.03, 0.125]),
                  st.integers(0, 2)),
        min_size=1, max_size=40))
    rows = []
    for c, shift, axis in picks:
        row = np.asarray(centres[c], dtype=float) / 8.0
        row[axis] += shift
        rows.append(row)
    return np.asarray(rows)


class TestGreedyAgainstPairwiseLoop:
    @settings(max_examples=150, deadline=None)
    @given(rows=clustered_rows(),
           space=st.sampled_from(GREEDY_SPACES),
           separation=st.sampled_from([0.125, 0.25, 0.5, 0.3, 1.0]))
    def test_same_net_as_pairwise_loop(self, rows, space, separation):
        want = greedy_oracle(rows, separation,
                             lambda f, g: space.dual_norm(f - g))
        kept, assign = _greedy_indices(rows, separation,
                                       space.dual_norm_rows)
        assert (kept, assign) == want

    def test_same_net_across_row_blocks(self, monkeypatch):
        """Bins larger than one prefilter block give the same net."""
        rng = np.random.default_rng(5)
        centres = rng.uniform(-1, 1, size=(30, 3))
        rows = centres[rng.integers(0, 30, size=300)] + rng.uniform(
            -0.02, 0.02, size=(300, 3))
        space = lorentz_predual_space([1.0, 0.5, 0.25])
        want = greedy_oracle(rows, 0.05,
                             lambda f, g: space.dual_norm(f - g))
        monkeypatch.setattr("smoothnorm.boundary._PREFILTER_ELEMS", 1000)
        assert _greedy_indices(rows, 0.05, space.dual_norm_rows) == want


class TestBuildNet:
    def test_sup2_full_net(self):
        d = sup2_decomposition(eps=0.1)
        net = build_net(d)
        # all four psi values coincide and the functionals are far apart,
        # so every member survives into the net
        assert len(net) == 4
        assert net.matrix.shape == (4, 2)
        assert net.metric_kind == "exact"
        eps_0 = epsilon_n(0.1, 0)
        for p in net.points:
            assert p.psi == 1.0625
            assert p.theta == 1.0625 - eps_0
            assert p.theta > 1.0
        for j in range(4):
            assert net.assignment[(0, j)] == j

    def test_close_pair_thins_to_one(self):
        delta = 5e-4
        members = np.array([[1.0, 0.0], [1.0 - delta, 0.0]])
        d = Decomposition(sup_space(2), [members], 0.1)
        net = build_net(d)
        assert len(net) == 1
        assert net.assignment[(0, 0)] == 0
        assert net.assignment[(0, 1)] == 0
        report = net_property_report(d, net)
        assert report.passed and report.checked == 2

    def test_distinct_bins_keep_close_points(self):
        # same functionals as above but a closure entry pushes the first
        # into a different psi bin, so both survive
        delta = 5e-4
        members0 = np.array([[1.0, 0.0], [1.0 - delta, 0.0]])
        members1 = np.array([[0.0, 1.0]])
        closure = ClosureOracle({(0, 0): {0, 1}})
        d = Decomposition(sup_space(2), [members0, members1], 0.1,
                          closure=closure)
        net = build_net(d)
        assert len(net.per_piece[0]) == 2
        assert net_property_report(d, net).passed

    def test_random_decomposition_property(self):
        rng = np.random.default_rng(23)
        space = sup_space(3)
        for _ in range(20):
            pieces = []
            closure_entries = {}
            npieces = int(rng.integers(1, 4))
            for n in range(npieces):
                m = int(rng.integers(1, 12))
                raw = rng.dirichlet(np.ones(3), size=m)
                signs = rng.choice([-1.0, 1.0], size=(m, 3))
                pieces.append(raw * signs * rng.uniform(0.2, 1.0))
                for j in range(m):
                    if rng.random() < 0.3:
                        closure_entries[(n, j)] = set(
                            range(n, int(rng.integers(n, npieces)) + 1))
            d = Decomposition(space, pieces, 0.3,
                              closure=ClosureOracle(closure_entries))
            net = build_net(d)
            assert net_property_report(d, net).passed
            assert all(p.theta > 1.0 for p in net.points)

    def test_per_piece_separation_scales(self):
        members = [np.eye(2), np.array([[0.0, -1.0]])]
        d = Decomposition(sup_space(2), members, 0.5)
        net = build_net(d)
        assert net.separations == [epsilon_n(0.5, 0), epsilon_n(0.5, 1)]


class TestCheckBoundary:
    def test_sup2_unit_vectors_norm_everything(self):
        space = sup_space(2)
        functionals = np.vstack([np.eye(2), -np.eye(2)])
        ts = np.linspace(-1.0, 1.0, 9)
        samples = np.vstack([np.column_stack([np.ones_like(ts), ts]),
                             np.column_stack([ts, -np.ones_like(ts)])])
        report = check_boundary(space, functionals, samples, tol=1e-12)
        assert report.passed
        np.testing.assert_allclose(report.max_values, 1.0, rtol=0, atol=0)

    def test_missing_face_detected(self):
        space = sup_space(2)
        report = check_boundary(space, np.array([[1.0, 0.0]]),
                                np.array([[-1.0, 0.5]]))
        assert not report.passed
        assert report.max_values[0] == -1.0

    def test_unnormalized_sample_rejected(self):
        space = sup_space(2)
        with pytest.raises(ParameterError):
            check_boundary(space, np.eye(2), np.array([[0.5, 0.2]]))

    def test_euclidean_self_attainment(self):
        space = euclidean_space(2)
        angles = np.linspace(0.0, 2 * np.pi, 8, endpoint=False)
        dirs = np.column_stack([np.cos(angles), np.sin(angles)])
        report = check_boundary(space, dirs, dirs, tol=1e-12)
        assert report.passed


class TestLrcCriterion:
    def test_unit_vectors_pass(self):
        report = check_lrc_criterion(np.vstack([np.eye(3), -np.eye(3)]))
        assert report.passed
        assert report.cardinalities == (1,)

    def test_mixed_supports_fail(self):
        members = np.array([[1.0, 0.0], [0.5, 0.5]])
        report = check_lrc_criterion(members)
        assert not report.passed
        assert report.cardinalities == (1, 2)

    def test_empty_passes(self):
        assert check_lrc_criterion(np.empty((0, 3))).passed

    def test_predual_patterns_share_cardinality(self):
        space = lorentz_predual_space([1.0, 0.5, 0.25, 0.125])
        pts = [f for f in space.dual_extreme_points(max_support=2)
               if np.count_nonzero(f) == 2]
        assert check_lrc_criterion(np.array(pts)).passed
