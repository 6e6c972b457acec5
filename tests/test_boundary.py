"""Decompositions, psi weights, binning, greedy nets, boundary checks."""

from __future__ import annotations

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from smoothnorm import boundary, equiv
from smoothnorm.boundary import (
    Decomposition,
    _greedy_indices,
    _psi_bins,
    _psi_value,
    build_net,
    check_boundary,
    check_lrc_criterion,
    epsilon_n,
    net_property_report,
)
from smoothnorm.errors import ConstructionError, NumericError, ParameterError
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
        for f in d.pieces[0]:
            assert d.psi_of(*d.locate(f)) == 1.0625

    def test_closure_enlarges_weight(self):
        # member (0, 0) is declared to lie in the closure of piece 1 as
        # well, which adds 2^-1 to its index sum
        members0 = np.array([[1.0, 0.0], [-1.0, 0.0]])
        members1 = np.array([[0.0, 1.0], [0.0, -1.0]])
        closure = {(0, 0): {0, 1}}
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

    def test_psi_of_rejects_non_member(self):
        """A negative j used to read another member's weight, and an
        index past the end raised numpy's IndexError."""
        eye = np.eye(3)
        d = Decomposition(sup_space(3), [np.vstack([eye[0], -eye[0]]),
                                         np.vstack([eye[1:], -eye[1:]])],
                          0.1, closure={(1, 3): {1, 0}})
        assert d.psi_of(1, 3) == _psi_value(0.1, {0, 1})
        for n, j in [(1, -1), (0, -2), (0, 2), (1, 4), (2, 0), (-1, 0)]:
            with pytest.raises(ParameterError,
                               match=rf"\({n}, {j}\) is not a member"):
                d.psi_of(n, j)

    @pytest.mark.parametrize("n, j, what", [
        (0.5, 0, "piece must be an integer, got 0.5"),
        (1, 1.0, "member must be an integer, got 1.0"),
        (True, 1, "piece must be an integer, got True"),
        (0, np.float64(1.0), "member must be an integer, got"),
    ])
    def test_psi_of_refuses_non_integers(self, n, j, what):
        """(0.5, 0) raised numpy's TypeError, (1, 1.0) its IndexError,
        and (True, 1) read member 1 of piece 1."""
        eye = np.eye(3)
        d = Decomposition(sup_space(3), [np.vstack([eye[0], -eye[0]]),
                                         np.vstack([eye[1:], -eye[1:]])],
                          0.1)
        with pytest.raises(ParameterError, match=re.escape(what)):
            d.psi_of(n, j)
        assert d.psi_of(np.int64(1), np.int32(1)) == d.psi[3]

    def test_locate_by_value_identity(self):
        d = sup2_decomposition()
        assert d.locate(np.array([0.0, -1.0])) == (0, 3)

    @pytest.mark.parametrize("f, shape", [
        ([[1.0, 0.0], [9.0, 9.0]], "(2, 2)"), (np.zeros((0, 2)), "(0, 2)"),
        ([[0.0, -1.0]], "(1, 2)"), ([1.0, 0.0, 0.0], "(3,)"),
        (1.0, "()")])
    def test_locate_refuses_all_but_one_functional(self, f, shape):
        """Two rows used to locate the first ((0, 0) for a member and a
        stranger), and no row raised a raw IndexError."""
        d = sup2_decomposition()
        with pytest.raises(ParameterError, match=re.escape(
                f"expected vector of shape (2,), got {shape}")):
            d.locate(f)


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
        # the first offender is named: piece 1's second row is piece 0's
        # second up to a signed zero; piece 2 repeats piece 0's first row
        p0 = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        p1 = np.array([[0.0, 0.0, 1.0], [-0.0, 1.0, 0.0]])
        p2 = np.array([[1.0, 0.0, 0.0]])
        with pytest.raises(ConstructionError,
                           match=r"^functional appears in pieces 0 and 1; "
                                 r"pieces must be disjoint$"):
            Decomposition(sup_space(3), [p0, p1, p2], 0.1)

    def test_pieces_checked_in_order(self):
        # a piece's dual-ball check comes before its disjointness check,
        # and both come before any later piece's checks
        a = np.array([[1.0, 0.0]])
        big = np.array([[0.0, 1.0], [0.9, 0.9]])
        with pytest.raises(ConstructionError, match="dual norm"):
            Decomposition(sup_space(2), [a, big, a.copy()], 0.1)
        with pytest.raises(ConstructionError, match="pieces 0 and 1"):
            Decomposition(sup_space(2), [a, a.copy(), big], 0.1)
        with pytest.raises(ConstructionError, match="dual norm"):
            Decomposition(sup_space(2), [a, np.vstack([a, big]), a], 0.1)

    def test_first_shared_member_named(self):
        # piece 2 repeats a member of piece 0 and, earlier in its own
        # order, one of piece 1: the earlier member is named
        a, b, c = np.eye(3)
        with pytest.raises(ConstructionError, match="pieces 1 and 2"):
            Decomposition(sup_space(3), [np.vstack([a, c]), b[None],
                                         np.vstack([b, a])], 0.1)

    def test_overflow_checked_in_piece_order(self):
        # a dual norm that overflows is raised by its own piece's call,
        # naming its row there, after every earlier piece's checks
        a = np.array([[1.0, 0.0]])
        huge = np.array([[0.5, 0.5], [1e308, 1e308]])
        with pytest.raises(ConstructionError, match="pieces 0 and 1"):
            Decomposition(sup_space(2), [a, a.copy(), huge], 0.1)
        with pytest.raises(NumericError,
                           match=r"^dual norm: row 1 overflows the float "
                                 r"range$"):
            Decomposition(sup_space(2), [a, huge, a.copy()], 0.1)
        with pytest.raises(ConstructionError, match="dual norm 1.8"):
            Decomposition(sup_space(2), [np.array([[0.9, 0.9]]), huge], 0.1)

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

    @pytest.mark.parametrize("space", [
        sup_space(3), euclidean_space(3), lorentz_space([1.0, 0.5, 0.25]),
        lorentz_predual_space([1.0, 0.5, 0.25]),
        lap_space([[0], [1, 2]], [1.0, 2.0], dim=3)], ids=lambda sp: sp.kind)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_member_refused(self, space, bad):
        """A surrogate dual metric (lap) used to take a NaN or inf member,
        and build_net built a net out of it; the exact kinds refused one
        only through dual_norm_rows, naming no piece."""
        piece = np.array([[0.0, 0.5, 0.0], [0.0, 0.0, 0.5]])
        piece[1, 0] = bad
        with pytest.raises(ParameterError,
                           match=r"^piece 1 member 1 has a NaN or infinite "
                                 r"coordinate$"):
            Decomposition(space, [np.eye(3)[:1], piece], 0.1)

    def test_surrogate_dual_skips_ball_check(self):
        space = lap_space([[0, 1], [2]], [1.0, 2.0], 3)
        big = np.array([[2.0, 2.0, 2.0]])
        d = Decomposition(space, [big], 0.1)
        assert not d.dual_ball_checked

    def test_closure_must_contain_own_piece(self):
        with pytest.raises(ParameterError, match="own piece 0"):
            Decomposition(sup_space(2), [np.eye(2)], 0.1,
                          closure={(0, 0): {1}})

    @pytest.mark.parametrize("closure, message", [
        ({(0.9, 0): {0}}, "closure piece must be an integer, got 0.9"),
        ({(0, "1"): {0}}, "closure member must be an integer, got '1'"),
        ({(0, 1): [0, 0.2]}, "closure set entry must be an integer, "
                             "got 0.2"),
        ({(0, 1): [0, True]}, "closure set entry must be an integer, "
                              "got True"),
    ], ids=["piece", "member", "set_entry", "bool_set_entry"])
    def test_closure_entry_non_integer_rejected(self, closure, message):
        # each was truncated: (0.9, "1") -> (0, 1), [True, 0.2] -> {1, 0}
        with pytest.raises(ParameterError, match=f"^{message}$"):
            Decomposition(sup_space(2), [np.eye(2)], 0.1, closure=closure)

    def test_closure_entry_out_of_range_rejected(self):
        members = np.eye(2)
        with pytest.raises(ParameterError):
            Decomposition(sup_space(2), [members], 0.1,
                          closure={(0, 5): {0}})
        with pytest.raises(ParameterError):
            Decomposition(sup_space(2), [members], 0.1,
                          closure={(0, 0): {0, 9}})
        with pytest.raises(ParameterError, match=r"\(0, -1\) is not"):
            Decomposition(sup_space(2), [members], 0.1,
                          closure={(0, -1): {0}})
        with pytest.raises(ParameterError, match="negative index"):
            Decomposition(sup_space(2), [members], 0.1,
                          closure={(0, 0): {0, -1}})

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            Decomposition(sup_space(3), [np.eye(2)], 0.1)

    @pytest.mark.parametrize("eps, depth", [(0.1, 22), (0.5, 23),
                                            (0.9, 24)])
    def test_float_depth_refused_naming_the_piece(self, eps, depth):
        # from this piece on theta = psi - eps_n rounds to psi, and the
        # bump's two thresholds 1/psi and 1/theta coincide
        def per_direction(dim):
            eye = np.eye(dim)
            return [np.vstack([e, -e]) for e in eye]

        Decomposition(sup_space(depth), per_direction(depth), eps)
        psi = _psi_value(eps, {depth})
        with pytest.raises(ConstructionError) as info:
            Decomposition(sup_space(depth + 1), per_direction(depth + 1),
                          eps)
        message = str(info.value)
        assert f"piece {depth} " in message
        assert str(epsilon_n(eps, depth)) in message
        assert str(float(np.spacing(psi))) in message


class TestPsiBinning:
    """_psi_bins gives each psi its half-open bin of width eps_n, bin k
    covering [1 + k*eps_n, 1 + (k+1)*eps_n); build_net keeps it as
    NetB.bin_id."""

    def test_frozen_example(self):
        bins = _psi_bins(np.array([1.1, 1.3, 1.35, 1.6]), 0.25)
        assert bins.tolist() == [0.0, 1.0, 1.0, 2.0]

    def test_bin_diameter(self):
        rng = np.random.default_rng(3)
        psis = 1.0 + rng.uniform(0.0, 0.1, size=400)
        bins = _psi_bins(psis, 0.007)
        for k in np.unique(bins):
            vals = psis[bins == k]
            assert vals.max() - vals.min() <= 0.007

    def test_net_bins_by_piece_scale(self):
        """Closure sets spread one piece's psi over several bins; the
        net's bin_id is each point's bin at its piece's eps_n, and every
        (piece, bin) group of net points is narrower than that eps_n."""
        rng = np.random.default_rng(4)
        eye = np.eye(3)
        pieces = [rng.dirichlet(np.ones(3), size=40)
                  * rng.choice([-1.0, 1.0], size=(40, 3))]
        pieces += [np.vstack([e, -e]) for e in eye]
        closure = {(0, j): {0} | {n for n in (1, 2, 3) if rng.random() < 0.5}
                   for j in range(40)}
        d = Decomposition(sup_space(3), pieces, 0.3, closure=closure)
        net = build_net(d)
        scale = np.array([epsilon_n(0.3, n) for n in range(4)])[net.piece]
        assert np.array_equal(net.bin_id, _psi_bins(net.psi, scale))
        groups = set(zip(net.piece.tolist(), net.bin_id.tolist()))
        assert len(groups) > 6
        for n, k in groups:
            vals = net.psi[(net.piece == n) & (net.bin_id == k)]
            assert vals.max() - vals.min() < epsilon_n(0.3, n)

    def test_matches_math_floor_loop(self):
        """The vectorised bins are the per-member math.floor loop's."""
        rng = np.random.default_rng(9)
        for eps_n in (0.25, 0.01, 1e-3 / 3.0, 7.3e-7):
            psis = 1.0 + eps_n * rng.integers(0, 6, size=300) * rng.choice(
                [1.0, 1.0 - 2 ** -52, 1.0 + 2 ** -52, 0.5], size=300)
            want = [math.floor((v - 1.0) / eps_n) for v in psis.tolist()]
            assert _psi_bins(psis, eps_n).tolist() == want


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

    def test_same_net_on_clustered_rows(self):
        """300 rows in 30 tight clusters: most rows find a home."""
        rng = np.random.default_rng(5)
        centres = rng.uniform(-1, 1, size=(30, 3))
        rows = centres[rng.integers(0, 30, size=300)] + rng.uniform(
            -0.02, 0.02, size=(300, 3))
        space = lorentz_predual_space([1.0, 0.5, 0.25])
        want = greedy_oracle(rows, 0.05,
                             lambda f, g: space.dual_norm(f - g))
        assert _greedy_indices(rows, 0.05, space.dual_norm_rows) == want

    def test_same_net_on_separated_grid(self):
        """A grid spaced 1.5 separation apart keeps every row, and the
        l-infinity pass leaves the metric nothing to decide."""
        sep = 0.05
        axis = 1.5 * sep * np.arange(-2, 3)
        rows = np.array(list(itertools.product(axis, repeat=3)))
        space = lorentz_predual_space([1.0, 0.5, 0.25])
        want = greedy_oracle(rows, sep, lambda f, g: space.dual_norm(f - g))
        assert want == (list(range(125)), list(range(125)))
        calls = []

        def metric_rows(D):
            calls.append(len(D))
            return space.dual_norm_rows(D)

        assert _greedy_indices(rows, sep, metric_rows) == want
        assert calls == []


def pairwise_net(d):
    """The plain O(m^2) net of a decomposition: per piece, per psi-bin
    (math.floor per member), each member against every kept member in
    kept order, one dual_norm call per pair.  Returns the NetB fields."""
    rows, bin_ids, home = [], [], np.full(len(d.members), -1)
    for n in range(len(d.pieces)):
        sep = epsilon_n(d.epsilon, n)
        bins = {}
        for i in np.flatnonzero(d.piece == n).tolist():
            k = math.floor((float(d.psi[i]) - 1.0) / sep)
            bins.setdefault(k, []).append(i)
        for k in sorted(bins):
            at = bins[k]
            kept, assign = greedy_oracle(
                d.members[at], sep, lambda f, g: d.space.dual_norm(f - g))
            home[at] = np.add(assign, len(rows))
            rows += [at[j] for j in kept]
            bin_ids += [k] * len(kept)
    scales = np.array([epsilon_n(d.epsilon, n)
                       for n in range(len(d.pieces))])
    return dict(matrix=d.members[rows], psi=d.psi[rows],
                theta=d.psi[rows] - scales[d.piece[rows]],
                piece=d.piece[rows], bin_id=np.array(bin_ids, dtype=int),
                home=home)


# ways to move one coordinate of a grid row k * sep: not at all, one ulp
# either side, or by a fraction of sep (so the greedy net really thins)
SIEVE_SHIFTS = {
    "none": lambda v, sep: v,
    "ulp_up": lambda v, sep: math.nextafter(v, math.inf),
    "ulp_down": lambda v, sep: math.nextafter(v, -math.inf),
    "quarter": lambda v, sep: v + 0.25 * sep,
    "minus_half": lambda v, sep: v - 0.5 * sep,
    "almost_sep": lambda v, sep: v + 0.999 * sep,
    "sep": lambda v, sep: v + sep,
}


@st.composite
def sieve_decompositions(draw):
    """Decompositions of 1 to 3 pieces whose members sit on the grid of
    their piece's eps_n (negative coordinates included), one coordinate
    moved by an ulp or a fraction of eps_n, repeated and clustered; some
    members get a closure entry, so pieces hold more than one psi-bin."""
    space = draw(st.sampled_from(GREEDY_SPACES))
    eps = draw(st.sampled_from([0.96, 0.3]))
    npieces = draw(st.integers(1, 3))
    pieces, closure, seen = [], {}, set()
    for n in range(npieces):
        sep = epsilon_n(eps, n)
        centres = draw(st.lists(
            st.lists(st.integers(-6, 6), min_size=3, max_size=3),
            min_size=1, max_size=4))
        picks = draw(st.lists(
            st.tuples(st.integers(0, len(centres) - 1),
                      st.sampled_from(sorted(SIEVE_SHIFTS)),
                      st.integers(0, 2), st.booleans()),
            min_size=1, max_size=25))
        rows, keys = [], set()
        for c, shift, axis, wide in picks:
            row = np.asarray(centres[c], dtype=float) * sep
            row[axis] = SIEVE_SHIFTS[shift](float(row[axis]), sep)
            key = (row + 0.0).tobytes()
            if key in seen:
                continue      # pieces must be disjoint
            keys.add(key)
            if wide and n + 1 < npieces:
                closure[(n, len(rows))] = {n, npieces - 1}
            rows.append(row)
        assume(rows)
        seen |= keys
        pieces.append(np.array(rows))
    return Decomposition(space, pieces, eps, closure=closure)


class TestSieve:
    @settings(max_examples=200, deadline=None)
    @given(d=sieve_decompositions())
    def test_same_net_as_pairwise_greedy(self, d):
        net = build_net(d)
        want = pairwise_net(d)
        for name, array in want.items():
            got = getattr(net, name)
            np.testing.assert_array_equal(got, array, err_msg=name)
            assert got.dtype == array.dtype, name
            assert got.tobytes() == array.tobytes(), name

    def test_non_finite_members_never_split(self):
        """A non-finite key splits no group: the infinite members stay
        with the finite ones, though their keys jump by more than 2.
        Decomposition refuses a non-finite member, so build_net meets a
        non-finite key only where x / eps_n overflows a finite member."""
        space = lap_space([[0], [1, 2]], [1.0, 2.0], dim=3)
        members = np.array([[0.0, 0.0, 0.0], [0.001, 0.0, 0.0],
                            [np.inf, 0.0, 0.0], [np.nan, 0.0, 0.0],
                            [-np.inf, 0.0, 0.0]])
        sep = np.full(len(members), epsilon_n(0.96, 0))
        isolated = boundary._isolated(members, sep, np.zeros(5, dtype=int))
        assert not isolated.any()
        huge = np.array([[0.0, 0.0, 0.0], [0.001, 0.0, 0.0],
                         [1e308, 0.0, 0.0], [1.5e308, 0.0, 0.0],
                         [1.7e308, 0.0, 0.0]])
        with np.errstate(over="ignore"):
            assert np.isinf(huge[2:, 0] / sep[2:]).all()
        d = Decomposition(space, [huge], 0.96)
        assert not boundary._isolated(huge, sep,
                                      np.zeros(5, dtype=int)).any()
        # no l-infinity distance between the huge members is below eps_n
        net = build_net(d)
        np.testing.assert_array_equal(net.home, [0, 0, 1, 2, 3])

    def test_predual7_skips_the_greedy_loop(self, monkeypatch):
        """On predual7 (pieces: the dual extreme points of each support
        size) the sieve isolates every member, so none reaches the
        greedy loop and every member is its own net point."""
        space = lorentz_predual_space(
            [1.0 / math.sqrt(k + 1) for k in range(7)])
        points = space.dual_extreme_points()
        support = np.count_nonzero(points, axis=1)
        d = Decomposition(space, [points[support == n] for n in range(1, 8)],
                          0.1)
        seen = []
        greedy = boundary._greedy_indices

        def counted(members, *args):
            seen.append(len(members))
            return greedy(members, *args)

        monkeypatch.setattr(boundary, "_greedy_indices", counted)
        net = build_net(d)
        assert seen == []
        assert len(net) == len(d.members) == 2186
        np.testing.assert_array_equal(net.matrix[net.home], d.members)


class TestMissing:
    def test_exact_and_near_rows_found(self):
        d = sup2_decomposition()
        rows = np.array([[-1.0, 0.0], [0.0, 1.0 - 1e-10], [-0.0, -1.0]])
        assert d.missing(rows) is None

    def test_first_missing_row_named(self):
        d = Decomposition(sup_space(2), [np.array([[1.0, 0.0]])], 0.1)
        rows = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        assert d.missing(rows) == 1
        # beyond the tolerance in one coordinate is a miss
        assert d.missing(np.array([[1.0, 2e-9]])) == 0
        assert d.missing(np.array([[1.0, 2e-9]]), tol=1e-8) is None

    def test_blocks_agree(self, monkeypatch):
        rng = np.random.default_rng(4)
        members = rng.uniform(-0.3, 0.3, size=(50, 3))
        d = Decomposition(sup_space(3), [members], 0.1)
        rows = members[::-1] + np.where(np.arange(50) == 37, 1e-3, 0.0)[:, None]
        assert d.missing(rows) == 37
        monkeypatch.setattr(boundary, "BLOCK_ELEMS", 10)
        assert d.missing(rows) == 37

    @pytest.mark.parametrize("rows, shape", [
        (np.ones((2, 3)), "(2, 3)"), (np.ones((1, 1)), "(1, 1)"),
        ([1.0, 0.0], "(2,)"), (np.ones((1, 1, 2)), "(1, 1, 2)")])
    def test_rows_of_another_shape_refused(self, rows, shape):
        """Rows of another width used to raise numpy's broadcast
        ValueError; (0, dim) rows miss nothing."""
        d = sup2_decomposition()
        with pytest.raises(ParameterError, match=re.escape(
                f"expected rows of shape (k, 2), got {shape}")):
            d.missing(rows)
        assert d.missing(np.zeros((0, 2))) is None


def bytes_keys(rows):
    """The identity keys RowIndex replaced: each row's bytes, signed
    zeros folded, from one tobytes of the rows."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    folded = (rows + 0.0).tobytes()
    width = rows.itemsize * rows.shape[1]
    return [folded[at:at + width] for at in range(0, len(folded), width)]


def oracle_locations(pieces):
    """{key: first (piece, member)} by the per-member key loop RowIndex
    replaced, and its disjointness error (None when disjoint)."""
    seen = {}
    keys = iter(bytes_keys(np.vstack(pieces)))
    for n, p in enumerate(pieces):
        for j in range(len(p)):
            first = seen.setdefault(next(keys), (n, j))
            if first[0] != n:
                return seen, (f"functional appears in pieces {first[0]} "
                              f"and {n}; pieces must be disjoint")
    return seen, None


def oracle_missing(members, rows, tol):
    """Decomposition.missing by key lookup and a per-row distance."""
    found = set(bytes_keys(members))
    for j, (key, row) in enumerate(zip(bytes_keys(rows), rows)):
        if key not in found and not np.any(
                np.max(np.abs(members - row), axis=1) <= tol):
            return j
    return None


def oracle_unique(rows):
    """First occurrences of the rows, in order, by key lookup."""
    first = {}
    for j, key in enumerate(bytes_keys(rows)):
        first.setdefault(key, j)
    return rows[list(first.values())]


def flip_zeros(rows):
    """The rows with the sign of every zero entry flipped."""
    return np.where(rows == 0.0, -rows, rows)


def member_sets(seed):
    """Random pieces of rows from {0, -0, 1/4, -1/4}^4, all in the
    sup_finite(4) dual ball.  Odd seeds draw each piece on its own, so
    rows repeat inside and across pieces; even seeds split distinct rows
    into disjoint pieces, then repeat some rows inside their own piece,
    about half with their zeros' signs flipped."""
    rng = np.random.default_rng(seed)
    values = np.array([0.0, -0.0, 0.25, -0.25])
    k = int(rng.integers(1, 5))
    if seed % 2:
        return [values[rng.integers(0, 4, (int(rng.integers(0, 12)), 4))]
                for _ in range(k)]
    rows = np.unique(values[rng.integers(0, 4, (60, 4))] + 0.0, axis=0)
    pieces = []
    for p in np.array_split(rows[rng.permutation(len(rows))], k):
        extra = p[rng.integers(0, len(p), int(rng.integers(0, 4)))]
        extra = np.where(rng.random((len(extra), 1)) < 0.5,
                         flip_zeros(extra), extra)
        both = np.vstack([p, extra])
        pieces.append(both[rng.permutation(len(both))])
    return pieces


@pytest.fixture(params=["pairwise", "hashed", "colliding"])
def index_path(request, monkeypatch):
    """Every row set compared pair by pair, or hashed; "colliding" gives
    every row the same key, so that every identity question goes to the
    exact collision fallback."""
    monkeypatch.setattr(boundary, "_PAIRWISE_WORDS",
                        2 ** 40 if request.param == "pairwise" else 0)
    if request.param == "colliding":
        monkeypatch.setattr(boundary, "_row_hash",
                            lambda rows: np.zeros(len(rows), np.uint64))
    return request.param


class TestIdentityIndex:
    """RowIndex and its users against the bytes-key code it replaced, on
    each of its paths."""

    @pytest.mark.parametrize("seed", range(40))
    def test_decomposition_matches_bytes_keys(self, index_path, seed):
        pieces = member_sets(seed)
        seen, error = oracle_locations(pieces)
        if error is not None:
            with pytest.raises(ConstructionError,
                               match=f"^{re.escape(error)}$"):
                Decomposition(sup_space(4), pieces, 0.1)
            return
        d = Decomposition(sup_space(4), pieces, 0.1)
        for f, key in zip(d.members, bytes_keys(d.members)):
            assert d.locate(f) == seen[key]
            assert d.locate(flip_zeros(f)) == seen[key]
        rng = np.random.default_rng(seed + 1000)
        values = np.array([0.0, 0.25, -0.25])
        others = values[rng.integers(0, 3, (20, 4))]
        for f, key in zip(others, bytes_keys(others)):
            if key in seen:
                assert d.locate(f) == seen[key]
            else:
                with pytest.raises(ParameterError, match="not a member"):
                    d.locate(f)
        for tol in (1e-9, 1e-6):
            near = d.members.copy()
            near[:, 0] += rng.choice([0.5, 2.0], len(near)) * tol
            queries = np.vstack([d.members, flip_zeros(d.members), near,
                                 others])
            queries = queries[rng.permutation(len(queries))]
            for cut in range(0, len(queries) + 1, 7):
                assert d.missing(queries[:cut], tol) == oracle_missing(
                    d.members, queries[:cut], tol)
            assert d.missing(d.members[::-1], tol) is None

    @pytest.mark.parametrize("seed", range(20))
    def test_unique_rows_match_bytes_keys(self, index_path, seed):
        rows = np.vstack([np.zeros((0, 4)), *member_sets(seed)])
        rows = np.vstack([rows, flip_zeros(rows[::2])])
        assert equiv._unique_rows(rows).tobytes() == \
            oracle_unique(rows).tobytes()

    @pytest.mark.parametrize("space", [lorentz_space([1.0, 0.5, 0.25]),
                                       lap_space([[0], [1, 2]], [1.0, 2.0],
                                                 3)],
                             ids=["lorentz3", "lap3"])
    def test_chain_route_levels_match_seen_set(self, index_path, space):
        """The chain route's levels against the seen-set loop it
        replaced, on samples with repeats and sign flips."""
        S = np.random.default_rng(3).standard_normal((12, space.dim))
        S = equiv._normalize_rows(space, np.vstack([S, S[:4], -S[:4]]))
        chain = equiv._route_chain(space, S)
        seen = set()
        for level, (_, masks) in zip(chain.levels, space.top_projections(
                S, chain.level_ids)):
            F = oracle_unique(space.norming_functional_rows(
                np.where(masks, S, 0.0)))
            keys = bytes_keys(F)
            want = F[[key not in seen for key in keys]]
            seen.update(keys)
            assert level.tobytes() == want.tobytes()

    def test_chain_refuses_repeats_across_levels(self, index_path):
        a, b, c = np.eye(3)
        S = np.array([[1.0, 0.5, 0.25]])
        equiv.RelativeBoundaryChain(
            space=sup_space(3), levels=[[a, b], [c, -a]], samples=S,
            level_ids=(1, 2))
        for levels in ([[a, b], [c, a]], [[a, a]],
                       [[a, b], [flip_zeros(b)]]):
            with pytest.raises(ConstructionError, match="pairwise disjoint"):
                equiv.RelativeBoundaryChain(
                    space=sup_space(3), levels=levels, samples=S,
                    level_ids=tuple(range(1, len(levels) + 1)))

    def test_words_differing_in_sign_only_get_distinct_keys(self):
        """Summing raw words would map both sign flips of a row pair to
        one key, as only bit 63 changes."""
        rows = np.array(list(itertools.product([0.5, -0.5], repeat=6)))
        assert len(np.unique(boundary._row_hash(rows))) == len(rows)

    def test_find_takes_the_first_equal_row(self, index_path):
        rows = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, -0.0], [0.0, 1.0]])
        index = boundary.RowIndex(rows)
        assert index.first.tolist() == [0, 1, 0, 1]
        assert index.find([[0.0, 1.0], [1.0, 1.0], [-0.0, 1.0]]).tolist() \
            == [1, -1, 1]
        assert index.find(np.ones((2, 3))).tolist() == [-1, -1]
        assert boundary.RowIndex(np.zeros((0, 2))).find(rows).tolist() == \
            [-1] * 4


class TestBuildNet:
    def test_sup2_full_net(self):
        d = sup2_decomposition(eps=0.1)
        net = build_net(d)
        # all four psi values coincide and the functionals are far apart,
        # so every member survives into the net
        assert len(net) == 4
        assert net.matrix.shape == (4, 2)
        eps_0 = epsilon_n(0.1, 0)
        assert np.all(net.psi == 1.0625)
        assert np.all(net.theta == 1.0625 - eps_0)
        assert np.all(net.theta > 1.0)
        np.testing.assert_array_equal(net.home, np.arange(4))

    def test_close_pair_thins_to_one(self):
        delta = 5e-4
        members = np.array([[1.0, 0.0], [1.0 - delta, 0.0]])
        d = Decomposition(sup_space(2), [members], 0.1)
        net = build_net(d)
        assert len(net) == 1
        assert net.home[0] == 0
        assert net.home[1] == 0
        report = net_property_report(d, net)
        assert report.passed and report.checked == 2

    def test_distinct_bins_keep_close_points(self):
        # same functionals as above but a closure entry pushes the first
        # into a different psi bin, so both survive
        delta = 5e-4
        members0 = np.array([[1.0, 0.0], [1.0 - delta, 0.0]])
        members1 = np.array([[0.0, 1.0]])
        closure = {(0, 0): {0, 1}}
        d = Decomposition(sup_space(2), [members0, members1], 0.1,
                          closure=closure)
        net = build_net(d)
        assert np.count_nonzero(net.piece == 0) == 2
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
            d = Decomposition(space, pieces, 0.3, closure=closure_entries)
            net = build_net(d)
            assert net_property_report(d, net).passed
            assert np.all(net.theta > 1.0)
            assert len(net.home) == len(d.members)
            for i, f in enumerate(d.members):
                n, j = d.locate(f)
                assert d.piece[i] == n and d.psi[i] == d.psi_of(n, j)
                assert d.psi_of(n, j) == _psi_value(
                    0.3, closure_entries.get((n, j), {n}))
                assert 0 <= net.home[i] < len(net)
                assert net.piece[net.home[i]] == n
            for i, h in enumerate(net.matrix):
                n, j = d.locate(h)
                assert n == net.piece[i]
                assert net.psi[i] == d.psi_of(n, j)
                assert net.theta[i] == net.psi[i] - epsilon_n(0.3, n)

    def test_per_piece_separation_scales(self):
        members = [np.eye(2), np.array([[0.0, -1.0]])]
        d = Decomposition(sup_space(2), members, 0.5)
        net = build_net(d)
        assert list(net.piece) == [0, 0, 1]
        scales = np.array([epsilon_n(0.5, 0), epsilon_n(0.5, 1)])
        assert np.all(net.theta == net.psi - scales[net.piece])


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

    def test_empty_sample_set_refused(self):
        # zero samples used to pass with nothing checked
        with pytest.raises(ParameterError, match="empty"):
            check_boundary(sup_space(2), np.eye(2), np.zeros((0, 2)))

    def test_empty_functional_set_refused(self):
        # numpy's zero-size reduction error before
        with pytest.raises(ParameterError, match="functional set is empty"):
            check_boundary(sup_space(2), np.zeros((0, 2)), np.eye(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_functional_refused(self, bad):
        # one NaN member used to make every sample's sup NaN
        functionals = np.vstack([np.eye(2), -np.eye(2)])
        functionals[2, 1] = bad
        with pytest.raises(ParameterError, match="finite"):
            check_boundary(sup_space(2), functionals, np.eye(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_sample_refused(self, bad):
        samples = np.array([[1.0, 0.0], [bad, 1.0]])
        with pytest.raises(ParameterError, match="finite"):
            check_boundary(sup_space(2), np.eye(2), samples)

    def test_blocks_agree(self, monkeypatch):
        """Sups taken over row blocks of three samples (BLOCK_ELEMS 30 on
        10 functionals) equal the whole product's row max; every entry
        is a multiple of 1/8, so every product is exact."""
        rng = np.random.default_rng(8)
        space = sup_space(3)
        functionals = rng.integers(-8, 9, size=(10, 3)) / 8.0
        samples = rng.integers(-8, 9, size=(11, 3)) / 8.0
        samples[:, 0] = 1.0
        whole = np.max(samples @ functionals.T, axis=1)
        monkeypatch.setattr(boundary, "BLOCK_ELEMS", 30)
        report = check_boundary(space, functionals, samples, tol=1e-12)
        assert np.array_equal(report.max_values, whole)

    def test_attained_is_derived_from_max_values(self):
        report = check_boundary(sup_space(2), np.array([[1.0, 0.0]]),
                                np.array([[1.0, 0.5], [0.5, -1.0]]),
                                tol=0.25)
        np.testing.assert_array_equal(report.max_values, [1.0, 0.5])
        np.testing.assert_array_equal(report.attained, [True, False])
        assert not report.passed

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
        assert check_lrc_criterion(space.support_levels()[1]).passed
