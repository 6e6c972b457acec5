"""phi-norm construction, active sets, claim checks, smoothness probes."""

from __future__ import annotations

import hashlib
import itertools
import math
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from smoothnorm.boundary import Decomposition, build_net
from smoothnorm.cli import RunContext, _seed_int, load_config
from smoothnorm.equiv import corollary_b_pipeline
from smoothnorm.errors import ConstructionError, NumericError, ParameterError
from smoothnorm import boundary, orlicz, renorm
from smoothnorm.renorm import (
    PRUNE_TOL,
    START_ULPS,
    ActiveSet,
    PhiNormSpec,
    _kept_terms,
    _luxemburg_rows,
    _sphere_samples,
    _zstar,
    active_set,
    build_renorm,
    phi_norm,
    phi_norm_batch,
    phi_unit_pool,
    pi_coords,
    pi_coords_batch,
    smoothness_check,
    verify_claim2d,
)
from smoothnorm.scaling import feasible_scale_inf
from smoothnorm.spaces import (euclidean_space, lap_space,
                               lorentz_predual_space, sup_space)
from smoothnorm.tensor import TensorElement, injective_norm

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def sup_decomposition(dim, eps=0.1):
    members = np.vstack([np.eye(dim), -np.eye(dim)])
    return Decomposition(sup_space(dim), [members], eps)


def ladder_decomposition(dim, eps=0.1):
    """One piece per basis direction, so the psi weights decrease."""
    pieces = []
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = 1.0
        pieces.append(np.vstack([e, -e]))
    return Decomposition(sup_space(dim), pieces, eps)


@pytest.fixture(scope="module")
def sup2_spec():
    d = sup_decomposition(2)
    return build_renorm(d.space, d, None, budget=256, seed=0)


@pytest.fixture(scope="module")
def ladder3_spec():
    d = ladder_decomposition(3)
    return build_renorm(d.space, d, None, budget=256, seed=0)


@pytest.fixture(scope="module")
def euclid_factor_spec():
    d = sup_decomposition(2)
    return build_renorm(d.space, d, euclidean_space(2), budget=256, seed=0)


@pytest.fixture(scope="module")
def sup4_euclid3_spec():
    d = ladder_decomposition(4)
    return build_renorm(d.space, d, euclidean_space(3), budget=256, seed=0)


@pytest.fixture(scope="module")
def ladder3_euclid_spec():
    d = ladder_decomposition(3)
    return build_renorm(d.space, d, euclidean_space(2), budget=256, seed=0)


def predual_decomposition(dim, eps=0.1):
    """lorentz_predual with weights 1/sqrt(k + 1): piece n - 1 holds the
    2^n C(dim, n) dual extreme points of support size n, signed 1/W_n on
    the support (the benchmark's predual7 at dim 7)."""
    weights = [1.0 / math.sqrt(k + 1) for k in range(dim)]
    wsums = list(itertools.accumulate(weights))
    pieces = []
    for n in range(1, dim + 1):
        piece = []
        for combo in itertools.combinations(range(dim), n):
            for signs in itertools.product((1.0, -1.0), repeat=n):
                f = [0.0] * dim
                for i, sign in zip(combo, signs):
                    f[i] = sign / wsums[n - 1]
                piece.append(f)
        pieces.append(piece)
    return Decomposition(lorentz_predual_space(weights), pieces, eps)


@pytest.fixture(scope="module")
def predual7_spec():
    d = predual_decomposition(7)
    return build_renorm(d.space, d, None, seed=1)


class TestBuildRenorm:
    def test_sup2_net_and_weights(self, sup2_spec):
        assert len(sup2_spec.net) == 4
        net = sup2_spec.net
        np.testing.assert_array_equal(net.psi, 1.0625)
        for fn, psi, theta in zip(sup2_spec.family.functions, net.psi,
                                  net.theta):
            assert abs(fn.zero_threshold * psi - 1.0) <= 1e-12
            assert abs(fn.exceed_threshold * theta - 1.0) <= 1e-12

    def test_shared_weights_share_bumps(self, sup2_spec):
        ids = {id(fn) for fn in sup2_spec.family.functions}
        assert len(ids) == 1

    def test_one_dimensional_line(self):
        X = sup_space(1)
        d = Decomposition(X, [np.array([[1.0], [-1.0]])], 0.25)
        spec = build_renorm(X, d, None, budget=64, seed=3)
        assert len(spec.net) == 2

    def test_non_norming_pieces_rejected(self):
        X = sup_space(2)
        d = Decomposition(X, [np.array([[1.0, 0.0]])], 0.1)
        with pytest.raises(ConstructionError):
            build_renorm(X, d, None, budget=64, seed=0)

    def test_zero_budget_refused(self):
        # with no sample to check, one functional of euclidean(3) used to
        # build a one-point net
        X = euclidean_space(3)
        d = Decomposition(X, [np.array([[1.0, 0.0, 0.0]])], 0.1)
        with pytest.raises(ParameterError, match="empty"):
            build_renorm(X, d, None, budget=0, seed=0)

    def test_missing_extreme_point_rejected(self):
        """Without one pair +-f of support 7, predual7's members still
        norm 512 gaussian unit vectors from seed 1, yet about 1e-4 of
        directions are no longer normed; the exact check refuses the
        decomposition and names f."""
        d = predual_decomposition(7)
        f = d.pieces[6][0]
        pieces = [p[~(np.all(p == f, axis=1) | np.all(p == -f, axis=1))]
                  for p in d.pieces]
        assert sum(map(len, pieces)) == len(d.members) - 2
        short = Decomposition(d.space, pieces, d.epsilon)
        with pytest.raises(ConstructionError,
                           match=r"dual extreme point \[0\.2488"):
            build_renorm(short.space, short, None, seed=1)

    def test_enumerable_kinds_are_not_sampled(self, monkeypatch):
        """demo_sup3, sup4 x euclidean(3) and predual7 are checked on
        their dual extreme points alone, and keep their pinned nets."""
        def refuse(*args, **kwargs):
            raise AssertionError("sampled boundary check ran")

        monkeypatch.setattr(renorm, "_sphere_samples", refuse)
        monkeypatch.setattr(renorm, "check_boundary", refuse)
        cfg = load_config(CONFIGS / "demo_sup3.cfg")
        demo = build_renorm(cfg.space, cfg.decomposition, cfg.factor,
                            budget=cfg.budgets["build"], seed=cfg.seed)
        assert net_digests(demo.net) == DEMO_SUP3_NET
        d = ladder_decomposition(4)
        sup4 = build_renorm(d.space, d, euclidean_space(3), budget=256,
                            seed=0)
        assert net_digests(sup4.net) == SUP4_EUCLID3_NET
        d = predual_decomposition(7)
        assert net_digests(build_renorm(d.space, d, None, seed=1).net) == (
            PREDUAL7_NET)

    @pytest.mark.parametrize("space", [
        euclidean_space(3), lap_space([[0], [1, 2]], [1.0, 2.0], 3)],
        ids=["euclidean", "lap"])
    def test_other_kinds_are_sampled(self, monkeypatch, space):
        """Without an enumerable dual ball, the members are checked on
        the given unit vectors, or on `budget` drawn ones."""
        calls = []
        checked = renorm.check_boundary

        def counting(X, members, samples, tol):
            calls.append(len(samples))
            return checked(X, members, samples, tol=tol)

        monkeypatch.setattr(renorm, "check_boundary", counting)
        eye = np.eye(3)
        d = Decomposition(space, [np.vstack([eye, -eye])], 0.1)
        build_renorm(space, d, None, boundary_samples=eye)
        # the signed units norm the units, but not the sphere
        with pytest.raises(ConstructionError, match="sample sphere"):
            build_renorm(space, d, None, budget=64, seed=0)
        assert calls == [3, 64]

    def test_chain_route_is_sampled(self, monkeypatch):
        """The chain route's boundary_sup base is checked on the
        distinct samples, once, and draws none of its own."""
        calls = []
        checked = renorm.check_boundary

        def counting(X, members, samples, tol):
            calls.append((X.kind, len(samples)))
            return checked(X, members, samples, tol=tol)

        monkeypatch.setattr(renorm, "check_boundary", counting)
        samples = np.random.default_rng(1).standard_normal((64, 3))
        result = corollary_b_pipeline(
            lap_space([[0], [1, 2]], [1.0, 2.0], 3), samples, 0.1, seed=0)
        assert result.route == "chain"
        assert calls == [("boundary_sup", 64)]

    def test_extreme_point_tolerance_is_over_dim(self):
        """A member 2e-9 / 3 off e_0 in sup_finite(3) can lose up to
        2e-9 of sup f(x) at a unit x, so the default boundary_tol 1e-9
        refuses it; 0.5e-9 / 3 off stays within it."""
        X = sup_space(3)
        for shift, refused in ((2e-9 / 3, True), (0.5e-9 / 3, False)):
            members = np.vstack([np.eye(3), -np.eye(3)])
            members[0, 0] -= shift
            d = Decomposition(X, [members], 0.1)
            if refused:
                with pytest.raises(ConstructionError,
                                   match=r"dual extreme point "
                                         r"\[1\.0, 0\.0, 0\.0\]"):
                    build_renorm(X, d, None)
            else:
                assert len(build_renorm(X, d, None).net) == 6

    def test_samples_refused_for_enumerable_kinds(self):
        d = sup_decomposition(3)
        with pytest.raises(ParameterError, match="boundary_samples"):
            build_renorm(d.space, d, None, boundary_samples=np.eye(3))

    def test_factor_space_validated(self):
        d = sup_decomposition(2)
        with pytest.raises(ParameterError):
            build_renorm(d.space, d, sup_space(2))

    def test_sphere_samples_match_row_loop(self):
        """One gaussian block continues the same stream as one draw per
        row, so the samples are the row-by-row loop's, bit for bit."""
        for X in (sup_space(3), euclidean_space(4)):
            rng = np.random.default_rng(5)
            loop = []
            while len(loop) < 40:
                x = rng.standard_normal(X.dim)
                if X.norm(x) > 1e-12:
                    loop.append(x / X.norm(x))
            np.testing.assert_array_equal(_sphere_samples(X, 40, 5), loop)


# sha256 of each NetB array's bytes (home: one int64 per member)
DEMO_SUP3_NET = dict(
    matrix="c80ad3cc7d6948a3b87d101688ec56cd2a9f88fee6949b2a00631316af21292d",
    psi="53c99eb22add927b9e63a4f98c964a69680a8549cfa206a967428a040757ef19",
    theta="457104a9d8707abaaf64dd366c493b12be0bb809e2154f785f225efb73cba2f5",
    piece="b8d04b8e4644977df092c27fedde0c770d5fb5f0ef931471306a21f8d18c3aea",
    bin_id="9ce85d57dfa86b86d5c3138334cf7766dc21bf30b70acf697a5fffcd710c35f7",
    home="f190072c5052f4f440d4a607c25f5bced487c420806c9aab4ca5b0653e72da61",
)
PREDUAL7_NET = dict(
    matrix="0ca04f23a817056c2327759aa681904ca55cc206a26a70bdfe3c96c255a042e5",
    psi="4d9eba0c9f77ede113b28546acbe49f3c6ee8654e88a5d62db9f0b1a2134c9c7",
    theta="914efa474e6003d0aab47a8f51b366d771a12031f00cbd9db907b5d9dd8bbe8f",
    piece="bc64b8bfac68cdc92aa4610ef86013319a979c37f07712168a7216da02e756b4",
    bin_id="807e18e8ce2f896bccd3a1a649547ed0e0b0542ba9cc56a6d623c6057591e153",
    home="7cd27ccf07b815a466b7e422f0e884e2b68755784818877099a2dcf49a1d2a04",
)

# ladder_decomposition(4) with a euclidean(3) factor: the benchmark's
# sup4 x euclidean(3) net, 8 points
SUP4_EUCLID3_NET = dict(
    matrix="271a80bfb10b85a5e314ea9ebf784d88f5b94ae07fa57dbd958796ebf635b13e",
    psi="544e7a967e4b1697a475231d6ef9bf73be2a059176a2f41fd1fc5fd892b94b6e",
    theta="08561fd5f9549b76c683578d07caa0c8d620d73f561424117b37a8a59af0595f",
    piece="180941be1558d74985419655da4d740bfd03c74d183912260494a08af4cf9bee",
    bin_id="319a1400e1277a1ff30ec4b93bc366a44d1aa8aa6febc41968fbdf8830219bff",
    home="fece8d601cd4c9020e24f9e4a47feedefb2bceff5e9798d8056aea8700052eaa",
)

# predual_decomposition(9): 19,682 members, every one a net point.  Pinned
# from the net the plain pairwise greedy loop built, before the sieve.
PREDUAL9_NET = dict(
    matrix="710268885eb65c2915a8b7a74e768b6a29479b9fe61514f13ef3c15591086b60",
    psi="03cbba44e066503eb391c6eea6d978bd9d3b9ed23daf1d4a248f2cb61d4e7bca",
    theta="d0ff2f0aa6115601245a217911d7469a95288b6de7301c60f0323d34f77dfff5",
    piece="fda53ee5f59de9e41f8636dce82198276fe41e84509fd61979d063307cc0cea7",
    bin_id="3f6c322abe869ea7fe6689c67dee2215566a8feccdb692e49dc354cb3c271a44",
    home="17d6161758e8082d5078279ace291c2632fe51f467a0bc6584434834581af618",
)

# configs/lap13_equiv.cfg, equiv suite: the chain route's boundary_sup
# net, 762 points from 792 members.  Pinned from the net the greedy loop
# with l-infinity row blocks built.
LAP13_CHAIN_NET = dict(
    matrix="e1367e5aa4c9d27e5f7d87e81c8e673c6b005ac34fcb137d6df78fae35cd6832",
    psi="4eeadac2c1b4639a31b4e220fc158928aa8a8a38e5fead4d06e265d6c716e1d0",
    theta="973f01d6231f9b11451b750fa3606bdc6c385c09321f9dd3bb9f8acd9bef7261",
    piece="709898ea9388025f09cac1ee52e89b35ebb017ab4a590f740cec4aef9192cc5e",
    bin_id="b6ec87206310d20b7d25f17eb854169576e1af5968c7fb25ce4385fce3c80787",
    home="87e7ee860f7c7333dadc34a82dadd27b1aed7b3bc5a3b34b47eb4477aa6c37ac",
)


def net_digests(net):
    return {name: hashlib.sha256(np.ascontiguousarray(
                getattr(net, name)).tobytes()).hexdigest()
            for name in DEMO_SUP3_NET}


class TestPinnedNets:
    """The nets behind the pinned report digests, bit for bit."""

    def test_demo_sup3(self):
        net = build_net(load_config(CONFIGS / "demo_sup3.cfg").decomposition)
        assert net.home.dtype == np.int64
        assert net_digests(net) == DEMO_SUP3_NET

    def test_predual7(self, predual7_spec):
        assert predual7_spec.net.home.dtype == np.int64
        assert net_digests(predual7_spec.net) == PREDUAL7_NET

    def test_predual9_growth(self):
        """The 19,682-member net, as the pairwise greedy loop built it
        before members could bypass it."""
        net = build_net(predual_decomposition(9))
        assert len(net) == 19682
        assert net_digests(net) == PREDUAL9_NET

    def test_lap13_chain_route(self, tmp_path, monkeypatch):
        """The chain-route net of the lap13 equiv suite, from that
        suite's inputs: the one shipped net whose members reach the
        greedy loop (58 of 792, in four bins)."""
        cfg = load_config(CONFIGS / "lap13_equiv.cfg")
        ctx = RunContext(cfg, cfg.seed, 1, tmp_path)
        ss_samples, ss_pipeline = ctx.child("equiv").spawn(2)
        samples = np.random.default_rng(ss_samples).standard_normal(
            (cfg.budgets["equiv"], cfg.space.dim))
        seen = []
        greedy = boundary._greedy_indices

        def counted(members, *args):
            seen.append(len(members))
            return greedy(members, *args)

        monkeypatch.setattr(boundary, "_greedy_indices", counted)
        result = corollary_b_pipeline(
            cfg.space, samples, cfg.epsilon, Y=cfg.factor,
            seed=_seed_int(ss_pipeline),
            identity_tol=ctx.tol["equiv_identity"])
        assert result.route == "chain"
        assert seen == [20, 22, 4, 12]
        net = result.phi_spec.net
        assert len(net) == 762
        assert net_digests(net) == LAP13_CHAIN_NET


class TestPiCoords:
    def test_scalar_factor_values(self, sup2_spec):
        coords = pi_coords(sup2_spec, np.array([1.0, 0.0]))
        np.testing.assert_array_equal(coords, [1.0, 0.0, 1.0, 0.0])

    def test_euclidean_factor_identity(self, euclid_factor_spec):
        coords = pi_coords(euclid_factor_spec, np.eye(2))
        np.testing.assert_allclose(coords, 1.0, rtol=1e-15)

    def test_coords_bounded_by_norm(self, sup2_spec):
        rng = np.random.default_rng(2)
        for _ in range(100):
            u = rng.standard_normal(2)
            assert np.all(pi_coords(sup2_spec, u)
                          <= sup_space(2).norm(u) + 1e-12)

    def test_batch_matches_scalar(self, sup2_spec):
        rng = np.random.default_rng(4)
        U = rng.standard_normal((40, 2))
        rows = pi_coords_batch(sup2_spec, U)
        for u, row in zip(U, rows):
            np.testing.assert_array_equal(row, pi_coords(sup2_spec, u))

    def test_shape_errors(self, sup2_spec, euclid_factor_spec):
        with pytest.raises(ParameterError):
            pi_coords(sup2_spec, np.ones(3))
        with pytest.raises(ParameterError):
            pi_coords(euclid_factor_spec, np.ones((3, 2)))
        with pytest.raises(ParameterError):
            pi_coords_batch(sup2_spec, np.ones((4, 3)))


class TestPhiNorm:
    def test_unit_vector_value(self, sup2_spec):
        rho = phi_norm(sup2_spec, np.array([1.0, 0.0]))
        assert 1.0 < rho <= 1.1

    def test_bisection_against_brentq(self, sup2_spec):
        coords = pi_coords(sup2_spec, np.array([1.0, 0.0]))
        rho = phi_norm(sup2_spec, np.array([1.0, 0.0]))
        root = brentq(lambda r: sup2_spec.family.modular(coords / r) - 1.0,
                      1.0001, 1.11, xtol=1e-14)
        np.testing.assert_allclose(rho, root, rtol=1e-9)

    def test_zero_vector(self, sup2_spec):
        assert phi_norm(sup2_spec, np.zeros(2)) == 0.0

    def test_diagonal_dominates_vertex(self, sup2_spec):
        assert (phi_norm(sup2_spec, np.array([1.0, 1.0]))
                >= phi_norm(sup2_spec, np.array([1.0, 0.0])))

    @pytest.mark.parametrize("fixture", ["sup2_spec", "ladder3_spec"])
    def test_epsilon_approximation(self, fixture, request):
        spec = request.getfixturevalue(fixture)
        rng = np.random.default_rng(11)
        min_gap = np.inf
        for _ in range(1000):
            u = rng.standard_normal(spec.X.dim) * 10.0 ** rng.integers(-3, 4)
            base = spec.X.norm(u)
            rho = phi_norm(spec, u)
            assert rho <= (1.0 + spec.epsilon) * base * (1.0 + 1e-9)
            assert rho > base
            min_gap = min(min_gap, (rho - base) / base)
        assert min_gap > 0.0

    def test_homogeneity_and_triangle(self, sup2_spec):
        rng = np.random.default_rng(13)
        for _ in range(200):
            u, v = rng.standard_normal((2, 2))
            c = float(rng.uniform(-5.0, 5.0))
            nu = phi_norm(sup2_spec, u)
            np.testing.assert_allclose(phi_norm(sup2_spec, c * u),
                                       abs(c) * nu, rtol=1e-9, atol=1e-12)
            assert (phi_norm(sup2_spec, u + v)
                    <= nu + phi_norm(sup2_spec, v) + 1e-9)

    def test_batch_matches_scalar(self, ladder3_spec):
        rng = np.random.default_rng(17)
        U = rng.standard_normal((300, 3))
        batch = phi_norm_batch(ladder3_spec, U)
        assert np.array_equal(batch, [phi_norm(ladder3_spec, u) for u in U])

    def test_predual7_block_matches_rows(self, predual7_spec):
        """Each row of a 2,048-row block bisects to the bits it gets
        alone: the block's modular calls mostly run _log_g's series as
        numpy arrays, a lone row's on Python floats.  Both take their
        coordinates from one pi_coords_batch call, since a matrix-vector
        and a matrix-matrix product may round differently."""
        spec = predual7_spec
        rng = np.random.default_rng(23)
        coords = pi_coords_batch(spec, rng.standard_normal((2048, 7)))
        block = _luxemburg_rows(spec, coords)
        rows = [_luxemburg_rows(spec, c[None])[0] for c in coords]
        assert np.array_equal(block, rows)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(bad=st.sampled_from([np.nan, np.inf, -np.inf]),
           at=st.integers(0, 2))
    def test_non_finite_rejected(self, ladder3_spec, bad, at):
        """A NaN row used to come back from the batch as 0.0; now it is
        refused before the matrix product warns."""
        u = np.array([np.nan, 1.0, 0.0])
        u[at] = bad
        with pytest.raises(ParameterError):
            phi_norm(ladder3_spec, u)
        with pytest.raises(ParameterError):
            phi_norm_batch(ladder3_spec, np.vstack([np.ones(3), u]))

    def test_euclidean_factor_approximates_injective(self, euclid_factor_spec):
        spec = euclid_factor_spec
        rho = phi_norm(spec, np.eye(2))
        assert 1.0 < rho <= 1.1
        rng = np.random.default_rng(19)
        for _ in range(200):
            M = rng.standard_normal((2, 2))
            u = TensorElement(M, spec.X, spec.Y)
            base = injective_norm(u).value
            rho = phi_norm(spec, u)
            assert base < rho <= (1.0 + spec.epsilon) * base * (1.0 + 1e-9)

    @pytest.mark.parametrize("k", [530, 1000, -1000])
    def test_euclidean_factor_scales_by_powers_of_two(self, sup4_euclid3_spec,
                                                      k):
        """Scaling a matrix by 2^k scales both norms by 2^k exactly, also
        where the slices' squares overflow or underflow (at 2^530 phi_norm
        used to raise and injective_norm to give inf with g = 0)."""
        spec = sup4_euclid3_spec
        M = np.random.default_rng(23).standard_normal((4, 3))
        scaled = np.ldexp(M, k)
        assert phi_norm(spec, scaled) == np.ldexp(phi_norm(spec, M), k)
        want = injective_norm(TensorElement(M, spec.X, spec.Y))
        got = injective_norm(TensorElement(scaled, spec.X, spec.Y))
        assert got.value == np.ldexp(want.value, k)
        np.testing.assert_array_equal(got.g, want.g)


def whole_net(spec, coords, start=None):
    """feasible_scale_inf over the whole net, no term left out, bisected
    to float resolution from `start` (default: its own)."""
    return feasible_scale_inf(lambda z, _: spec.family.modular_rows(z),
                              coords, tol=0.0, start=start)


def check_whole_net(spec, coords, values):
    """Pruned values against the whole net, row by row: each is the
    whole-net value bit for bit, whatever bracket its bisection started
    from, and is certified over the whole family."""
    values = np.asarray(values, dtype=float)
    assert np.array_equal(values, whole_net(spec, coords).hi)
    live = coords.any(axis=1)
    assert np.array_equal(values > 0.0, live)
    assert np.all(spec.family.modular_rows(coords[live] / values[live, None])
                  <= 1.0)


def full_width_rule(spec, coords):
    """The pruning rule over whole (n, len(net)) coordinate rows: L, P
    and the mask of kept terms psi_t u_t > L (1 - PRUNE_TOL), where
    u = coords / peak, L = max_t theta_t u_t and P = max_t psi_t u_t."""
    with np.errstate(divide="ignore", invalid="ignore"):
        u = coords / coords.max(axis=1, initial=0.0)[:, None]
    bound = np.max(spec.net.theta * u, axis=1)
    weighted = spec.net.psi * u
    return (bound, np.max(weighted, axis=1),
            weighted > (bound * (1.0 - PRUNE_TOL))[:, None])


def pruning_cases(spec):
    """Vectors on the edges of the pruning rule for a ladder spec (net
    rows +-e_i, psi and theta falling with i).  With x_0 = 1 the peak is
    1 and L = theta_0; x_i = b puts psi u exactly on L (kept) or on the
    cut L (1 - PRUNE_TOL) (pruned).  (0.97, 0, 1, ...) has its peak on a
    pruned term: theta_0 * 0.97 > psi of e_2."""
    psi, theta = spec.net.psi, spec.net.theta
    dim = spec.X.dim
    cases = []
    for i, target in itertools.product(
            range(1, dim), (theta[0], theta[0] * (1.0 - PRUNE_TOL))):
        b0 = target / psi[2 * i]
        for b in b0 + np.arange(-8, 9) * np.spacing(b0):
            if psi[2 * i] * b == target:
                x = np.zeros(dim)
                x[0], x[i] = 1.0, b
                cases.append(x)
    peak_pruned = np.zeros(dim)
    peak_pruned[0], peak_pruned[2] = 0.97, 1.0
    cases.append(peak_pruned)
    return cases


def as_input(spec, x):
    """A vector, or for a euclidean factor the matrix with x in column 0,
    whose coordinates are |x_i|."""
    if spec.Y is None:
        return x
    M = np.zeros((spec.X.dim, spec.Y.dim))
    M[:, 0] = x
    return M


class TestPrunedEvaluation:
    """phi_norm_batch and phi_norm bisect only the terms the pruning rule
    keeps, from a bracket per row; the Luxemburg norm over the whole net
    is the reference (check_whole_net)."""

    def test_cases_sit_on_the_rule(self, ladder3_spec):
        spec = ladder3_spec
        coords = pi_coords_batch(spec, np.array(pruning_cases(spec)))
        u = coords / coords.max(axis=1, keepdims=True)
        L = np.max(spec.net.theta * u, axis=1, keepdims=True)
        assert (spec.net.psi * u == L).any(axis=1).sum() >= 2
        assert (spec.net.psi * u == L * (1.0 - PRUNE_TOL)).any(axis=1).sum() \
            >= 2
        kept = full_width_rule(spec, coords)[2]
        assert (~kept & (coords == coords.max(axis=1, keepdims=True))).any()

    @pytest.mark.parametrize("name", ["ladder3_spec", "ladder3_euclid_spec"])
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(picks=st.lists(st.tuples(st.integers(0, 12), st.integers(-60, 60)),
                          min_size=1, max_size=8),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_unpruned(self, request, name, picks, seed):
        spec = request.getfixturevalue(name)
        cases = pruning_cases(spec) + [np.zeros(spec.X.dim)]
        rng = np.random.default_rng(seed)
        shape = as_input(spec, cases[0]).shape
        X = np.array([2.0 ** e * (as_input(spec, cases[k]) if k < len(cases)
                                  else rng.standard_normal(shape))
                      for k, e in picks])
        batch = phi_norm_batch(spec, X)
        check_whole_net(spec, pi_coords_batch(spec, X), batch)
        singles = [phi_norm(spec, x) for x in X]
        check_whole_net(spec, np.array([pi_coords(spec, x) for x in X]),
                        singles)
        assert np.array_equal(singles, batch)

    def test_predual7_matches_unpruned(self, predual7_spec):
        """The benchmark's predual7 net: about 2 of 2,186 terms survive a
        gaussian row, and some rows have their peak on a pruned term."""
        spec = predual7_spec
        assert len(spec.net) == 2186
        X = np.random.default_rng(1).standard_normal((2048, 7))
        coords = pi_coords_batch(spec, X)
        kept = full_width_rule(spec, coords)[2]
        assert kept.any(axis=1).all() and kept.sum(axis=1).mean() < 3.0
        assert (~kept & (coords == coords.max(axis=1, keepdims=True))).any()
        check_whole_net(spec, coords, phi_norm_batch(spec, X))

    def test_predual7_pinned_bits(self, predual7_spec):
        """phi_norm at fixed points and two active-set margins, as the
        float.hex strings the evaluation gives: any change to the bumps,
        the bisection, the inverse table or the coordinates that moves a
        last bit fails.  Each value lies in its whole-net bracket."""
        spec = predual7_spec
        pins = [
            ([1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], "0x1.0fbbcd6615e53p+0"),
            ([1.0] * 7, "0x1.be5b0cbae87edp+0"),
            ([1.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0], "0x1.3447a754f6f06p+0"),
            ([0.5, -0.25, 2.0, 0.0, 1.0, -3.0, 0.125],
             "0x1.9799b41920d7cp+1"),
            ([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0], "0x1.31b34712d8a1dp+3"),
            ([0.3, -0.7, 0.2, 0.9, -0.1, 0.4, 0.6], "0x1.f396745126c01p-1"),
            ([1e200, -2e200, 3e199, 0.0, 5e200, 0.0, -1e199],
             "0x1.bbbf719494953p+666"),
            ([1e-300, 2e-300, -3e-300, 4e-300, 0.0, 0.0, 1e-301],
             "0x1.6bf4c42541a76p-995"),
        ]
        for u, want in pins:
            value = phi_norm(spec, np.array(u))
            assert value.hex() == want, u
            check_whole_net(spec, pi_coords(spec, np.array(u))[None], [value])
        margins = [(pins[3][0], "0x1.bd3b6bbf64d60p-5"),
                   (pins[4][0], "0x1.e0d7768c84638p-4")]
        for u, want in margins:
            assert active_set(spec, np.array(u)).margin.hex() == want, u

    @pytest.mark.parametrize("scale", [5e-324, 3e-323, 1e-310, 1e300,
                                       1.7e308, 1.79e308])
    def test_extreme_scale_rows(self, predual7_spec, scale):
        """Subnormal and near-overflow rows: a value that passes
        check_whole_net, or the same error with the same bracket as over
        the whole net."""
        spec = predual7_spec
        x = scale * np.eye(7)[0]
        coords = pi_coords_batch(spec, x[None])

        def outcome(call):
            try:
                return float(call())
            except (NumericError, ParameterError) as exc:
                return type(exc), str(exc), getattr(exc, "bracket", None)

        expected = outcome(lambda: whole_net(spec, coords).hi[0])
        got = [outcome(lambda: phi_norm(spec, x)),
               outcome(lambda: phi_norm_batch(spec, x[None])[0])]
        if isinstance(expected, tuple):
            assert got == [expected, expected]
        else:
            check_whole_net(spec, np.vstack([coords, coords]), got)
        if scale < 1e300:
            assert 0.0 < expected < np.inf
        elif scale > 1e300:
            assert expected[0] is NumericError


def closure_decomposition(subsets, eps=0.1):
    """sup_space(3): piece 0 holds +-e_i, pieces 1 to 3 one inner point
    0.5 e_i each.  Member j of piece 0 also lies in the closure of the
    pieces subsets[j], and each closure set gives its own psi, so the
    net's runs can split below piece size, down to one column each."""
    pieces = [np.vstack([np.eye(3), -np.eye(3)])] + [0.5 * np.eye(3)[i:i + 1]
                                                   for i in range(3)]
    closure = {(0, j): {0, *s} for j, s in enumerate(subsets)}
    return Decomposition(sup_space(3), pieces, eps, closure=closure)


def check_runs(spec):
    """spec.runs are the maximal runs of equal psi and theta in net
    order, with those weights."""
    start, size, psi, theta = spec.runs
    assert start[0] == 0 and np.array_equal(start[1:], (start + size)[:-1])
    assert size.sum() == len(spec.net) and (size > 0).all()
    run = np.repeat(np.arange(len(start)), size)
    assert np.array_equal(spec.net.psi, psi[run])
    assert np.array_equal(spec.net.theta, theta[run])
    assert ((psi[1:] != psi[:-1]) | (theta[1:] != theta[:-1])).all()


def check_kept_terms(spec, coords):
    """_kept_terms against the rule over whole rows, bit for bit: peak,
    L and the kept (row, column) pairs in row-major order."""
    peak, bound, r, j = _kept_terms(spec, coords)
    want_bound, _, kept = full_width_rule(spec, coords)
    assert np.array_equal(peak, coords.max(axis=1, initial=0.0))
    assert np.array_equal(bound, want_bound, equal_nan=True)
    want_r, want_j = np.nonzero(kept)
    assert np.array_equal(r, want_r) and np.array_equal(j, want_j)


def scaled_rows(spec, rng, n, scale):
    """Coordinate rows of n gaussian inputs, a quarter of them zero,
    times 10^U(-3, 3) times scale (the coordinates are scaled, so that a
    euclidean factor's norms do not overflow)."""
    X = rng.standard_normal((n, *spec.sample_shape))
    X[rng.random(n) < 0.25] = 0.0
    return (pi_coords_batch(spec, X)
            * (scale * 10.0 ** rng.uniform(-3.0, 3.0, n))[:, None])


class TestRunPruning:
    """The pruning rule from per-run column maxima keeps exactly the
    (row, column) pairs the rule over whole rows keeps, with the same L,
    without an array of the coordinates' size."""

    @settings(max_examples=40, deadline=None)
    @given(subsets=st.lists(st.sets(st.integers(1, 3)), min_size=6,
                            max_size=6),
           n=st.sampled_from([1, 64]),
           scale=st.sampled_from([1.0, 1e-300, 1e300]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_closure_nets(self, subsets, n, scale, seed):
        d = closure_decomposition(subsets)
        spec = build_renorm(d.space, d, None, budget=64, seed=0)
        check_runs(spec)
        check_kept_terms(spec, scaled_rows(spec, np.random.default_rng(seed),
                                           n, scale))

    def test_one_column_per_run(self):
        """Six closure sets, six psi values: every run of piece 0 is one
        net point, and the values still pass check_whole_net."""
        d = closure_decomposition([set(), {1}, {2}, {3}, {1, 2}, {2, 3}])
        spec = build_renorm(d.space, d, None, budget=64, seed=0)
        check_runs(spec)
        assert (spec.runs.size == 1).all()
        rng = np.random.default_rng(2)
        for n, scale in itertools.product((1, 64), (1.0, 1e-300, 1e300)):
            coords = scaled_rows(spec, rng, n, scale)
            check_kept_terms(spec, coords)
            check_whole_net(spec, coords, _luxemburg_rows(spec, coords))

    @pytest.mark.parametrize("name", ["ladder3_spec", "sup4_euclid3_spec",
                                      "predual7_spec"])
    def test_pinned_specs(self, request, name):
        """The three specs the CI digests pin, batches of 1 and 64 at
        scales 1, 1e-300 and 1e300 with zero rows, and the ladder's rows
        on the edges of the rule."""
        spec = request.getfixturevalue(name)
        check_runs(spec)
        rng = np.random.default_rng(11)
        for _ in range(4):
            for n, scale in itertools.product((1, 64), (1.0, 1e-300, 1e300)):
                check_kept_terms(spec, scaled_rows(spec, rng, n, scale))
        if name == "ladder3_spec":
            check_kept_terms(spec, pi_coords_batch(
                spec, np.array(pruning_cases(spec))))
        if name == "predual7_spec":
            assert spec.runs.size.tolist() == [14, 84, 280, 560, 672, 448,
                                               128]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_adds_no_warning(self, predual7_spec, ladder3_spec,
                                        bad):
        """NaN or inf input raises ParameterError before the matrix
        product, so it emits no warning, coordinates included."""
        def messages(call, error=None):
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                if error is None:
                    call()
                else:
                    with pytest.raises(error):
                        call()
            return [str(w.message) for w in seen]

        for spec in (predual7_spec, ladder3_spec):
            dim = spec.X.dim
            for at in range(dim):
                u = np.ones(dim)
                u[at] = bad
                X = np.vstack([np.ones(dim), u, np.zeros(dim)])
                for call in (lambda: phi_norm(spec, u),
                             lambda: pi_coords(spec, u),
                             lambda: phi_norm_batch(spec, X),
                             lambda: pi_coords_batch(spec, X)):
                    assert messages(call, ParameterError) == []

    def test_predual7_batch_memory(self, predual7_spec):
        """phi_norm_batch of 2,000 predual7 rows holds one array of the
        coordinates' size: its tracemalloc peak is at most 1.5 times the
        coordinate array (3.1 times when the rule ran on whole rows)."""
        spec = predual7_spec
        X = np.random.default_rng(0).standard_normal((2000, 7))
        phi_norm_batch(spec, X[:64])  # fill the inverse table first
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            phi_norm_batch(spec, X)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak <= 1.5 * X.shape[0] * len(spec.net) * 8


def fresh_spec(spec):
    """spec rebuilt from its net, with an empty inverse table."""
    return PhiNormSpec(net=spec.net, X=spec.X, Y=spec.Y,
                       epsilon=spec.epsilon)


def capture_brackets(monkeypatch):
    """Record every (start, ScalingBracket) of renorm's feasible_scale_inf
    calls."""
    seen = []

    def recording(*args, **kwargs):
        bracket = feasible_scale_inf(*args, **kwargs)
        seen.append((kwargs.get("start"), bracket))
        return bracket

    monkeypatch.setattr(renorm, "feasible_scale_inf", recording)
    return seen


def table_starts(start):
    """Mask of the rows started from the inverse table: a bracket one
    float wide."""
    lo, hi = start
    return lo == np.nextafter(hi, 0.0)


def newton_starts(start):
    """Mask of the rows started from a Newton proposal: a bracket
    2 * START_ULPS floats wide."""
    lo, hi = start
    for _ in range(2 * START_ULPS):
        hi = np.nextafter(hi, 0.0)
    return lo == hi


class TestCheckedStart:
    """Every row is bisected to the float from a bracket out of its
    bumps' inverse tables: one float wide for a single-class row; for
    any other, a few floats around a Newton proposal from the table's
    upper end.  The bracket is checked, never trusted."""

    def test_predual7_modular_calls(self, predual7_spec, monkeypatch):
        """A single-class gaussian point costs exactly 1 modular call: it
        is feasible at the start's hi, infeasible at its lo, one float
        below, and certified, all in the start round.  In a batch, nearly
        every row starts from the table and takes no bisection step, and
        every other row takes at most 3 (2 measured)."""
        spec = predual7_spec
        phi_norm(spec, np.ones(7))  # fill the table outside the count
        calls = []
        inner = spec.family.modular_rows

        def counting(*args):
            calls.append(1)
            return inner(*args)

        monkeypatch.setattr(spec.family, "modular_rows", counting)
        seen = capture_brackets(monkeypatch)
        for x in np.random.default_rng(0).standard_normal((32, 7)):
            calls.clear()
            phi_norm(spec, x)
            assert table_starts(seen[-1][0])[0], x
            assert len(calls) == 1, x
        coords = pi_coords_batch(
            spec, np.random.default_rng(1).standard_normal((2048, 7)))
        _luxemburg_rows(spec, coords)
        start, batch = seen[-1]
        multi = np.flatnonzero(~table_starts(start))
        assert 0 < multi.size <= 0.01 * 2048
        steps = []
        for i in multi:
            _luxemburg_rows(spec, coords[i:i + 1])
            steps.append(seen[-1][1].iterations)
        assert max(steps) <= 3
        assert batch.iterations == sum(steps)

    def test_multi_class_table_bracket(self, predual7_spec, monkeypatch):
        """The rows of 2,000 gaussian predual7 rows with more than one
        class of kept terms: their starts are under 1e-6 relative wide,
        where [L, P] is about eps_n, and give the bits of an [L, P] start
        in fewer bisection steps."""
        spec = predual7_spec
        coords = pi_coords_batch(
            spec, np.random.default_rng(0).standard_normal((2000, 7)))
        seen = capture_brackets(monkeypatch)
        values = _luxemburg_rows(spec, coords)
        lo, hi = seen[-1][0]
        multi = np.flatnonzero(~table_starts((lo, hi)))
        assert multi.size >= 4
        assert np.all(hi[multi] - lo[multi] <= 1e-6 * hi[multi])
        rows = coords[multi]
        table = _luxemburg_rows(spec, rows)
        steps = seen[-1][1].iterations
        bound, top, _ = full_width_rule(spec, rows)
        wide = whole_net(spec, rows, start=(bound, top))
        assert np.array_equal(table, values[multi])
        assert np.array_equal(wide.hi, table)
        assert steps < wide.iterations

    @pytest.mark.parametrize("wrong, wild", [
        (lambda z: np.nextafter(z, np.inf), False),
        (lambda z: np.nextafter(z, 0.0), False),
        (lambda z: 2.0 * z, True), (lambda z: 0.5 * z, True),
        (lambda z: np.full_like(z, 1e6), True),
        (lambda z: np.full_like(z, np.nan), True)],
        ids=["ulp_high", "ulp_low", "double", "half", "huge", "nan"])
    def test_wrong_table_falls_back(self, predual7_spec, monkeypatch, wrong,
                                    wild):
        """With every table entry off, each value is still the whole-net
        value bit for bit (check_whole_net).  Every row's bracket comes
        from the table, so a wild entry moves each of them; an entry one
        ulp off can leave a start where it was."""
        X = np.random.default_rng(3).standard_normal((256, 7))
        seen = capture_brackets(monkeypatch)
        right = phi_norm_batch(predual7_spec, X)
        start = seen[-1][0]
        monkeypatch.setattr(renorm, "modular_inverse",
                            lambda fns, ks: wrong(orlicz.modular_inverse(
                                fns, ks)))
        # a fresh spec: predual7_spec's own table is filled already
        spec = fresh_spec(predual7_spec)
        values = phi_norm_batch(spec, X)
        check_whole_net(spec, pi_coords_batch(spec, X), values)
        assert np.array_equal(values, right)
        moved = seen[-1][0][1] != start[1]
        assert moved.all() if wild else moved.any()

    @pytest.mark.parametrize("name", ["ladder3_spec", "sup4_euclid3_spec",
                                      "predual7_spec"])
    def test_newton_starts(self, request, monkeypatch, name):
        """40,000 gaussian rows at scales 10^U(-3, 3) on the three specs
        the CI digests pin, in batches of 4,000: every multi-class row
        starts from a Newton proposal whose bracket holds its answer
        (infeasible at lo, feasible at hi over the whole net), takes at
        most 3 bisection steps (2 measured), and gets the whole-net
        value.  A row's whole-net value does not depend on its batch,
        so only the multi-class rows are bisected over the whole net;
        the single-class rows' start is the table's, which
        test_same_value_whatever_the_start checks."""
        spec = request.getfixturevalue(name)
        rng = np.random.default_rng(5)
        shape = spec.sample_shape
        X = (rng.standard_normal((40000, *shape))
             * 10.0 ** rng.uniform(-3.0, 3.0, (40000,) + (1,) * len(shape)))
        seen = capture_brackets(monkeypatch)
        multi = steps = 0
        for batch in np.split(X, 10):
            coords = pi_coords_batch(spec, batch)
            values = _luxemburg_rows(spec, coords)
            start, bracket = seen[-1]
            lo, hi = start
            newton = newton_starts(start)
            assert np.array_equal(newton, ~table_starts(start))
            rows = coords[newton]
            unit = rows / rows.max(axis=1)[:, None]
            modular = spec.family.modular_rows
            assert np.all(modular(unit / lo[newton, None]) > 1.0)
            assert np.all(modular(unit / hi[newton, None]) <= 1.0)
            assert np.array_equal(values[newton], whole_net(spec, rows).hi)
            multi += newton.sum()
            steps += bracket.iterations
        assert multi > 0
        assert steps <= 3 * multi

    @pytest.mark.parametrize("wrong, expect", [
        (lambda z: np.nextafter(z, np.inf), "padded"),
        (lambda z: np.nextafter(z, 0.0), "padded"),
        (lambda z: 2.0 * z, "missed"),
        (lambda z: np.full_like(z, np.nan), "default")],
        ids=["ulp_high", "ulp_low", "double", "nan"])
    def test_wrong_newton_falls_back(self, predual7_spec, monkeypatch, wrong,
                                     expect):
        """With every Newton proposal off, each value is still the
        whole-net value bit for bit (check_whole_net).  A finite proposal
        stays a start a few floats wide: a doubled one is feasible at its
        lo, and feasible_scale_inf widens it.  A NaN one is no start, so
        the row gets the default bracket."""
        spec = predual7_spec
        coords = pi_coords_batch(
            spec, np.random.default_rng(3).standard_normal((500, 7)))
        seen = capture_brackets(monkeypatch)
        right = _luxemburg_rows(spec, coords)
        monkeypatch.setattr(renorm, "newton_scales",
                            lambda *args: wrong(orlicz.newton_scales(*args)))
        values = _luxemburg_rows(spec, coords)
        check_whole_net(spec, coords, values)
        assert np.array_equal(values, right)
        start = seen[-1][0]
        multi = ~table_starts(start)
        assert multi.any()
        lo, hi = start
        if expect == "default":
            assert np.isnan(lo[multi]).all() and np.isnan(hi[multi]).all()
        else:
            assert np.array_equal(newton_starts(start), multi)
        if expect == "missed":
            rows = coords[multi]
            unit = rows / rows.max(axis=1)[:, None]
            assert np.all(
                spec.family.modular_rows(unit / lo[multi, None]) <= 1.0)

    @pytest.mark.parametrize("name", ["ladder3_spec", "sup4_euclid3_spec",
                                      "predual7_spec"])
    def test_table_gather_matches_modular_inverse(self, request, name):
        """For every kept term of 10,000 gaussian rows at scales
        10^U(-3, 3), at its row's count and at count 1, the spec's table
        gives modular_inverse's z* for the term's own bump, bit for bit,
        on a fresh table and on a filled one."""
        spec = fresh_spec(request.getfixturevalue(name))
        rng = np.random.default_rng(8)
        shape = spec.sample_shape
        X = (rng.standard_normal((10000, *shape))
             * 10.0 ** rng.uniform(-3.0, 3.0, (10000,) + (1,) * len(shape)))
        _, _, r, j = _kept_terms(spec, pi_coords_batch(spec, X))
        counts = np.bincount(r)[r]
        fns = [spec.family.functions[col] for col in j.tolist()]
        for k in (counts, np.ones_like(counts)):
            want = orlicz.modular_inverse(fns, k)
            assert np.array_equal(_zstar(spec, j, k), want)
            assert np.array_equal(_zstar(spec, j, k), want)
        assert counts.max() > 1

    def test_table_shared_by_threads(self, sup4_euclid3_spec):
        """Threads filling and widening one spec's table at once, as the
        CLI's --parallel chunks do: each batch gets its values from a
        table filled by one thread alone, bit for bit."""
        rng = np.random.default_rng(12)
        X = (rng.standard_normal((16, 200, 4, 3))
             * 10.0 ** rng.uniform(-3.0, 3.0, (16, 200, 1, 1)))
        # sup4 x euclidean(3) rows keep up to 8 terms: the table widens
        want = [phi_norm_batch(fresh_spec(sup4_euclid3_spec), batch)
                for batch in X]
        spec = fresh_spec(sup4_euclid3_spec)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(phi_norm_batch, spec, batch)
                           for batch in X]
                got = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for values, expected in zip(got, want):
            assert np.array_equal(values, expected)
        assert spec._zstar.shape[1] > 2

    @pytest.mark.parametrize("name", ["ladder3_spec", "sup4_euclid3_spec",
                                      "predual7_spec"])
    def test_same_value_whatever_the_start(self, request, monkeypatch, name):
        """Gaussian rows at scales 10^U(-3, 3) on the three specs the CI
        digests pin (demo_sup3 is ladder3): phi_norm_batch is the
        whole-net bisection to the float, bit for bit, with the right
        inverse table and with one an ulp high, an ulp low, doubled or
        NaN."""
        spec = request.getfixturevalue(name)
        rng = np.random.default_rng(5)
        shape = spec.sample_shape
        X = (rng.standard_normal((1000, *shape))
             * 10.0 ** rng.uniform(-3.0, 3.0, (1000,) + (1,) * len(shape)))
        want = whole_net(spec, pi_coords_batch(spec, X)).hi
        assert np.array_equal(phi_norm_batch(spec, X), want)
        for wrong in (lambda z: np.nextafter(z, np.inf),
                      lambda z: np.nextafter(z, 0.0), lambda z: 2.0 * z,
                      lambda z: np.full_like(z, np.nan)):
            monkeypatch.setattr(
                renorm, "modular_inverse",
                lambda fns, ks, wrong=wrong: wrong(
                    orlicz.modular_inverse(fns, ks)))
            # each wrong table fills a fresh spec's empty one
            assert np.array_equal(phi_norm_batch(fresh_spec(spec), X), want)


class TestActiveSet:
    def test_matches_unpruned_reference(self, predual7_spec, ladder3_spec):
        """The active set from a phi-value that passes check_whole_net,
        and its indices are among the terms the pruning rule keeps."""
        rng = np.random.default_rng(29)
        for spec in (predual7_spec, ladder3_spec):
            max_psi = float(np.max(spec.net.psi))
            for u in rng.standard_normal((12, spec.X.dim)):
                coords = pi_coords(spec, u)
                a = active_set(spec, u)
                rho = a.phi_value
                check_whole_net(spec, coords[None], [rho])
                weighted = spec.net.psi * coords
                inside = weighted >= rho
                margin = (1.0 if inside.all() else
                          1.0 - float(np.max(weighted[~inside])) / rho)
                assert a == ActiveSet(tuple(np.flatnonzero(inside)), margin,
                                      rho, margin * rho / (2.0 * max_psi))
                kept = full_width_rule(spec, coords[None])[2][0]
                assert set(a.indices) <= set(np.flatnonzero(kept))

    def test_vertex_activates_one_pair(self, sup2_spec):
        a = active_set(sup2_spec, np.array([1.0, 0.0]))
        assert tuple(a.indices) == (0, 2)
        assert a.margin == 1.0
        assert a.radius > 0.4

    def test_diagonal_activates_all(self, sup2_spec):
        a = active_set(sup2_spec, np.array([1.0, 1.0]))
        assert len(a.indices) == 4

    def test_off_diagonal_drops_small_pair(self, sup2_spec):
        a = active_set(sup2_spec, np.array([1.0, 0.8]))
        assert tuple(a.indices) == (0, 2)
        assert 0.0 < a.margin < 1.0

    def test_zero_rejected(self, sup2_spec):
        with pytest.raises(ParameterError):
            active_set(sup2_spec, np.zeros(2))

    def test_perturbations_inside_radius_keep_inactive_at_zero(
            self, ladder3_spec):
        spec = ladder3_spec
        rng = np.random.default_rng(23)
        checked = 0
        for _ in range(30):
            u = rng.standard_normal(3)
            u /= phi_norm(spec, u)
            a = active_set(spec, u)
            assert a.margin > 0.0
            outside = sorted(set(range(len(spec.net))) - set(a.indices))
            if not outside:
                continue
            for _ in range(20):
                w = rng.standard_normal(3)
                w *= 0.9 * a.radius / spec.X.norm(w)
                v = u + w
                rho = phi_norm(spec, v)
                coords = pi_coords(spec, v)
                for i in outside:
                    # bump value exactly zero: below its flat threshold
                    assert spec.family.functions[i](coords[i] / rho) == 0.0
                    checked += 1
        assert checked > 0


def per_point_excess(spec, pool):
    """The per-net-point formula: max over the pool of |h(u)| / ||u||_phi
    minus 1/theta(h), one net point at a time (scalar factor)."""
    return np.array([
        np.max(np.abs(pool.samples @ h) / pool.norms, initial=0.0)
        - 1.0 / theta
        for h, theta in zip(spec.net.matrix, spec.net.theta)])


class TestClaim2d:
    def test_sampled_bound_holds(self, sup2_spec):
        pool = phi_unit_pool(sup2_spec, 2000, seed=1)
        excess = verify_claim2d(sup2_spec, pool)
        bound = 1.0 / sup2_spec.net.theta[0]
        assert excess.shape == (len(sup2_spec.net),)
        assert excess[0] <= 1e-7
        assert excess[0] + bound > 0.9 * bound

    def test_shared_pool(self, sup2_spec):
        pool = phi_unit_pool(sup2_spec, 3000, seed=5)
        excess = verify_claim2d(sup2_spec, pool)
        assert excess.shape == (len(sup2_spec.net),)
        assert np.all(excess <= 1e-7)
        assert len(pool.norms) == 3000

    def test_norming_vector_certificate(self, sup2_spec):
        # the rescaled norming vector itself stays under the dual bound
        net = sup2_spec.net
        v = np.array([1.0, 0.0])
        value = abs(net.matrix[0] @ v) / phi_norm(sup2_spec, v)
        assert value <= 1.0 / net.theta[0]

    def test_seeded_determinism(self, sup2_spec):
        a = verify_claim2d(sup2_spec, phi_unit_pool(sup2_spec, 500, seed=9))
        b = verify_claim2d(sup2_spec, phi_unit_pool(sup2_spec, 500, seed=9))
        np.testing.assert_array_equal(a, b)

    def test_matches_per_point_oracle(self, sup2_spec, ladder3_spec):
        for spec in (sup2_spec, ladder3_spec):
            pool = phi_unit_pool(spec, 400, seed=2)
            np.testing.assert_allclose(verify_claim2d(spec, pool),
                                       per_point_excess(spec, pool),
                                       rtol=1e-14)

    def test_euclidean_g(self, euclid_factor_spec):
        # the excess is the sup over unit g: it dominates each fixed g
        spec = euclid_factor_spec
        pool = phi_unit_pool(spec, 500, seed=3)
        excess = verify_claim2d(spec, pool)
        assert np.all(excess <= 1e-7)
        top = excess + 1.0 / spec.net.theta
        rng = np.random.default_rng(11)
        gs = [np.eye(2)[0], np.eye(2)[1]]
        gs += [g / np.linalg.norm(g) for g in rng.standard_normal((3, 2))]
        for g in gs:
            for i, h in enumerate(spec.net.matrix):
                values = np.abs(np.einsum("i,nij,j->n", h, pool.samples,
                                          g)) / pool.norms
                assert np.max(values) <= top[i] + 1e-15


class TestSmoothnessCheck:
    def test_sup_ridge_kink_exact(self):
        X = sup_space(3)
        x = np.array([1.0, 1.0, 0.0])
        steps = (2.0 ** -10, 2.0 ** -13, 2.0 ** -16)
        r = smoothness_check(lambda w: X.norm(w), x,
                             np.array([1.0, -1.0, 0.0]), steps)
        # g(t) = 1 + |t| and power-of-two steps stay exact in floats
        for d2, h in zip(r.second_diffs, steps):
            assert d2 == 2.0 / h
        assert r.kink
        np.testing.assert_allclose(r.slope, -1.0, atol=1e-9)

    def test_euclidean_gradient_and_no_kink(self):
        X = euclidean_space(3)
        rng = np.random.default_rng(6)
        x = rng.standard_normal(3)
        d = rng.standard_normal(3)
        r = smoothness_check(lambda w: X.norm(w), x, d,
                             (1e-3, 1e-4, 1e-5))
        want = float(d @ x) / np.linalg.norm(x)
        np.testing.assert_allclose(r.first_diffs[-1], want, atol=1e-6)
        assert not r.kink

    def test_phi_norm_smooths_the_ridge(self, ladder3_spec):
        spec = ladder3_spec
        x = np.array([1.0, 1.0, 0.0])
        d = np.array([1.0, -1.0, 0.0])
        r = smoothness_check(lambda w: phi_norm(spec, w),
                             x, d, (1e-3, 1e-4))
        assert not r.kink
        assert r.richardson <= 1e-5
        assert max(abs(v) for v in r.second_diffs) < 1.0

    def test_gradient_consistency_at_random_points(self, ladder3_spec):
        spec = ladder3_spec
        rng = np.random.default_rng(29)
        normfn = lambda w: phi_norm(spec, w)
        for _ in range(20):
            x = rng.standard_normal(3)
            x /= spec.X.norm(x)
            d = rng.standard_normal(3)
            rep = smoothness_check(normfn, x, d, (1e-6, 5e-7))
            assert rep.richardson <= 1e-5

    def test_parameter_errors(self, sup2_spec):
        fn = lambda w: float(np.max(np.abs(w)))
        with pytest.raises(ParameterError):
            smoothness_check(fn, np.zeros(2), np.ones(2), (1e-3,))
        with pytest.raises(ParameterError):
            smoothness_check(fn, np.ones(2), np.ones(2), (1e-3, 1e-2))
        with pytest.raises(ParameterError):
            smoothness_check(fn, np.ones(2), np.ones(2), (0.0,))
        with pytest.raises(ParameterError):
            smoothness_check(fn, np.ones(2), np.ones(2), (1e-30,))
