"""phi-norm construction, active sets, claim checks, smoothness probes."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from smoothnorm.boundary import Decomposition, build_net
from smoothnorm.errors import ConstructionError, NumericError, ParameterError
from smoothnorm.orlicz import (OrliczFamily, luxemburg_norm,
                               luxemburg_norm_batch, make_orlicz)
from smoothnorm.renorm import (
    PRUNE_TOL,
    ActiveSet,
    PhiNormSpec,
    _luxemburg_rows,
    _sphere_samples,
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
from smoothnorm.spaces import (euclidean_space, lorentz_predual_space,
                               sup_space)
from smoothnorm.tensor import TensorElement, injective_norm


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

    def test_factor_space_validated(self):
        d = sup_decomposition(2)
        with pytest.raises(ParameterError):
            build_renorm(d.space, d, sup_space(2))

    def test_threshold_invariant_enforced(self):
        d = sup_decomposition(2)
        net = build_net(d)
        family = OrliczFamily([make_orlicz(0.5, 2.0)] * len(net))
        with pytest.raises(ConstructionError):
            PhiNormSpec(net=net, family=family, X=d.space, Y=None,
                        epsilon=0.1)
        # psi inverted, theta not
        family = OrliczFamily([make_orlicz(1.0 / 1.0625, 0.99)] * len(net))
        with pytest.raises(ConstructionError, match="theta"):
            PhiNormSpec(net=net, family=family, X=d.space, Y=None,
                        epsilon=0.1)
        # thresholds are read from a family of OrliczFunctions
        family = OrliczFamily([lambda s: s ** 2] * len(net))
        with pytest.raises(ConstructionError, match="OrliczFunctions"):
            PhiNormSpec(net=net, family=family, X=d.space, Y=None,
                        epsilon=0.1)

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
        block = _luxemburg_rows(spec, coords, 1e-10)
        rows = [_luxemburg_rows(spec, c[None], 1e-10)[0] for c in coords]
        assert np.array_equal(block, rows)

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(bad=st.sampled_from([np.nan, np.inf, -np.inf]),
           at=st.integers(0, 2))
    def test_non_finite_rejected(self, ladder3_spec, bad, at):
        """A NaN row used to come back from the batch as 0.0."""
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


def unpruned(spec, X):
    """The Luxemburg norms over the whole net, no term left out."""
    return luxemburg_norm_batch(spec.family, pi_coords_batch(spec, X))


def kept_terms(spec, coords):
    """The pruning rule on (n, len(net)) coordinate rows: psi_t u_t >
    L (1 - PRUNE_TOL), u = coords / peak and L = max_t theta_t u_t."""
    with np.errstate(divide="ignore", invalid="ignore"):
        u = coords / coords.max(axis=1, keepdims=True)
    bound = np.max(spec.net.theta * u, axis=1, keepdims=True)
    return spec.net.psi * u > bound * (1.0 - PRUNE_TOL)


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
    keeps; the Luxemburg norm over the whole net is the reference, bit
    for bit."""

    def test_cases_sit_on_the_rule(self, ladder3_spec):
        spec = ladder3_spec
        coords = pi_coords_batch(spec, np.array(pruning_cases(spec)))
        u = coords / coords.max(axis=1, keepdims=True)
        L = np.max(spec.net.theta * u, axis=1, keepdims=True)
        assert (spec.net.psi * u == L).any(axis=1).sum() >= 2
        assert (spec.net.psi * u == L * (1.0 - PRUNE_TOL)).any(axis=1).sum() \
            >= 2
        kept = kept_terms(spec, coords)
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
        expected = unpruned(spec, X)
        assert np.array_equal(phi_norm_batch(spec, X), expected)
        assert np.array_equal([phi_norm(spec, x) for x in X], expected)

    def test_predual7_matches_unpruned(self, predual7_spec):
        """The benchmark's predual7 net: about 2 of 2,186 terms survive a
        gaussian row, and some rows have their peak on a pruned term."""
        spec = predual7_spec
        assert len(spec.net) == 2186
        X = np.random.default_rng(1).standard_normal((2048, 7))
        coords = pi_coords_batch(spec, X)
        kept = kept_terms(spec, coords)
        assert kept.any(axis=1).all() and kept.sum(axis=1).mean() < 3.0
        assert (~kept & (coords == coords.max(axis=1, keepdims=True))).any()
        assert np.array_equal(phi_norm_batch(spec, X), unpruned(spec, X))

    @pytest.mark.parametrize("scale", [5e-324, 3e-323, 1e-310, 1e300,
                                       1.7e308, 1.79e308])
    def test_extreme_scale_rows(self, predual7_spec, scale):
        """Subnormal and near-overflow rows: the same value, or the same
        error with the same bracket, as over the whole net."""
        spec = predual7_spec
        x = scale * np.eye(7)[0]

        def outcome(call):
            try:
                return float(call())
            except (NumericError, ParameterError) as exc:
                return type(exc), str(exc), getattr(exc, "bracket", None)

        expected = outcome(lambda: unpruned(spec, x[None])[0])
        assert outcome(lambda: phi_norm(spec, x)) == expected
        assert outcome(lambda: phi_norm_batch(spec, x[None])[0]) == expected
        if scale < 1e300:
            assert 0.0 < expected < np.inf
        elif scale > 1e300:
            assert expected[0] is NumericError


class TestActiveSet:
    def test_matches_unpruned_reference(self, predual7_spec, ladder3_spec):
        """The active set from the whole-net norm, and its indices are
        among the terms the pruning rule keeps."""
        rng = np.random.default_rng(29)
        for spec in (predual7_spec, ladder3_spec):
            max_psi = float(np.max(spec.net.psi))
            for u in rng.standard_normal((12, spec.X.dim)):
                coords = pi_coords(spec, u)
                rho = luxemburg_norm(spec.family, coords)
                weighted = spec.net.psi * coords
                inside = weighted >= rho
                margin = (1.0 if inside.all() else
                          1.0 - float(np.max(weighted[~inside])) / rho)
                a = active_set(spec, u)
                assert a == ActiveSet(tuple(np.flatnonzero(inside)), margin,
                                      rho, margin * rho / (2.0 * max_psi))
                kept = np.flatnonzero(kept_terms(spec, coords[None])[0])
                assert set(a.indices) <= set(kept)

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
        rep = smoothness_check(lambda w: X.norm(w), x,
                               [np.array([1.0, -1.0, 0.0])], steps)
        r = rep.records[0]
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
        rep = smoothness_check(lambda w: X.norm(w), x, [d],
                               (1e-3, 1e-4, 1e-5))
        r = rep.records[0]
        want = float(d @ x) / np.linalg.norm(x)
        np.testing.assert_allclose(r.first_diffs[-1], want, atol=1e-6)
        assert not r.kink

    def test_phi_norm_smooths_the_ridge(self, ladder3_spec):
        spec = ladder3_spec
        x = np.array([1.0, 1.0, 0.0])
        d = np.array([1.0, -1.0, 0.0])
        rep = smoothness_check(lambda w: phi_norm(spec, w, tol=1e-13),
                               x, [d], (1e-3, 1e-4))
        r = rep.records[0]
        assert not r.kink
        assert r.richardson <= 1e-5
        assert max(abs(v) for v in r.second_diffs) < 1.0

    def test_gradient_consistency_at_random_points(self, ladder3_spec):
        spec = ladder3_spec
        rng = np.random.default_rng(29)
        normfn = lambda w: phi_norm(spec, w, tol=1e-13)
        for _ in range(20):
            x = rng.standard_normal(3)
            x /= spec.X.norm(x)
            d = rng.standard_normal(3)
            rep = smoothness_check(normfn, x, [d], (1e-6, 5e-7))
            assert rep.records[0].richardson <= 1e-5

    def test_parameter_errors(self, sup2_spec):
        fn = lambda w: float(np.max(np.abs(w)))
        with pytest.raises(ParameterError):
            smoothness_check(fn, np.zeros(2), [np.ones(2)], (1e-3,))
        with pytest.raises(ParameterError):
            smoothness_check(fn, np.ones(2), [np.ones(2)], (1e-3, 1e-2))
        with pytest.raises(ParameterError):
            smoothness_check(fn, np.ones(2), [np.ones(2)], (0.0,))
        with pytest.raises(ParameterError):
            smoothness_check(fn, np.ones(2), [np.ones(2)], (1e-30,))
