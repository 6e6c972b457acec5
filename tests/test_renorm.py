"""phi-norm construction, active sets, claim checks, smoothness probes."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from smoothnorm.boundary import Decomposition, build_net
from smoothnorm.errors import ConstructionError, ParameterError
from smoothnorm.orlicz import OrliczFamily, make_orlicz
from smoothnorm.renorm import (
    PhiNormSpec,
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
from smoothnorm.spaces import euclidean_space, sup_space
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


class TestBuildRenorm:
    def test_sup2_net_and_weights(self, sup2_spec):
        assert len(sup2_spec.net) == 4
        np.testing.assert_array_equal(sup2_spec.psi_values, 1.0625)
        for fn, p in zip(sup2_spec.family.functions, sup2_spec.net.points):
            assert abs(fn.zero_threshold * p.psi - 1.0) <= 1e-12
            assert abs(fn.exceed_threshold * p.theta - 1.0) <= 1e-12

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
                        epsilon=0.1,
                        psi_values=np.ones(len(net)),
                        theta_values=np.ones(len(net)))

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
        for u, value in zip(U, batch):
            np.testing.assert_allclose(value, phi_norm(ladder3_spec, u),
                                       rtol=1e-9)

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
            base = injective_norm(u, "enumerate").value
            rho = phi_norm(spec, u)
            assert base < rho <= (1.0 + spec.epsilon) * base * (1.0 + 1e-9)


class TestActiveSet:
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


class TestClaim2d:
    def test_sampled_bound_holds(self, sup2_spec):
        report = verify_claim2d(sup2_spec, 0, count=2000, seed=1)
        assert report.passed
        assert report.sampled_max <= report.bound + 1e-7
        assert report.sampled_max > 0.9 * report.bound

    def test_shared_pool(self, sup2_spec):
        pool = phi_unit_pool(sup2_spec, 3000, seed=5)
        reports = [verify_claim2d(sup2_spec, i, pool=pool)
                   for i in range(len(sup2_spec.net))]
        assert all(r.passed for r in reports)
        assert all(r.count == len(pool.norms) for r in reports)

    def test_norming_vector_certificate(self, sup2_spec):
        # the rescaled norming vector itself stays under the dual bound
        point = sup2_spec.net.points[0]
        v = np.array([1.0, 0.0])
        value = abs(point.functional @ v) / phi_norm(sup2_spec, v)
        assert value <= 1.0 / point.theta

    def test_seeded_determinism(self, sup2_spec):
        a = verify_claim2d(sup2_spec, 1, count=500, seed=9)
        b = verify_claim2d(sup2_spec, 1, count=500, seed=9)
        assert a.sampled_max == b.sampled_max

    def test_scalar_g_validation(self, sup2_spec):
        with pytest.raises(ParameterError):
            verify_claim2d(sup2_spec, 0, g=0.8, count=10)
        report = verify_claim2d(sup2_spec, 0, g=-1.0, count=100, seed=2)
        assert report.sampled_max > 0.0

    def test_euclidean_g(self, euclid_factor_spec):
        report = verify_claim2d(euclid_factor_spec, 0,
                                g=np.array([1.0, 0.0]), count=500, seed=3)
        assert report.passed
        with pytest.raises(ParameterError):
            verify_claim2d(euclid_factor_spec, 0, count=10)
        with pytest.raises(ParameterError):
            verify_claim2d(euclid_factor_spec, 0, g=np.array([1.0, 1.0]),
                           count=10)

    def test_point_lookup(self, sup2_spec):
        by_index = verify_claim2d(sup2_spec, 2, count=100, seed=4)
        by_point = verify_claim2d(sup2_spec, sup2_spec.net.points[2],
                                  count=100, seed=4)
        assert by_index.sampled_max == by_point.sampled_max
        with pytest.raises(ParameterError):
            verify_claim2d(sup2_spec, 99, count=10)


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
