"""Slice operators, the exact injective norm, product boundary check."""

from __future__ import annotations

import numpy as np
import pytest

from smoothnorm.errors import ParameterError
from smoothnorm.spaces import (
    euclidean_space,
    lap_space,
    lorentz_predual_space,
    lorentz_space,
    sup_space,
)
from smoothnorm.tensor import (
    TensorElement,
    apply_fY,
    apply_gX,
    boundary_product_check,
    injective_norm,
    tensor_apply,
)

GEOM = [1.0, 0.5, 0.25, 0.125]


def pairing_oracle(f, M, g):
    """Direct double sum of f_i g_j u_ij."""
    total = 0.0
    for i in range(M.shape[0]):
        for j in range(M.shape[1]):
            total += f[i] * g[j] * M[i, j]
    return total


def element(M, dx=None, dy=None):
    M = np.atleast_2d(np.asarray(M, dtype=float))
    return TensorElement(M, sup_space(M.shape[0]),
                         euclidean_space(M.shape[1]))


class TestSlices:
    def test_rank_one_basis(self):
        u = element(np.outer([1.0, 0.0], [1.0, 0.0]))
        np.testing.assert_array_equal(apply_fY([1.0, 0.0], u), [1.0, 0.0])
        np.testing.assert_array_equal(apply_gX([1.0, 0.0], u), [1.0, 0.0])

    def test_identity_matrix(self):
        u = element(np.eye(2))
        np.testing.assert_array_equal(apply_fY([0.3, -0.7], u), [0.3, -0.7])
        np.testing.assert_array_equal(apply_gX([0.3, -0.7], u), [0.3, -0.7])

    def test_dimension_mismatch(self):
        u = element(np.ones((2, 3)))
        with pytest.raises(ParameterError):
            apply_fY([1.0, 0.0, 0.0], u)
        with pytest.raises(ParameterError):
            apply_gX([1.0, 0.0], u)
        with pytest.raises(ParameterError):
            tensor_apply(np.ones(2), np.ones(2), u)
        with pytest.raises(ParameterError):
            tensor_apply(np.ones(3), np.ones(3), u)

    def test_linear_in_both_arguments(self):
        rng = np.random.default_rng(5)
        M = rng.standard_normal((3, 2))
        u = element(M)
        f1, f2 = rng.standard_normal((2, 3))
        np.testing.assert_allclose(apply_fY(2.5 * f1 - f2, u),
                                   2.5 * apply_fY(f1, u) - apply_fY(f2, u),
                                   rtol=1e-12, atol=1e-12)


class TestPairingIdentity:
    def test_three_forms_agree_with_double_sum(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            dx, dy = rng.integers(1, 6, size=2)
            M = rng.standard_normal((dx, dy)) * 10.0 ** rng.integers(-2, 3)
            f = rng.standard_normal(dx)
            g = rng.standard_normal(dy)
            u = element(M)
            want = pairing_oracle(f, M, g)
            scale = max(1.0, abs(want))
            assert abs(tensor_apply(f, g, u) - want) <= 1e-12 * scale
            assert abs(float(apply_fY(f, u) @ g) - want) <= 1e-12 * scale
            assert abs(float(f @ apply_gX(g, u)) - want) <= 1e-12 * scale

    def test_pairing_is_the_double_sum_not_a_slice(self):
        """Where the left slice rounds 1e16 + 1 to 1e16, the slice form
        loses the pairing; tensor_apply keeps the double sum, so the
        three-way identity can fail on either leg."""
        f, g = np.array([1.0, 1.0]), np.array([1.0, -1.0])
        M = np.array([[1e16, 1e16], [1.0, 0.0]])
        u = element(M)
        assert float(apply_fY(f, u) @ g) == 0.0
        assert tensor_apply(f, g, u) == pairing_oracle(f, M, g) == 1.0


class TestInjectiveNormEnumerate:
    def test_identity_on_sup2(self):
        u = element(np.eye(2))
        res = injective_norm(u)
        assert res.value == 1.0
        assert np.sum(np.abs(res.f)) == 1.0
        np.testing.assert_allclose(np.linalg.norm(res.g), 1.0,
                                   rtol=1e-12)

    def test_matches_row_max_oracle(self):
        # same axis-norm path as the implementation, so equality is exact
        rng = np.random.default_rng(9)
        for _ in range(50):
            M = rng.standard_normal((4, 3))
            res = injective_norm(element(M))
            want = float(np.max(np.linalg.norm(M, axis=1)))
            assert res.value == want

    def test_predual_matches_extreme_point_scan(self):
        X = lorentz_predual_space(GEOM)
        Y = euclidean_space(2)
        rng = np.random.default_rng(17)
        M = rng.standard_normal((4, 2))
        res = injective_norm(TensorElement(M, X, Y))
        want = max(float(np.linalg.norm(f @ M))
                   for f in X.dual_extreme_points())
        assert res.value == want

    def test_rank_one_multiplicativity(self):
        rng = np.random.default_rng(33)
        for X in (sup_space(4), lorentz_predual_space(GEOM)):
            for _ in range(20):
                x = rng.standard_normal(4)
                y = rng.standard_normal(3)
                u = TensorElement(np.outer(x, y), X, euclidean_space(3))
                res = injective_norm(u)
                np.testing.assert_allclose(
                    res.value, X.norm(x) * np.linalg.norm(y), rtol=1e-12)

    def test_scalar_factor_recovers_base_norm(self):
        rng = np.random.default_rng(2)
        for X in (sup_space(5), lorentz_predual_space(GEOM)):
            for _ in range(20):
                x = rng.standard_normal(X.dim)
                u = TensorElement(x[:, None], X, euclidean_space(1))
                res = injective_norm(u)
                np.testing.assert_allclose(res.value, X.norm(x), rtol=1e-12)

    def test_zero_element(self):
        res = injective_norm(element(np.zeros((3, 2))))
        assert res.value == 0.0

    def test_slice_norm_bounded_by_dual_times_injective(self):
        rng = np.random.default_rng(8)
        X = sup_space(3)
        for _ in range(50):
            M = rng.standard_normal((3, 2))
            u = TensorElement(M, X, euclidean_space(2))
            norm = injective_norm(u).value
            f = rng.standard_normal(3)
            lhs = np.linalg.norm(apply_fY(f, u))
            assert lhs <= X.dual_norm(f) * norm + 1e-12 * max(1.0, lhs)

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            injective_norm(np.eye(2))
        u = TensorElement(np.eye(2), euclidean_space(2), euclidean_space(2))
        with pytest.raises(ParameterError):
            injective_norm(u)
        v = TensorElement(np.eye(2), sup_space(2), sup_space(2))
        with pytest.raises(ParameterError):
            injective_norm(v)


class TestInjectiveNormRefusal:
    def test_lorentz_refused(self):
        rng = np.random.default_rng(4)
        X, Y = lorentz_space(GEOM), euclidean_space(2)
        # the zero element too: the refusal depends on X alone
        for M in (rng.standard_normal((4, 2)), np.zeros((4, 2))):
            with pytest.raises(ParameterError, match="'lorentz'"):
                injective_norm(TensorElement(M, X, Y))

    def test_lap_refused(self):
        rng = np.random.default_rng(6)
        X = lap_space([[0], [1, 2]], [1.0, 2.0], dim=3)
        u = TensorElement(rng.standard_normal((3, 3)), X, euclidean_space(3))
        with pytest.raises(ParameterError, match="'lap'"):
            injective_norm(u)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_refused(self, bad):
        """A NaN entry used to give value nan with f = e_0 and g = 0, and
        an inf one a RuntimeWarning in the slice norms; the product check
        took the NaN value as a unit sample."""
        M = np.full((3, 2), 0.25)
        M[1, 0] = bad
        u = TensorElement(M, sup_space(3), euclidean_space(2))
        with pytest.raises(ParameterError,
                           match="row 1 has a NaN or infinite coordinate"):
            injective_norm(u)
        with pytest.raises(ParameterError,
                           match="row 1 has a NaN or infinite coordinate"):
            boundary_product_check(np.eye(3), np.eye(2), [u])


class TestBoundaryProduct:
    def circle(self, n):
        t = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
        return np.column_stack([np.cos(t), np.sin(t)])

    def test_identity_with_sampled_circle(self):
        N = np.vstack([np.eye(2), -np.eye(2)])
        M = self.circle(10_000)
        u = element(np.eye(2))
        report = boundary_product_check(N, M, [u], tol=1e-4)
        assert report.passed

    def test_rotation_needs_the_sampled_surrogate(self):
        c, s = np.cos(0.3), np.sin(0.3)
        u = element(np.array([[c, s], [-s, c]]))
        N = np.vstack([np.eye(2), -np.eye(2)])
        report = boundary_product_check(N, self.circle(10_000), [u],
                                        tol=1e-4)
        assert report.passed
        # the grid misses the exact angle but lands within its spacing
        assert 0.0 < report.max_deficit < 1e-6

    def test_exact_attainment_on_basis_tensor(self):
        u = element(np.outer([1.0, 0.0], [1.0, 0.0]))
        N = np.vstack([np.eye(2), -np.eye(2)])
        M = np.vstack([np.eye(2), -np.eye(2)])
        report = boundary_product_check(N, M, [u], tol=1e-12)
        assert report.passed
        assert report.values[0] == 1.0

    def test_rank_one_attained_by_norming_pair(self):
        rng = np.random.default_rng(21)
        x = rng.standard_normal(3)
        y = rng.standard_normal(2)
        X = sup_space(3)
        M = np.outer(x, y) / (X.norm(x) * np.linalg.norm(y))
        u = TensorElement(M, X, euclidean_space(2))
        N = np.vstack([np.eye(3), -np.eye(3)])
        G = np.vstack([self.circle(100), y[None, :] / np.linalg.norm(y)])
        report = boundary_product_check(N, G, [u], tol=1e-9)
        assert report.passed
        assert report.g_index[0] == 100

    def test_missing_face_fails_without_raising(self):
        u = element(-np.outer([1.0, 0.0], [1.0, 0.0]))
        report = boundary_product_check(np.array([[1.0, 0.0]]),
                                        np.array([[1.0, 0.0]]), [u])
        assert not report.passed
        assert report.values[0] == -1.0
        assert report.max_deficit == 2.0

    def test_unnormalized_sample_rejected(self):
        with pytest.raises(ParameterError):
            boundary_product_check(np.eye(2), np.eye(2),
                                   [element(2.0 * np.eye(2))])

    def test_empty_sample_set_refused(self):
        # no sample used to pass, with max_deficit 0.0
        with pytest.raises(ParameterError, match="empty"):
            boundary_product_check(np.eye(2), np.eye(2), [])

    def test_ascent_normalization_flagged(self):
        X = lorentz_space(GEOM)
        rng = np.random.default_rng(14)
        x = rng.standard_normal(4)
        y = rng.standard_normal(2)
        M = np.outer(x, y) / (X.norm(x) * np.linalg.norm(y))
        u = TensorElement(M, X, euclidean_space(2))
        f = X.norming_functional(x)
        G = (y / np.linalg.norm(y))[None, :]
        with pytest.raises(ParameterError):
            boundary_product_check(f[None, :], G, [u], tol=1e-9)
