"""Tests for smooth Orlicz functions and generalized Luxemburg norms.

Expected values come from independent oracles computed in this file:
scipy.integrate.quad for normalization constants (benign widths), mpmath
exponential integrals for the log-space evaluation (thin widths), dense
grid scans for one-dimensional Luxemburg infima, and closed-form p-norms
for power families.
"""

import hashlib
import itertools
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from smoothnorm import orlicz as orlicz_module
from smoothnorm.errors import NumericError, ParameterError
from smoothnorm.orlicz import (
    _ASYM_SWITCH,
    _TINY_SERIES,
    Lemma1Report,
    OrliczFamily,
    _log_g,
    check_lemma1_bounds,
    luxemburg_norm,
    luxemburg_norm_batch,
    make_orlicz,
    modular_inverse,
    newton_scales,
)
from smoothnorm.scaling import feasible_scale_inf
from smoothnorm.spaces import lap_space

# Frozen from the quad oracle below: 1.5 / int_0.5^1 exp(-1/(s-0.5)) ds.
SCALE_HALF_ONE = 79.92697483562232


def quad_scale(a, b, margin=0.5):
    """Independent normalization oracle: (1+margin)/int_a^b exp(-1/(s-a))."""
    val, err = quad(lambda s: math.exp(-1.0 / (s - a)) if s > a else 0.0,
                    a, b, epsabs=1e-14, epsrel=1e-12, limit=200)
    assert err < 1e-12
    return (1.0 + margin) / val


class TestMakeOrlicz:
    def test_value_at_exceed_threshold_is_one_plus_margin(self):
        f = make_orlicz(0.5, 1.0)
        assert f(1.0) == 1.5

    def test_flat_region_exact_zero(self):
        f = make_orlicz(0.5, 1.0)
        assert f(0.0) == 0.0
        assert f(0.25) == 0.0
        assert f(0.5) == 0.0
        assert f(0.3, order=1) == 0.0
        assert f(0.5, order=2) == 0.0

    def test_scale_against_quad_oracle(self):
        f = make_orlicz(0.5, 1.0)
        np.testing.assert_allclose(f.scale, quad_scale(0.5, 1.0), rtol=1e-10)
        np.testing.assert_allclose(f.scale, SCALE_HALF_ONE, rtol=1e-12)
        g = make_orlicz(1.0, 2.0)
        np.testing.assert_allclose(g.scale, quad_scale(1.0, 2.0), rtol=1e-10)

    def test_value_against_quad_oracle_midpoints(self):
        f = make_orlicz(0.5, 1.0)
        for t in [0.6, 0.75, 0.9, 1.3, 2.0]:
            ref, err = quad(lambda s: math.exp(-1.0 / (s - 0.5)), 0.5, t,
                            epsabs=1e-15, epsrel=1e-13, limit=200)
            np.testing.assert_allclose(f(t), quad_scale(0.5, 1.0) * ref,
                                       rtol=1e-9)

    def test_thin_width_against_mpmath_oracle(self):
        """Widths ~1e-3 underflow direct quadrature; the log-space route
        must still match arbitrary-precision exponential integrals."""
        mp.mp.dps = 60
        a, b = 0.94, 0.9412
        f = make_orlicz(a, b)

        def mp_value(t):
            g = lambda x: mp.mpf(x) * mp.expint(2, 1 / mp.mpf(x))
            return float(mp.mpf(1.5) * g(t - a) / g(b - a))

        for t in [0.9403, 0.9406, 0.941, 0.9412, 0.95, 1.0]:
            np.testing.assert_allclose(f(t), mp_value(t), rtol=1e-10)

    def test_cached_per_threshold_pair(self):
        assert make_orlicz(0.5, 1.0) is make_orlicz(0.5, 1.0)

    def test_bad_thresholds_rejected(self):
        with pytest.raises(ParameterError):
            make_orlicz(1.0, 0.5)
        with pytest.raises(ParameterError):
            make_orlicz(0.0, 1.0)

    def test_unbounded_growth(self):
        f = make_orlicz(0.5, 1.0)
        ts = np.array([1.0, 2.0, 5.0, 10.0, 100.0, 1000.0])
        vals = f(ts)
        assert np.all(np.diff(vals) > 0)
        assert vals[-1] > 1e4


class TestOrliczEval:
    def test_closed_form_first_derivative(self):
        f = make_orlicz(1.0, 2.0)
        expected = f.scale * math.exp(-1.0 / 0.5)
        np.testing.assert_allclose(f(1.5, order=1), expected,
                                   rtol=1e-12)

    def test_first_derivative_vs_central_difference(self):
        f = make_orlicz(1.0, 2.0)
        h = 1e-6
        for t in [1.2, 1.5, 1.9, 2.5]:
            fd = (f(t + h) - f(t - h)) / (2.0 * h)
            assert abs(f(t, order=1) - fd) <= 1e-7 * max(1, fd)

    def test_second_derivative_vs_central_difference(self):
        f = make_orlicz(1.0, 2.0)
        h = 1e-5
        for t in [1.3, 1.5, 2.0]:
            fd = (f(t + h) - 2.0 * f(t) + f(t - h)) / h**2
            np.testing.assert_allclose(f(t, order=2), fd,
                                       rtol=1e-5)

    def test_convexity_second_derivative_nonnegative(self):
        f = make_orlicz(0.5, 1.0)
        ts = np.linspace(0.0, 3.0, 301)
        assert np.all(f(ts, order=2) >= 0.0)

    def test_negative_t_rejected(self):
        f = make_orlicz(0.5, 1.0)
        with pytest.raises(ParameterError):
            f(-0.1)

    def test_bad_order_rejected(self):
        f = make_orlicz(0.5, 1.0)
        with pytest.raises(ParameterError):
            f(1.0, order=3)


def on_array_path(x):
    """_log_g of each entry of x, each placed first in an array whose
    series entries outnumber _TINY_SERIES, so the in-place numpy loop
    evaluates it."""
    pad = np.full(_TINY_SERIES + 1, 0.5 * _ASYM_SWITCH)
    return np.array([_log_g(np.concatenate([[v], pad]))[0]
                     for v in np.ravel(x)])


series_floats = st.floats(min_value=0.0, max_value=_ASYM_SWITCH,
                          exclude_min=True, exclude_max=True)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
class TestLogGTinyPath:
    """Few series entries run the Horner loop on Python floats; the
    values are the array loop's to the bit (subnormal x gives -inf)."""

    @settings(max_examples=200, deadline=None)
    @given(xs=st.lists(series_floats, min_size=1, max_size=_TINY_SERIES))
    def test_series_entries(self, xs):
        assert np.array_equal(_log_g(np.array(xs)), on_array_path(xs))

    @settings(max_examples=100, deadline=None)
    @given(v=series_floats)
    def test_zero_dimensional(self, v):
        """OrliczFunction.__init__ passes its width as a 0-d array."""
        got = _log_g(np.asarray(v))
        assert got.shape == ()
        assert np.array_equal(got, on_array_path(v)[0])

    @settings(max_examples=100, deadline=None)
    @given(xs=st.lists(st.one_of(series_floats,
                                 st.floats(min_value=_ASYM_SWITCH,
                                           max_value=10.0)),
                       min_size=1, max_size=_TINY_SERIES + 4))
    def test_both_sides_of_the_switch(self, xs):
        assert np.array_equal(_log_g(np.array(xs)), on_array_path(xs))


def power_family(p, size):
    fn = lambda s: np.asarray(s, dtype=float) ** p
    return OrliczFamily([fn] * size)


class TestLuxemburgNorm:
    def test_power_family_is_p_norm(self):
        """phi_t(s) = s^p gives the plain p-norm, the closed-form anchor."""
        rng = np.random.default_rng(42)
        for p in (1.0, 2.0, 4.0):
            for dim in (1, 3, 8, 16):
                fam = power_family(p, dim)
                for _ in range(10):
                    c = rng.standard_normal(dim)
                    expected = np.sum(np.abs(c) ** p) ** (1.0 / p)
                    got = luxemburg_norm(fam, c)
                    np.testing.assert_allclose(got, expected, rtol=1e-9)

    def test_frozen_power_example(self):
        fam = power_family(2.0, 2)
        np.testing.assert_allclose(luxemburg_norm(fam, [3.0, 4.0]), 5.0,
                                   rtol=1e-9)

    def test_zero_vector(self):
        fam = power_family(2.0, 3)
        assert luxemburg_norm(fam, [0.0, 0.0, 0.0]) == 0.0

    def test_single_coordinate_grid_oracle(self):
        """1-d family phi = bump(1/1.1, 1): the norm solves phi(1/rho) = 1,
        rho in (1, 1.1).  Oracle: dense grid scan of the feasibility set."""
        f = make_orlicz(1.0 / 1.1, 1.0)
        fam = OrliczFamily([f])
        got = luxemburg_norm(fam, [1.0])
        rhos = np.linspace(1.0, 1.1, 100001)
        feas = f(1.0 / rhos) <= 1.0
        oracle = rhos[np.argmax(feas)]  # first feasible rho on the grid
        assert 1.0 < got < 1.1
        assert abs(got - oracle) <= 2e-5
        np.testing.assert_allclose(f(1.0 / got), 1.0, rtol=1e-6)

    def test_certified_feasibility_exact(self):
        """Modular at the returned value is <= 1 with no tolerance, and
        the batched path returns the scalar value bit for bit."""
        rng = np.random.default_rng(7)
        f = make_orlicz(0.5, 1.0)
        for dim, kind in itertools.product((1, 4, 9), ("bump", "power")):
            fam = (OrliczFamily([f, make_orlicz(2.0, 3.0)] * dim)
                   if kind == "bump" else power_family(3.0, 2 * dim))
            rows = (rng.standard_normal((20, 2 * dim))
                    * rng.uniform(0.1, 10, size=(20, 1)))
            batch = luxemburg_norm_batch(fam, rows)
            for c, value in zip(rows, batch):
                got = luxemburg_norm(fam, c)
                bracket = feasible_scale_inf(
                    lambda z, _: fam.modular_rows(z), c[None])
                assert got == value
                assert luxemburg_norm_batch(fam, [c])[0] == value
                assert fam.modular(np.abs(c) / got) <= 1.0
                assert fam.modular(np.abs(c) / bracket.hi[0]) <= 1.0
                assert fam.modular(np.abs(c) / bracket.lo[0]) > 1.0
            assert np.all(fam.modular_rows(np.abs(rows) / batch[:, None])
                          <= 1.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_bracketing_failure_reports_finite_bracket(self):
        """A family that is never feasible (doubling fails) or always
        feasible (halving fails) raises with the row's finite bracket,
        and without a RuntimeWarning: a scaled row that overflows to inf
        reads as infeasible."""
        never = lambda s: 2.0 + np.asarray(s, dtype=float)
        always = lambda s: np.zeros_like(np.asarray(s, dtype=float))
        for fn in (never, always):
            fam = OrliczFamily([fn] * 3)
            for call in (lambda: luxemburg_norm(fam, [1.0, -2.0, 0.5]),
                         lambda: luxemburg_norm_batch(
                             fam, [[0.0, 0.0, 0.0], [1.0, -2.0, 0.5]])):
                with pytest.raises(NumericError) as info:
                    call()
                lo, hi = info.value.bracket
                assert np.isfinite(lo) and np.isfinite(hi)
                assert 0.0 < lo < hi

    def test_monotone_in_coordinates(self):
        rng = np.random.default_rng(3)
        f = make_orlicz(0.8, 1.2)
        fam = OrliczFamily([f] * 5)
        for _ in range(50):
            c = np.abs(rng.standard_normal(5))
            bigger = c + np.abs(rng.standard_normal(5)) * 0.5
            assert (luxemburg_norm(fam, c)
                    <= luxemburg_norm(fam, bigger) * (1 + 1e-9))

    def test_shape_mismatch_rejected(self):
        fam = power_family(2.0, 3)
        with pytest.raises(ParameterError):
            luxemburg_norm(fam, [1.0, 2.0])

    def test_empty_family_rejected(self):
        with pytest.raises(ParameterError):
            OrliczFamily([])


class TestStackedFamily:
    """A family of OrliczFunctions is evaluated from stacked constants;
    each member evaluated on its own column is the reference."""

    def test_modular_rows_matches_per_function_loop(self):
        rng = np.random.default_rng(5)
        fns = [make_orlicz(a, a + w) for a, w in
               zip(rng.uniform(0.1, 2.0, 12), rng.uniform(1e-3, 1.0, 12))]
        fam = OrliczFamily(fns)
        rows = np.abs(rng.standard_normal((40, 12))) * 2.0
        loop = np.array([sum(f(x) for f, x in zip(fns, row))
                         for row in rows])
        np.testing.assert_allclose(fam.modular_rows(rows), loop,
                                   rtol=1e-14, atol=0.0)
        for row, expected in zip(rows, loop):
            np.testing.assert_allclose(fam.modular(row), expected,
                                       rtol=1e-14, atol=0.0)

    def test_negative_entries_rejected(self):
        fam = OrliczFamily([make_orlicz(0.5, 1.0)] * 2)
        with pytest.raises(ParameterError):
            fam.modular_rows(np.array([[0.1, -0.1]]))

    def test_stacked_thresholds_match_members(self):
        rng = np.random.default_rng(6)
        fns = [make_orlicz(a, a + w) for a, w in
               zip(rng.uniform(0.1, 2.0, 9), rng.uniform(1e-3, 1.0, 9))]
        fam = OrliczFamily(fns)
        np.testing.assert_array_equal(
            fam.zero_thresholds, [fn.zero_threshold for fn in fns])
        np.testing.assert_array_equal(
            fam.exceed_thresholds, [fn.exceed_threshold for fn in fns])
        plain = power_family(2.0, 3)
        assert plain.zero_thresholds is None
        assert plain.exceed_thresholds is None

    def test_mixed_family_takes_the_group_path(self):
        """Bumps and plain callables together are evaluated per group of
        one callable, each group its columns in order."""
        a, b = make_orlicz(0.5, 1.0), make_orlicz(0.25, 0.75)
        square = lambda s: np.asarray(s, dtype=float) ** 2
        fns = [a, a, square, b, a, square]
        fam = OrliczFamily(fns)
        assert fam.zero_thresholds is None and fam.exceed_thresholds is None
        assert [(fn, idx.tolist()) for fn, idx in fam._groups] == [
            (a, [0, 1, 4]), (square, [2, 5]), (b, [3])]
        rows = np.random.default_rng(9).uniform(0.0, 2.0, (5, 6))
        loop = np.array([sum(f(x) for f, x in zip(fns, row))
                         for row in rows])
        np.testing.assert_allclose(fam.modular_rows(rows), loop,
                                   rtol=1e-14, atol=0.0)

    def test_column_indices_select_members(self):
        """Entries given with their member indices sum exactly as the
        full rows, in the same order, when every left-out entry is at or
        below its zero threshold; the inert slot len(family) adds 0."""
        rng = np.random.default_rng(8)
        m = 10
        fns = [make_orlicz(a, a + w) for a, w in
               zip(rng.uniform(0.1, 2.0, m), rng.uniform(1e-3, 1.0, m))]
        fam = OrliczFamily(fns)
        zero = fam.zero_thresholds
        full = rng.uniform(0.0, 3.0, (30, m))
        keep = rng.random((30, m)) < 0.4
        full[~keep] = np.minimum(full[~keep], np.broadcast_to(
            zero, full.shape)[~keep])
        width = keep.sum(axis=1).max() + 2
        cols = np.full((30, width), m)
        rows = np.full((30, width), 1e300)  # inert slots: never counted
        for i in range(30):
            j = np.flatnonzero(keep[i])
            cols[i, :len(j)] = j
            rows[i, :len(j)] = full[i, j]
        assert np.array_equal(fam.modular_rows(rows, cols),
                              fam.modular_rows(full))
        assert np.array_equal(
            fam.modular_rows(full, np.arange(m)[None]),
            fam.modular_rows(full))
        assert np.array_equal(fam.modular_rows(rows[:1], cols[:1]),
                              fam.modular_rows(full[:1]))

    def test_column_index_errors(self):
        fam = OrliczFamily([make_orlicz(0.5, 1.0)] * 3)
        with pytest.raises(ParameterError):
            fam.modular_rows(np.ones((2, 2)), np.zeros((2, 3), dtype=int))
        with pytest.raises(ParameterError):
            fam.modular_rows(np.ones((3, 2)), np.zeros((2, 2), dtype=int))
        with pytest.raises(ParameterError):
            fam.modular_rows(np.ones((1, 2)))
        with pytest.raises(ParameterError, match="OrliczFunctions"):
            power_family(2.0, 3).modular_rows(
                np.ones((1, 2)), np.zeros((1, 2), dtype=int))

    @pytest.mark.parametrize("bad", [-1, -2, -3, 4, 2 ** 40])
    def test_column_index_out_of_range_rejected(self, bad):
        """Indices run over [0, len(family)]: -1 used to read the inert
        slot, -2 the last member, and 4 raised numpy's IndexError.  The
        first bad entry in row order is named."""
        fam = OrliczFamily([make_orlicz(0.5, 1.0)] * 3)
        rows = np.full((2, 3), 2.0)
        for cols, where in (([[0, 1, bad], [bad, 2, 3]], (0, 2)),
                            ([[3, bad, 0]], (0, 1))):
            with pytest.raises(ParameterError,
                               match=rf"^column index {bad} at "
                                     rf"\({where[0]}, {where[1]}\) is "
                                     rf"outside \[0, 3\]$"):
                fam.modular_rows(rows[:len(cols)], np.array(cols))

    @pytest.mark.parametrize("cols", [np.zeros((1, 2)),
                                      np.ones((1, 2), dtype=bool),
                                      np.array([[0, 1.5]])])
    def test_non_integer_columns_rejected(self, cols):
        fam = OrliczFamily([make_orlicz(0.5, 1.0)] * 3)
        with pytest.raises(ParameterError, match="must be integers"):
            fam.modular_rows(np.ones((1, 2)), cols)

    def test_every_index_in_range_accepted(self):
        """0, len(family) and a list of lists are all valid columns; an
        empty call returns no rows."""
        fam = OrliczFamily([make_orlicz(0.5, 1.0)] * 3)
        assert fam.modular_rows([[2.0, 2.0]], [[0, 3]])[0] == fam.modular(
            [2.0, 0.0, 0.0])
        assert fam.modular_rows(np.zeros((0, 2)),
                                np.zeros((0, 2), dtype=int)).shape == (0,)


class TestModularInverse:
    # fresh objects, so make_orlicz's shared cache is not touched
    BUMPS = [orlicz_module.OrliczFunction(0.5, 1.0),
             orlicz_module.OrliczFunction(0.9411764705882353,
                                          0.9421000981354268),
             orlicz_module.OrliczFunction(1e-3, 2.5e3)]

    def test_largest_feasible_float(self):
        """z*(k) meets the modular as modular_rows computes it, and the
        next float does not."""
        for fn, k in itertools.product(self.BUMPS, (1, 2, 3, 6)):
            z = float(modular_inverse([fn], [k])[0])
            fam = OrliczFamily([fn] * k)
            assert fam.modular_rows(np.full((1, k), z))[0] <= 1.0
            assert fam.modular_rows(
                np.full((1, k), np.nextafter(z, np.inf)))[0] > 1.0
            assert fn.zero_threshold < z < fn.exceed_threshold

    def test_cached_and_independent_of_fill_order(self, monkeypatch):
        pairs = list(itertools.product(self.BUMPS, (1, 2, 4)))
        together = modular_inverse(*zip(*pairs))
        for fn in self.BUMPS:
            fn._inverse.clear()
        alone = [modular_inverse([fn], [k])[0] for fn, k in pairs[::-1]]
        assert np.array_equal(together, alone[::-1])
        monkeypatch.setattr(orlicz_module, "_bump", None)  # no evaluation
        assert np.array_equal(modular_inverse(*zip(*pairs)), together)


class TestNewtonScales:
    BUMPS = TestModularInverse.BUMPS

    def test_lands_on_the_root(self):
        """From a start 1e-4 relative above the root (renorm's table
        starts are about 1e-8 above it), the proposal is within 2 floats
        of feasible_scale_inf's value at tol=0 on rows of mixed bumps; a
        term's row is given by owner."""
        fam = OrliczFamily(self.BUMPS)
        rng = np.random.default_rng(4)
        rows = rng.uniform(0.2, 1.0, (50, 3))
        rows[:, 0] = 1.0
        want = feasible_scale_inf(lambda z, _: fam.modular_rows(z), rows,
                                  tol=0.0).hi
        owner = np.repeat(np.arange(50), 3)
        got = newton_scales(fam, rows.ravel(), np.tile(np.arange(3), 50),
                            owner, want * (1.0 + 1e-4))
        assert np.all(np.abs(got - want) <= 2 * np.spacing(want))

    def test_no_term_above_threshold_is_not_finite(self):
        """At a start where every term is 0, the proposal is not finite
        (the caller falls back), and no warning is raised."""
        fam = OrliczFamily(self.BUMPS[:1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = newton_scales(fam, np.array([0.4, 1.0]), np.zeros(2, int),
                                np.array([0, 1]), np.array([1.0, np.nan]))
        assert not np.isfinite(got).any()


def segments(idx):
    """idx split where it stops increasing."""
    return np.split(idx, np.flatnonzero(np.diff(idx) <= 0) + 1)


def test_modular_receives_row_indices():
    """feasible_scale_inf hands the modular each block's row positions
    in the batch: the block rows are those rows, rescaled, increasing
    within each segment of a call.  Every solve opens with the start
    round, which checks every live row at both ends of its bracket and,
    where a start was taken, at its certificate: two segments in one
    call without a start, three from one; later calls have one."""
    rng = np.random.default_rng(9)
    rows = rng.standard_normal((12, 4)) * rng.uniform(0.1, 5.0, (12, 1))
    rows[3] = 0.0
    fam = power_family(2.0, 4)
    plain = lambda z, _: fam.modular_rows(z)
    peak = np.abs(rows).max(axis=1)
    unit = np.abs(rows) / np.where(peak > 0.0, peak, 1.0)[:, None]
    # a right start: the bracket of the peak-normalized rows
    right = feasible_scale_inf(plain, unit, tol=0.0)
    live = set(range(12)) - {3}
    first = []
    for kwargs, most in (({}, 2),
                         ({"tol": 0.0, "start": (right.lo, right.hi)}, 3)):
        seen = []

        def modular(z, idx):
            seen.append(idx.copy())
            ratio = z / np.abs(rows[idx])
            np.testing.assert_allclose(ratio, np.broadcast_to(
                ratio[:, :1], ratio.shape), rtol=1e-12)
            return fam.modular_rows(z)

        values = feasible_scale_inf(modular, rows, **kwargs).hi
        assert np.array_equal(values,
                              feasible_scale_inf(plain, rows, **kwargs).hi)
        assert all(len(segments(idx)) <= most and 3 not in idx
                   for idx in seen)
        assert any(set(idx.tolist()) == live for idx in seen)
        first.append([len(part) for part in segments(seen[0])])
    assert first == [[11, 11], [11, 11, 11]]
    assert np.array_equal(feasible_scale_inf(plain, rows).hi,
                          luxemburg_norm_batch(fam, rows))


# sha256 of (lo, hi, iterations) of the five solves of
# test_solve_without_start_pinned
NO_START_SHA256 = (
    "4b40be643ad7e15b653671f34bae0e456b1f27430f3c9da8ac651699236c0c20")


def test_solve_without_start_pinned():
    """The solve without a start, on a power family and a mixed bump
    family at tol 1e-10 and 0.0 and on a lap modular, over rows at
    scales 10^U(-3, 3) with zero rows: lo, hi and iterations are pinned
    bit for bit, and so are the modular calls.  The first call checks
    every live row at both ends of the default bracket (1/2, 1), one
    call fewer than checking each end in a call of its own."""
    rng = np.random.default_rng(23)
    rows = (rng.standard_normal((300, 6))
            * 10.0 ** rng.uniform(-3.0, 3.0, (300, 1)))
    rows[::25] = 0.0
    power = power_family(3.0, 6)
    mixed = OrliczFamily([make_orlicz(0.5, 1.0), make_orlicz(2.0, 3.0),
                          make_orlicz(0.8, 1.2)] * 2)
    lap = lap_space([[0, 1], [2, 3, 4], [5], [1, 4]],
                    [1.0, 1.5, 2.0, 3.0], dim=6)
    digest = hashlib.sha256()
    calls = []
    for modular, tol in ((power.modular_rows, 1e-10),
                         (power.modular_rows, 0.0),
                         (mixed.modular_rows, 1e-10),
                         (mixed.modular_rows, 0.0),
                         (lap._lap_modular_rows, 1e-10)):
        seen = []

        def counting(z, _, modular=modular):
            seen.append(len(z))
            return modular(z)

        got = feasible_scale_inf(counting, rows, tol=tol)
        digest.update(got.lo.tobytes() + got.hi.tobytes()
                      + str(got.iterations).encode())
        calls.append(len(seen))
    assert digest.hexdigest() == NO_START_SHA256
    assert calls == [37, 56, 38, 57, 38]


class TestInitialBracket:
    """feasible_scale_inf's start is a per-row bracket (lo, hi) on the
    peak-normalized scale: a right one costs one modular call, which
    checks both its ends and the certificate, and any other gives the
    unbracketed value."""

    FAMILY = power_family(3.0, 4)

    def count(self):
        calls = []

        def modular(z, _):
            calls.append(len(z))
            return self.FAMILY.modular_rows(z)

        return modular, calls

    def rows(self, scale):
        rng = np.random.default_rng(31)
        rows = rng.standard_normal((16, 4))
        return scale * rows / np.abs(rows).max(axis=1, keepdims=True)

    def test_right_bracket_costs_two_checks(self):
        """Both ends and the certificate of every row in one call of 3n
        rows; the unbracketed bisection takes dozens of steps."""
        rows = self.rows(1.0)
        modular, calls = self.count()
        plain = feasible_scale_inf(modular, rows, tol=0.0)
        assert len(calls) > 40 and plain.iterations > 40 * len(rows)
        calls.clear()
        got = feasible_scale_inf(modular, rows, tol=0.0,
                                 start=(plain.lo, plain.hi))
        assert calls == [3 * len(rows)]
        assert got.iterations == 0
        assert np.array_equal(got.hi, plain.hi)

    def test_refused_start_certificate_still_nudges(self):
        """A modular that refuses the certificate at the start's hi for
        some rows: the start round takes that certificate, and those
        rows are nudged as the solve without a start nudges them, with
        no second check at the refused hi."""
        rows = self.rows(3.0)
        peak = np.abs(rows).max(axis=1)
        unit = np.abs(rows) / peak[:, None]
        right = feasible_scale_inf(lambda z, _: self.FAMILY.modular_rows(z),
                                   unit, tol=0.0)
        # the certificate's z at the start's hi, where it differs from the
        # normalized check at the same hi
        target = np.abs(rows) / (peak * right.hi)[:, None]
        chosen = np.flatnonzero(
            (target != unit / right.hi[:, None]).any(axis=1))[::2]
        assert chosen.size >= 3

        calls = []

        def refusing(z, idx):
            calls.append(len(z))
            out = self.FAMILY.modular_rows(z)
            hit = np.isin(idx, chosen) & (z == target[idx]).all(axis=1)
            out[hit] = 2.0
            return out

        plain = feasible_scale_inf(refusing, rows, tol=0.0)
        unrefused = feasible_scale_inf(
            lambda z, _: self.FAMILY.modular_rows(z), rows, tol=0.0)
        nudged = np.zeros(len(rows), dtype=bool)
        nudged[chosen] = True
        assert np.array_equal(plain.hi[nudged],
                              np.nextafter(unrefused.hi[nudged], np.inf))
        assert np.array_equal(plain.hi[~nudged], unrefused.hi[~nudged])
        calls.clear()
        got = feasible_scale_inf(refusing, rows, tol=0.0,
                                 start=(right.lo, right.hi))
        # the start round, then the refused rows once, nudged
        assert calls == [3 * len(rows), chosen.size]
        assert np.array_equal(got.hi, plain.hi)
        assert np.array_equal(got.lo, plain.lo)
        assert got.iterations == 0

    @pytest.mark.parametrize("scale", [1.0, 1e-300, 1e300])
    def test_wrong_brackets_give_the_unbracketed_value(self, scale):
        rows = self.rows(scale)
        modular, _ = self.count()
        plain = feasible_scale_inf(modular, rows, tol=0.0).hi
        s = plain / np.abs(rows).max(axis=1)
        nan = np.full_like(s, np.nan)
        starts = {"hi infeasible": (s / 4.0, s / 2.0),
                  "lo feasible": (2.0 * s, 4.0 * s),
                  "far below": (s * 2.0 ** -60, s * 2.0 ** -59),
                  "far above": (s * 2.0 ** 60, s * 2.0 ** 61),
                  "nan": (nan, nan), "nan lo": (nan, s),
                  "inverted": (2.0 * s, s / 2.0), "empty": (s, s),
                  "zero lo": (0.0 * s, s), "negative": (-s, -s / 2.0),
                  "infinite hi": (s / 2.0, np.inf * s)}
        for name, start in starts.items():
            got = feasible_scale_inf(modular, rows, tol=0.0, start=start)
            assert np.array_equal(got.hi, plain), name
        pick = np.arange(len(rows)) % len(starts)
        mixed = tuple(np.choose(pick, ends) for ends in zip(*starts.values()))
        got = feasible_scale_inf(modular, rows, tol=0.0, start=mixed)
        assert np.array_equal(got.hi, plain)


def nonfinite_vectors(dim):
    finite = st.floats(min_value=-50.0, max_value=50.0,
                       allow_nan=False, allow_infinity=False)
    bad = st.sampled_from([math.nan, math.inf, -math.inf])
    return st.tuples(st.lists(finite, min_size=dim, max_size=dim),
                     st.integers(0, dim - 1), bad).map(
        lambda t: np.asarray(t[0][:t[1]] + [t[2]] + t[0][t[1] + 1:]))


class TestNonFiniteRejected:
    """NaN or inf coordinates raise ParameterError on every path; a NaN
    row used to read as the zero vector."""

    @settings(max_examples=40, deadline=None)
    @given(c=nonfinite_vectors(4), kind=st.sampled_from(["bump", "power"]))
    def test_scalar_and_batch(self, c, kind):
        fam = (OrliczFamily([make_orlicz(0.7, 1.3)] * 4) if kind == "bump"
               else power_family(2.0, 4))
        with pytest.raises(ParameterError):
            luxemburg_norm(fam, c)
        with pytest.raises(ParameterError):
            luxemburg_norm_batch(fam, np.vstack([np.ones(4), c]))

    def test_modular_nan_or_negative(self):
        """A NaN argument used to read as 0, and a plain-callable family
        skipped the sign check."""
        f = make_orlicz(0.5, 1.0)
        bump = OrliczFamily([f] * 2)
        power = power_family(2.0, 2)
        with pytest.raises(ParameterError):
            f(math.nan)
        with pytest.raises(ParameterError):
            f(np.array([0.7, math.nan]))
        for fam in (bump, power):
            for bad in ([math.nan, 0.9], [-3.0, 0.5]):
                with pytest.raises(ParameterError):
                    fam.modular(bad)
                with pytest.raises(ParameterError):
                    fam.modular_rows(np.array([[0.9, 0.9], bad]))


@st.composite
def vectors(draw, dim):
    vals = st.floats(min_value=-50.0, max_value=50.0,
                     allow_nan=False, allow_infinity=False)
    return np.asarray(draw(st.lists(vals, min_size=dim, max_size=dim)))


class TestLuxemburgNormAxioms:
    """Norm axioms as randomized properties at bracket precision."""

    @settings(max_examples=40, deadline=None)
    @given(c=vectors(4), lam=st.floats(min_value=-8.0, max_value=8.0,
                                       allow_nan=False))
    def test_homogeneity(self, c, lam):
        fam = OrliczFamily([make_orlicz(0.7, 1.3)] * 4)
        a = luxemburg_norm(fam, lam * c)
        b = abs(lam) * luxemburg_norm(fam, c)
        assert abs(a - b) <= 1e-9 * max(a, b, 1e-6)

    @settings(max_examples=40, deadline=None)
    @given(u=vectors(4), v=vectors(4))
    def test_triangle(self, u, v):
        fam = OrliczFamily([make_orlicz(0.7, 1.3)] * 4)
        lhs = luxemburg_norm(fam, u + v)
        rhs = luxemburg_norm(fam, u) + luxemburg_norm(fam, v)
        assert lhs <= rhs + 1e-9 * max(rhs, 1.0)


def lemma1_loop_oracle(family, alpha, beta, vectors):
    """check_lemma1_bounds as a loop over the vectors, one certified
    bracket each."""
    dust = 1e-12
    violations, max_left, max_right, checked = 0, 0.0, 0.0, 0
    for c in vectors:
        c = np.asarray(c, dtype=float)
        bracket = feasible_scale_inf(lambda z, _: family.modular_rows(z),
                                     c[None])
        value, lo = float(bracket.hi[0]), float(bracket.lo[0])
        sup = float(np.max(np.abs(c)))
        left = alpha * value - sup - alpha * (value - lo) \
            - dust * max(sup, 1.0)
        right = sup - beta * value - dust * max(sup, 1.0)
        max_left = max(max_left, left)
        max_right = max(max_right, right)
        violations += left > 0.0 or right > 0.0
        checked += 1
    return Lemma1Report(checked=checked, violations=violations,
                        max_left_excess=max_left,
                        max_right_excess=max_right)


class TestLemma1Bounds:
    def test_bump_family_pinches_sup_norm(self):
        """phi(alpha) = 0, phi(beta) = 1.5 >= 1 forces
        alpha*||c||_phi <= ||c||_inf <= beta*||c||_phi."""
        rng = np.random.default_rng(11)
        alpha, beta = 0.5, 1.0
        fam = OrliczFamily([make_orlicz(alpha, beta)] * 6)
        vecs = [rng.standard_normal(6) * rng.uniform(0.01, 100)
                for _ in range(200)]
        report = check_lemma1_bounds(fam, alpha, beta, vecs)
        assert report.passed
        assert report.checked == 200

    def test_one_dimensional_known_value(self):
        alpha, beta = 1.0, 2.0
        fam = OrliczFamily([make_orlicz(alpha, beta)])
        report = check_lemma1_bounds(fam, alpha, beta, [np.array([3.0])])
        assert report.passed

    def test_one_bracket_call_matches_vector_loop(self, monkeypatch):
        """One feasible_scale_inf call brackets every vector, and the
        report equals the loop of one bracket per vector bit for bit."""
        rng = np.random.default_rng(12)
        cases = [(0.5, 2.0, [make_orlicz(0.5, 2.0)] * 8),
                 (0.8, 1.6, [make_orlicz(0.8, 1.6)] * 8),
                 (0.25, 4.0, [make_orlicz(0.25, 4.0)] * 8),
                 (0.5, 2.0, [make_orlicz(0.5, 2.0), make_orlicz(0.6, 1.5)]
                  * 4),
                 (1.0, 1.001, [make_orlicz(1.0, 1.001)] * 20)]
        calls = []
        real = orlicz_module.feasible_scale_inf

        def counted(*args, **kwargs):
            calls.append(real(*args, **kwargs))
            return calls[-1]

        for alpha, beta, functions in cases:
            fam = OrliczFamily(functions)
            vecs = (rng.standard_normal((150, len(fam)))
                    * 10.0 ** rng.uniform(-2, 2, size=(150, 1)))
            want = lemma1_loop_oracle(fam, alpha, beta, vecs)
            calls.clear()
            monkeypatch.setattr(orlicz_module, "feasible_scale_inf", counted)
            report = check_lemma1_bounds(fam, alpha, beta, list(vecs))
            monkeypatch.undo()
            assert len(calls) == 1
            assert report == want
            # per-row brackets are the one-vector brackets, bit for bit
            loop = [real(lambda z, _: fam.modular_rows(z), c[None])
                    for c in vecs]
            assert calls[0].lo.tolist() == [b.lo[0] for b in loop]
            assert calls[0].hi.tolist() == [b.hi[0] for b in loop]
            assert report.checked == 150
        empty = check_lemma1_bounds(OrliczFamily(cases[0][2]), 0.5, 2.0, [])
        assert empty.checked == 0 and empty.passed

    def test_precondition_violations_rejected(self):
        fam = OrliczFamily([make_orlicz(0.5, 1.0)])
        with pytest.raises(ParameterError):
            check_lemma1_bounds(fam, 0.7, 1.0, [])  # phi(0.7) != 0
        with pytest.raises(ParameterError):
            check_lemma1_bounds(fam, 0.5, 0.9, [])  # phi(0.9) < 1
        with pytest.raises(ParameterError):
            check_lemma1_bounds(fam, 1.0, 0.5, [])
