"""The shared verification layer: approx window, claim-2d sweep and
active-set margins with their probes."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from smoothnorm import boundary, renorm, verify
from smoothnorm.boundary import Decomposition
from smoothnorm.cli import main
from smoothnorm.equiv import corollary_b_pipeline
from smoothnorm.errors import ParameterError
from smoothnorm.orlicz import OrliczFamily, make_orlicz
from smoothnorm.renorm import (active_set, build_renorm, phi_norm_batch,
                               phi_unit_pool, pi_coords_batch,
                               verify_claim2d)
from smoothnorm.spaces import (euclidean_space, lap_space,
                               lorentz_predual_space, lorentz_space,
                               sup_space)
from smoothnorm.tensor import TensorElement, injective_norm
from smoothnorm.verify import (PERTURBATIONS, active_sets, approx_window,
                               claim2d_sweep, inactive_violations, window)

EPS = 0.1
SLACK = 1e-9


def per_direction(space):
    eye = np.eye(space.dim)
    return Decomposition(space, [np.vstack([e, -e]) for e in eye], EPS)


def column_family(spec):
    """One bump per net point, made from its own psi and theta, as
    PhiNormSpec's family made them before it held one bump per run."""
    net = spec.net
    return OrliczFamily([make_orlicz(z, e) for z, e in zip(
        (1.0 / net.psi).tolist(), (1.0 / net.theta).tolist())])


@pytest.fixture(scope="module")
def sup3_spec():
    X = sup_space(3)
    return build_renorm(X, per_direction(X), None, budget=128, seed=0)


@pytest.fixture(scope="module")
def euclid_factor_spec():
    X = sup_space(2)
    return build_renorm(X, per_direction(X), euclidean_space(2),
                        budget=128, seed=0)


class TestWindow:
    def test_edges(self):
        base = np.array([1.0, 3.0, 0.7, 1e5, 2.5])
        edge = (1.0 + EPS) * base * (1.0 + SLACK)
        phi = np.array([base[0], edge[1], np.nextafter(edge[2], np.inf),
                        np.nextafter(base[3], np.inf), 2.6])
        win = window(np.zeros((5, 2)), base, phi, EPS, SLACK)
        # phi == base is outside, the upper edge itself is inside
        assert win.inside.tolist() == [False, True, False, True, True]
        assert win.violations == 2 and not win.passed
        assert win.gap[0] == 0.0 and win.gap[3] > 0.0
        inside = [1, 3, 4]
        assert window(np.zeros((3, 2)), base[inside], phi[inside], EPS,
                      SLACK).passed

    def test_small_base_rows_dropped(self, sup3_spec):
        rows = np.random.default_rng(1).standard_normal((6, 3))
        rows[1] = 0.0
        rows[4] = [1e-13, -5e-13, 0.0]
        win = approx_window(sup3_spec, rows)
        np.testing.assert_array_equal(win.samples, rows[[0, 2, 3, 5]])
        np.testing.assert_array_equal(win.base,
                                      np.max(np.abs(win.samples), axis=1))
        assert win.violations == 0 and np.all(win.gap > 0.0)

    def test_matrices_use_injective_norm(self, euclid_factor_spec):
        mats = np.random.default_rng(2).standard_normal((5, 2, 2))
        win = approx_window(euclid_factor_spec, mats)
        # sup_finite duals are +-e_i: the largest row 2-norm
        np.testing.assert_allclose(
            win.base, np.max(np.linalg.norm(mats, axis=2), axis=1),
            rtol=1e-12)
        assert win.violations == 0
        # a lorentz_predual factor: bit for bit the per-matrix enumeration
        X = lorentz_predual_space([1.0, 0.5, 0.25])
        E = X.dual_extreme_points()
        pieces = [E[np.count_nonzero(E, axis=1) == k] for k in (1, 2, 3)]
        spec = build_renorm(X, Decomposition(X, pieces, EPS),
                            euclidean_space(3), budget=128, seed=0)
        rng = np.random.default_rng(3)
        mats = (rng.standard_normal((40, 3, 3))
                * np.logspace(-3, 3, 40)[:, None, None])
        win = approx_window(spec, mats)
        want = [injective_norm(TensorElement(M, X, spec.Y)).value
                for M in mats]
        assert win.base.tolist() == want
        assert win.violations == 0

    @pytest.mark.parametrize("rows", [np.zeros((0, 3)), np.zeros((4, 3)),
                                      np.full((2, 3), 1e-13)],
                             ids=["none", "zeros", "under-floor"])
    def test_nothing_to_check_refused(self, sup3_spec, rows):
        # a window on no sample used to pass, with no row inside it
        with pytest.raises(ParameterError, match="empty"):
            approx_window(sup3_spec, rows)

    def test_nothing_to_check_refused_for_matrices(self,
                                                    euclid_factor_spec):
        for mats in (np.zeros((0, 2, 2)), np.zeros((3, 2, 2))):
            with pytest.raises(ParameterError, match="empty"):
                approx_window(euclid_factor_spec, mats)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_refused(self, bad):
        """A NaN sample used to get a NaN base, fail base > BASE_FLOOR and
        be dropped, so the window passed on the other 4 of 5; an inf one
        raised a RuntimeWarning.  The scalar path refuses both in
        norm_rows."""
        X = sup_space(4)
        spec = build_renorm(X, per_direction(X), euclidean_space(3),
                            budget=128, seed=0)
        mats = np.random.default_rng(5).standard_normal((5, 4, 3))
        mats[2, 3, 1] = bad
        with pytest.raises(ParameterError,
                           match="row 2 has a NaN or infinite coordinate"):
            approx_window(spec, mats)

    def test_not_checkable_without_enumerable_dual(self):
        X = lorentz_space([1.0, 0.5])
        signs = [(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)]
        F = np.array([[a, 0.5 * b] for a, b in signs]
                     + [[0.5 * a, b] for a, b in signs])
        d = Decomposition(X, [F], EPS)
        spec = build_renorm(X, d, euclidean_space(2), budget=64, seed=0)
        assert approx_window(spec, np.ones((3, 2, 2))) is None


class TestClaim2dSweep:
    def test_matches_per_point_reports(self, sup3_spec):
        sweep = claim2d_sweep(sup3_spec, 300, seed=3)
        excess, _ = verify_claim2d(
            sup3_spec, phi_unit_pool(sup3_spec, 300, seed=3).samples)
        assert sweep.ok and sweep.pool_size == 300
        assert sweep.worst_excess == max(excess)

    def test_euclidean_factor_takes_every_unit_g(self, euclid_factor_spec):
        # Pi(u)(h) = ||h @ u||_2 is the sup over unit g of |h @ u @ g|,
        # so the sweep's worst excess is at least the one at g = e_0
        spec = euclid_factor_spec
        sweep = claim2d_sweep(spec, 200, seed=4)
        pool = phi_unit_pool(spec, 200, seed=4)
        g = np.eye(2)[0]
        at_e0 = max(
            np.max(np.abs(pool.samples @ g @ h) / pool.norms) - 1.0 / theta
            for h, theta in zip(spec.net.matrix, spec.net.theta))
        excess, _ = verify_claim2d(spec, pool.samples)
        assert sweep.ok
        assert sweep.worst_excess == max(excess)
        assert sweep.worst_excess >= at_e0

    def test_empty_pool_refused(self, sup3_spec):
        # a sweep over no sample used to return ok=True
        with pytest.raises(ParameterError, match="empty"):
            claim2d_sweep(sup3_spec, 0)

    @pytest.mark.parametrize("count", [-5, 2.5, True, "10", None])
    def test_count_must_be_a_count(self, sup3_spec, count):
        # -5 was numpy's "negative dimensions", 2.5 and True a TypeError
        with pytest.raises(ParameterError, match=f"count.*{count!r}"):
            claim2d_sweep(sup3_spec, count)
        with pytest.raises(ParameterError, match=f"count.*{count!r}"):
            phi_unit_pool(sup3_spec, count)

    def test_numpy_integer_count(self, sup3_spec):
        assert claim2d_sweep(sup3_spec, np.int64(50), seed=1) \
            == claim2d_sweep(sup3_spec, 50, seed=1)

    def test_draw_is_phi_unit_pools(self, sup3_spec):
        # the sweep draws as phi_unit_pool does, and runs on the rows it
        # keeps
        sweep = claim2d_sweep(sup3_spec, 100, seed=8)
        pool = phi_unit_pool(sup3_spec, 100, seed=8)
        excess, kept = verify_claim2d(sup3_spec, pool.samples)
        assert sweep == (max(excess) <= 1e-7, max(excess), kept)
        assert kept == len(pool.norms) == 100

    def test_one_call_per_sweep(self, sup3_spec, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return renorm.verify_claim2d(*args, **kwargs)

        monkeypatch.setattr(verify, "verify_claim2d", counted)
        sweep = claim2d_sweep(sup3_spec, 100, seed=1)
        assert calls == [sup3_spec]
        assert sweep.ok and sweep.pool_size == 100


class TestActiveSets:
    def test_unit_points_and_margins(self, sup3_spec):
        check = active_sets(sup3_spec, 8, seed=5)
        assert len(check.points) == len(check.sets) == 8
        for u, act in zip(check.points, check.sets):
            assert act == active_set(sup3_spec, u)
            assert act.phi_value == pytest.approx(1.0, rel=1e-9)
        assert check.min_margin == min(a.margin for a in check.sets) > 0.0
        assert check.passed is True

    def test_passed_needs_a_positive_margin(self, sup3_spec):
        check = active_sets(sup3_spec, 3, seed=5)
        for margin, passed in ((0.0, False), (-1.0, False), (1e-300, True)):
            last = dataclasses.replace(check.sets[2], margin=margin)
            sets = check.sets[:2] + (last,)
            assert check._replace(sets=sets).passed is passed

    def test_empty_pool_refused(self, sup3_spec):
        # a margin over no point used to read inf, and pass
        with pytest.raises(ParameterError, match="empty"):
            active_sets(sup3_spec, 0)

    @pytest.mark.parametrize("count", [-1, 2.5, True])
    def test_count_must_be_a_count(self, sup3_spec, count):
        with pytest.raises(ParameterError, match=f"count.*{count!r}"):
            active_sets(sup3_spec, count)

    def test_probes_in_blocks_match_two_passes(self, sup3_spec,
                                               monkeypatch):
        """Probes over several row blocks give the record that a second
        coordinate pass per point gives: pi_coords_batch of the probes,
        then phi_norm_batch.  Bumps are woken at 4 times the coordinates,
        so that the per-block counts have something to add up."""
        spec = sup3_spec
        inactive = verify.inactive_violations
        monkeypatch.setattr(
            verify, "inactive_violations",
            lambda spec, coords, rhos, outside: inactive(
                spec, 4.0 * coords, rhos, outside))
        monkeypatch.setattr(boundary, "BLOCK_ELEMS", 7 * len(spec.net))
        assert len(renorm._blocks(spec, PERTURBATIONS)) == 3
        check = active_sets(spec, 6, seed=9)
        want = two_pass_active_sets(spec, 6, seed=9)
        np.testing.assert_array_equal(check.points, want.points)
        assert check[1:] == want[1:]
        assert check.violations > 0

    def test_seed_spawns_points_and_moves(self, sup3_spec):
        check = active_sets(sup3_spec, 8, seed=5)
        ss_points, _ = np.random.SeedSequence(5).spawn(2)
        pool = phi_unit_pool(sup3_spec, 8, seed=ss_points)
        np.testing.assert_array_equal(check.points,
                                      pool.samples / pool.norms[:, None])
        again = active_sets(sup3_spec, 8, seed=np.random.SeedSequence(5))
        np.testing.assert_array_equal(again.points, check.points)
        assert again[1:] == check[1:]

    def test_probes_every_bump_outside_each_set(self, sup3_spec):
        check = active_sets(sup3_spec, 8, seed=5)
        outside = sum(len(sup3_spec.net) - len(a.indices)
                      for a in check.sets)
        assert outside > 0
        assert check.inactive_checked == PERTURBATIONS * outside
        assert check.violations == 0 and check.passed


def two_pass_active_sets(spec, count, seed):
    """active_sets with each point's probes taken in two passes:
    pi_coords_batch, then phi_norm_batch."""
    ss_points, ss_moves = np.random.SeedSequence(seed).spawn(2)
    pool = phi_unit_pool(spec, count, seed=ss_points)
    points = pool.samples / pool.norms[:, None]
    sets = tuple(active_set(spec, u) for u in points)
    rng = np.random.default_rng(ss_moves)
    checked = violations = 0
    for u, act in zip(points, sets):
        outside = np.setdiff1d(np.arange(len(spec.net)), act.indices)
        moves = rng.standard_normal((PERTURBATIONS, *u.shape))
        scale = phi_norm_batch(spec, moves)
        probes = u + moves * (0.9 * act.radius / scale)[:, None]
        violations += verify.inactive_violations(
            spec, pi_coords_batch(spec, probes), phi_norm_batch(spec, probes),
            outside)
        checked += len(probes) * len(outside)
    return verify.MarginCheck(points, sets, checked, violations)


class TestWokenBump:
    """One woken bump fails every reader of the probes: the record, the
    pipeline on both routes and the CLI localdep suite.  The pipeline
    used to ask only for positive margins."""

    @pytest.fixture(autouse=True)
    def woken(self, monkeypatch):
        monkeypatch.setattr(verify, "inactive_violations",
                            lambda spec, coords, rhos, outside: 1)

    def test_margin_check(self, sup3_spec):
        check = active_sets(sup3_spec, 4, seed=5)
        assert check.min_margin > 0.0
        assert check.violations == 4 and not check.passed

    @pytest.mark.parametrize("space, route", [
        (lorentz_predual_space([1.0, 0.5, 0.25]), "direct"),
        (lap_space([[0], [1, 2]], [1.0, 2.0], 3), "chain")],
        ids=["direct", "chain"])
    def test_pipeline(self, space, route):
        samples = np.random.default_rng(1).standard_normal((64, 3))
        res = corollary_b_pipeline(space, samples, 0.1, seed=0)
        rep = res.report
        assert res.route == route
        assert rep.margins.violations > 0 and rep.margins.min_margin > 0.0
        assert not rep.margins.passed
        assert not rep.passed and not res.passed
        # the probes alone fail it
        quiet = rep.margins._replace(violations=0)
        assert dataclasses.replace(rep, margins=quiet).passed

    def test_cli_localdep(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(json.dumps({
            "space": {"kind": "sup_finite", "dim": 3}, "epsilon": 0.1,
            "decomposition": {"preset": "per_direction"}, "seed": 7,
            "samples": {"localdep": 4, "build": 64}}))
        out = tmp_path / "o"
        assert main(["run", str(cfg), "--suite", "localdep",
                     "--out", str(out)]) == 1
        rec = json.loads((out / "report.json").read_text())[
            "suites"]["localdep"]
        assert rec["status"] == "failed"
        assert rec["measured"]["violations"] == 4
        assert rec["measured"]["min_margin"] > 0.0


class TestInactiveViolations:
    def test_underflow_band_counts(self, sup3_spec):
        # past the zero threshold the bump is positive, but exp underflow
        # reads it as 0.0 for a stretch; halfway into that stretch is
        # still a violation
        fn = sup3_spec.family.functions[0]
        a = fn.zero_threshold
        lo, hi = 0.0, fn.exceed_threshold - a
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if fn(a + mid) == 0.0:
                lo = mid
            else:
                hi = mid
        probe = a + 0.5 * lo
        assert probe > a and fn(probe) == 0.0
        coords = np.zeros((3, len(sup3_spec.net)))
        coords[:, 0] = [probe, a, 0.5 * a]
        rhos = np.ones(3)
        assert inactive_violations(sup3_spec, coords, rhos, [0]) == 1
        assert inactive_violations(sup3_spec, 2.0 * coords, 2.0 * rhos,
                                   [0, 1]) == 1

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan])
    def test_non_positive_rho_refused(self, sup3_spec, bad):
        # a zero rho used to divide by zero, with a RuntimeWarning
        coords = np.ones((3, len(sup3_spec.net)))
        rhos = np.array([1.0, bad, 2.0])
        with pytest.raises(ParameterError, match="row 1"):
            inactive_violations(sup3_spec, coords, rhos, [0])

    def test_mask_counts_as_indices(self, sup3_spec):
        rng = np.random.default_rng(3)
        net = len(sup3_spec.net)
        coords = rng.uniform(0.0, 2.0, (20, net)) / sup3_spec.net.psi
        rhos = rng.uniform(1.0, 2.0, 20)
        outside = np.array([0, 2, net - 1])
        mask = np.zeros(net, dtype=bool)
        mask[outside] = True
        want = int(np.count_nonzero(
            coords[:, outside] / rhos[:, None]
            > column_family(sup3_spec).zero_thresholds[outside]))
        assert 0 < want < coords[:, outside].size
        assert inactive_violations(sup3_spec, coords, rhos, outside) == want
        assert inactive_violations(sup3_spec, coords, rhos, mask) == want
