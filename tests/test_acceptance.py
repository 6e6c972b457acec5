"""Acceptance gate: twelve end-to-end criteria at their stated
tolerances, one verdict line printed per criterion.

Each criterion runs as one test; the verdict line goes straight to the
terminal (bypassing capture) so a full run always shows twelve
PASS/FAIL lines.  Oracles are computed in this file or delegated to
module-level checkers that were themselves oracle-tested.
"""

from __future__ import annotations

import itertools
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from smoothnorm.boundary import Decomposition, epsilon_n
from smoothnorm.equiv import (RelativeBoundaryChain, build_F, compute_cn,
                              corollary_b_pipeline, support_ball)
from smoothnorm.orlicz import (OrliczFamily, check_lemma1_bounds,
                               luxemburg_norm, make_orlicz)
from smoothnorm.renorm import (active_set, build_renorm, phi_norm,
                               phi_norm_batch, phi_unit_pool,
                               pi_coords_batch, smoothness_check,
                               verify_claim2d)
from smoothnorm.spaces import (euclidean_space, find_norming_support,
                               lap_space, lorentz_predual_space, proj,
                               sup_space)
from smoothnorm.tensor import (TensorElement, apply_fY, apply_gX,
                               boundary_product_check, injective_norm,
                               tensor_apply)

REPO = Path(__file__).resolve().parents[1]

W4 = [1.0, 0.5, 0.25, 0.125]
W6 = [1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125]


@contextmanager
def verdict(capsys, num, name):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"acceptance {num:02d} {name}: FAIL")
        raise
    with capsys.disabled():
        print(f"acceptance {num:02d} {name}: PASS")


def unit_rows(space, count, seed):
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((count, space.dim))
    return rows / np.asarray([space.norm(r) for r in rows])[:, None]


def margins_and_inactivity(spec, base_norm, points, seed):
    """Active-set margins plus exact zero checks for perturbations at
    0.9 of the certified radius; returns (min margin, checked count,
    violation count)."""
    pool = phi_unit_pool(spec, points, seed=seed)
    rng = np.random.default_rng(seed + 1)
    min_margin = np.inf
    checked = 0
    violations = 0
    for k in range(len(pool.norms)):
        u = pool.samples[k] / pool.norms[k]
        act = active_set(spec, u)
        min_margin = min(min_margin, act.margin)
        if act.margin <= 0.0:
            continue
        outside = sorted(set(range(len(spec.net))) - set(act.indices))
        if not outside:
            continue
        moves = rng.standard_normal((20, u.size))
        scale = np.asarray([base_norm(w) for w in moves])
        probes = u + moves * (0.9 * act.radius / scale)[:, None]
        rhos = phi_norm_batch(spec, probes)
        coords = pi_coords_batch(spec, probes)
        for i in outside:
            values = spec.family.functions[i](coords[:, i] / rhos)
            checked += len(probes)
            violations += int(np.count_nonzero(values != 0.0))
    return min_margin, checked, violations


@pytest.fixture(scope="session")
def sup5_single_piece():
    """The sup_finite(5) build shared by criteria 4, 6, and 7."""
    start = time.perf_counter()
    X = sup_space(5)
    eye = np.eye(5)
    d = Decomposition(X, [np.vstack([eye, -eye])], 0.1)
    spec = build_renorm(X, d, None, seed=0)
    return spec, time.perf_counter() - start


@pytest.fixture(scope="session")
def predual4_pipeline():
    space = lorentz_predual_space(W4)
    samples = np.random.default_rng(90).standard_normal((200, 4))
    start = time.perf_counter()
    result = corollary_b_pipeline(space, samples, 0.1, seed=0)
    return space, result, time.perf_counter() - start


def test_criterion_01_luxemburg_power_oracle(capsys):
    with verdict(capsys, 1, "luxemburg-power-oracle"):
        start = time.perf_counter()
        rng = np.random.default_rng(1)
        checked = 0
        for p in (1.0, 2.0, 4.0):
            for dim in (1, 3, 8, 16):
                fam = OrliczFamily(
                    [lambda s, p=p: np.asarray(s, dtype=float) ** p]
                    * dim)
                for _ in range(84):
                    c = rng.standard_normal(dim)
                    expected = float(np.sum(np.abs(c) ** p) ** (1.0 / p))
                    got = luxemburg_norm(fam, c)
                    assert abs(got - expected) <= 1e-9 * expected
                    checked += 1
        elapsed = time.perf_counter() - start
        assert checked >= 1000
        assert elapsed < 5.0, f"took {elapsed:.2f} s"


def test_criterion_02_two_sided_bounds(capsys):
    with verdict(capsys, 2, "two-sided-bump-bounds"):
        rng = np.random.default_rng(2)
        checked = 0
        for alpha, beta in ((0.5, 2.0), (0.8, 1.6), (0.25, 4.0)):
            fn = make_orlicz(alpha, beta)
            fam = OrliczFamily([fn] * 8)
            vectors = rng.standard_normal((340, 8)) \
                * 10.0 ** rng.uniform(-2, 2, size=(340, 1))
            report = check_lemma1_bounds(fam, alpha, beta, vectors)
            assert report.violations == 0
            checked += report.checked
        assert checked >= 1000


def test_criterion_03_weight_constants(capsys):
    with verdict(capsys, 3, "weight-constants"):
        assert epsilon_n(0.96, 0) == 0.01
        X = sup_space(2)
        d = Decomposition(X, [np.vstack([np.eye(2), -np.eye(2)])], 0.1)
        assert d.psi_of(*d.locate(d.pieces[0][0])) == 1.0625


def test_criterion_04_sup5_approximation(capsys, sup5_single_piece):
    with verdict(capsys, 4, "sup5-approximation"):
        spec, build_time = sup5_single_piece
        start = time.perf_counter()
        rng = np.random.default_rng(4)
        U = rng.standard_normal((1000, 5))
        base = np.max(np.abs(U), axis=1)
        assert np.all(base > 0.0)
        ratio = phi_norm_batch(spec, U) / base
        assert np.all(ratio > 1.0)
        assert np.all(ratio <= 1.1 * (1.0 + 1e-9))
        elapsed = build_time + time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.2f} s"


def test_criterion_05_ridge_contrast(capsys):
    with verdict(capsys, 5, "ridge-contrast"):
        X = sup_space(3)
        point = [1.0, 1.0, 0.0]
        direction = [1.0, -1.0, 0.0]
        steps = [1e-3, 1e-4]

        base = smoothness_check(X.norm, point, [direction],
                                steps).records[0]
        for d2, h in zip(base.second_diffs, base.steps):
            assert abs(d2 * h / 2.0 - 1.0) <= 0.01
        assert base.kink

        # one piece per direction; the weight ladder separates the
        # active families at the ridge
        eye = np.eye(3)
        d = Decomposition(X, [np.vstack([eye[i], -eye[i]])
                              for i in range(3)], 0.1)
        spec = build_renorm(X, d, None, seed=0)
        phi = smoothness_check(lambda v: phi_norm(spec, v, tol=1e-13),
                               point, [direction], steps).records[0]
        assert not phi.kink
        assert phi.richardson <= 1e-5
        assert max(abs(v) for v in phi.second_diffs) < 1.0


def test_criterion_06_local_finite_dependence(capsys, sup5_single_piece):
    with verdict(capsys, 6, "local-finite-dependence"):
        spec, _ = sup5_single_piece
        min_margin, checked, violations = margins_and_inactivity(
            spec, spec.X.norm, points=100, seed=6)
        assert min_margin > 0.0
        assert checked > 0
        assert violations == 0


def test_criterion_07_rank_one_dual_bound(capsys, sup5_single_piece):
    with verdict(capsys, 7, "rank-one-dual-bound"):
        spec, _ = sup5_single_piece
        pool = phi_unit_pool(spec, 10_000, seed=7)
        assert len(pool.norms) == 10_000
        excess = verify_claim2d(spec, pool)
        assert np.all(excess <= 1e-7)


def test_criterion_08_tensor_identities(capsys):
    with verdict(capsys, 8, "tensor-identities"):
        X, Y = sup_space(3), euclidean_space(2)
        F = np.asarray(X.dual_extreme_points())
        rng = np.random.default_rng(8)
        for _ in range(200):
            M = rng.standard_normal((3, 2))
            u = TensorElement(M, X, Y)
            f = rng.standard_normal(3)
            g = rng.standard_normal(2)
            v1 = tensor_apply(f, g, u)
            v2 = float(apply_fY(f, u) @ g)
            v3 = float(apply_gX(g, u) @ f)
            assert abs(v1 - v2) <= 1e-12 and abs(v1 - v3) <= 1e-12
            res = injective_norm(u)
            oracle = float(np.max(np.linalg.norm(F @ M, axis=1)))
            assert res.value == oracle

        # sampled circle: deficit bounded by the grid spacing
        angles = np.linspace(0.0, 2 * np.pi, 400, endpoint=False)
        circle = np.column_stack([np.cos(angles), np.sin(angles)])
        samples = []
        for _ in range(20):
            M = rng.standard_normal((3, 2))
            value = injective_norm(TensorElement(M, X, Y)).value
            samples.append(TensorElement(M / value, X, Y))
        report = boundary_product_check(F, circle, samples, tol=1e-4)
        assert report.passed
        assert report.max_deficit <= 1e-4

        # rank-one instances attain exactly once the witness g is in
        basis = TensorElement(np.outer([1.0, 0.0, 0.0], [1.0, 0.0]),
                              X, Y)
        exact = boundary_product_check(F, np.vstack([np.eye(2),
                                                     -np.eye(2)]),
                                       [basis], tol=1e-12)
        assert exact.passed and exact.records[0].value == 1.0
        units, gs = [], []
        for _ in range(20):
            M = np.outer(rng.standard_normal(3), rng.standard_normal(2))
            res = injective_norm(TensorElement(M, X, Y))
            units.append(TensorElement(M / res.value, X, Y))
            gs.append(res.pair.g)
        ranked = boundary_product_check(F, np.asarray(gs), units,
                                        tol=1e-9)
        assert ranked.passed


def test_criterion_09_predual_pipeline(capsys, predual4_pipeline):
    with verdict(capsys, 9, "predual-pipeline"):
        space, result, pipeline_time = predual4_pipeline
        start = time.perf_counter()

        for weights in (W4, W6):
            P = lorentz_predual_space(weights)
            for y in unit_rows(P, 500, 9):
                sigma = find_norming_support(P, y)
                assert sigma is not None
                restricted = P.norm(proj(y, sigma, P.dim))
                assert abs(restricted - 1.0) <= 1e-9

        assert result.route == "direct"
        assert result.passed
        spec = result.phi_spec

        # approximation analog
        rng = np.random.default_rng(94)
        U = rng.standard_normal((1000, 4))
        base = np.asarray([space.norm(u) for u in U])
        ratio = phi_norm_batch(spec, U) / base
        assert np.all(ratio > 1.0)
        assert np.all(ratio <= 1.1 * (1.0 + 1e-9))

        # ridge contrast analog at a two-coordinate corner
        point = [1.0, 0.5, 0.0, 0.0]
        direction = [1.0, -1.0, 0.0, 0.0]
        steps = [1e-3, 1e-4]
        base_rep = smoothness_check(space.norm, point, [direction],
                                    steps).records[0]
        assert base_rep.kink
        for d2, h in zip(base_rep.second_diffs, base_rep.steps):
            assert abs(d2 * h - 1.0) <= 0.01
        phi_rep = smoothness_check(
            lambda v: phi_norm(spec, v, tol=1e-13), point, [direction],
            steps).records[0]
        assert not phi_rep.kink
        assert phi_rep.richardson <= 1e-5

        # local dependence analog
        min_margin, checked, violations = margins_and_inactivity(
            spec, space.norm, points=100, seed=96)
        assert min_margin > 0.0 and checked > 0 and violations == 0

        # the larger weight set passes end to end as well
        six = corollary_b_pipeline(
            lorentz_predual_space(W6),
            np.random.default_rng(91).standard_normal((120, 6)),
            0.1, seed=0)
        assert six.passed

        elapsed = pipeline_time + time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.2f} s"


def test_criterion_10_level_identities_and_rescaled_union(capsys):
    with verdict(capsys, 10, "level-identities"):
        rng = np.random.default_rng(10)
        spaces = [sup_space(3), sup_space(5), sup_space(8),
                  lorentz_predual_space([1.0, 0.5, 0.25]),
                  lorentz_predual_space(W4),
                  lorentz_predual_space(W6)]
        for _ in range(100):
            sp = spaces[rng.integers(len(spaces))]
            n = int(rng.integers(1, sp.dim + 1))
            S = unit_rows(sp, int(rng.integers(5, 15)),
                          int(rng.integers(10 ** 6)))
            compute_cn(sp, S, n, identity_tol=1e-9)

        for sp, seed in ((sup_space(3), 101), (sup_space(5), 102),
                         (lorentz_predual_space(W4), 103),
                         (lorentz_predual_space(W6), 104)):
            S = unit_rows(sp, 25, seed)
            levels = tuple(range(1, sp.dim + 1))
            # level n holds the functionals of support size exactly n
            ball = support_ball(sp, sp.dim)
            sizes = np.count_nonzero(ball, axis=1)
            chain = RelativeBoundaryChain(
                space=sp, levels=[ball[sizes == n] for n in levels],
                samples=S, level_ids=levels)
            for strategy in ("default", "ones"):
                bn = build_F(chain, a_strategy=strategy)
                assert bn.attained
                assert all(r.passed for r in bn.lrc_reports)


def test_criterion_11_modular_oracle(capsys):
    with verdict(capsys, 11, "disjoint-selection-modular"):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 200:
            dim = int(rng.integers(2, 7))
            sets = []
            for _ in range(int(rng.integers(1, 4))):
                size = int(rng.integers(1, dim + 1))
                sets.append(sorted(rng.choice(dim, size=size,
                                              replace=False).tolist()))
            covered = set(itertools.chain.from_iterable(sets))
            missing = [k for k in range(dim) if k not in covered]
            if missing:
                sets.append(missing)
            sets.sort(key=min)
            p = np.sort(rng.uniform(1.0, 3.0, size=len(sets)))
            X = lap_space(sets, p, dim=dim)
            # power values come from one broadcast table so the scalar
            # and vectorized ** paths cannot drift by an ulp
            table = np.full((len(X.sets), dim), np.nan)
            for n, s in enumerate(X.sets):
                table[n, list(s)] = p[n]
            options = [[None] + [n for n, s in enumerate(X.sets)
                                 if k in s] for k in range(dim)]
            for _ in range(10):
                z = rng.standard_normal(dim) * 2.0
                with np.errstate(invalid="ignore"):
                    powers = np.abs(z)[None, :] ** table
                # brute force: each index keeps one containing set or
                # drops out; disjointness is then automatic
                best = -np.inf
                for assign in itertools.product(*options):
                    terms = np.zeros(dim)
                    for k, n in enumerate(assign):
                        if n is not None:
                            terms[k] = powers[n, k]
                    best = max(best, float(np.sum(terms)))
                assert X.lap_modular(z) == best
                checked += 1
        assert checked >= 200


def test_criterion_12_cli_determinism(capsys, tmp_path):
    with verdict(capsys, 12, "cli-determinism"):
        config = REPO / "configs" / "demo_sup3.cfg"
        outputs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            proc = subprocess.run(
                [sys.executable, "-m", "smoothnorm.cli", "run",
                 str(config), "--suite", "all", "--seed", "42",
                 "--out", str(out)],
                capture_output=True, text=True, cwd=REPO)
            assert proc.returncode == 0, proc.stderr
            outputs.append(out)
        first, second = outputs
        for name in ("report.json", "approx_samples.csv",
                     "smooth_finite_differences.csv"):
            assert (first / name).read_bytes() == \
                (second / name).read_bytes()
        report = (first / "report.json").read_text()
        assert '"passed": true' in report
        import json
        measured = json.loads(report)["suites"]["approx"]["measured"]
        assert 1.0 <= measured["min_ratio"] \
            <= measured["max_ratio"] <= 1.1
