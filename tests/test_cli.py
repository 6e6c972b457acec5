"""Front-end tests: config parsing, suite records, determinism,
exit codes, and the CSV table contracts."""

from __future__ import annotations

import csv
import hashlib
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from smoothnorm.cli import ConfigError, SUITES, _resolve_suites, \
    load_config, main

BASE = {
    "space": {"kind": "sup_finite", "dim": 3},
    "epsilon": 0.1,
    "factor_space": "scalar",
    "decomposition": {"preset": "per_direction"},
    "seed": 7,
    "samples": {"approx": 32, "claim1": 24, "claim2d": 200,
                "localdep": 6, "boundary": 40, "tensor": 10,
                "equiv": 32, "build": 64},
}


def write_cfg(directory, name="run.cfg", **overrides):
    data = {**BASE, **overrides}
    for key, value in list(data.items()):
        if value is None:
            del data[key]
    path = directory / name
    path.write_text(json.dumps(data, indent=1))
    return path


def report_of(out_dir):
    return json.loads((out_dir / "report.json").read_text())


@pytest.fixture(scope="module")
def demo_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli_demo")
    cfg = write_cfg(tmp)
    out = tmp / "out"
    rc = main(["run", str(cfg), "--suite", "all", "--out", str(out)])
    return rc, cfg, out


class TestConfigErrors:
    def test_missing_epsilon_exits_2(self, tmp_path):
        cfg = write_cfg(tmp_path, epsilon=None)
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o" / "report.json").exists()

    def test_invalid_json_exits_2(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("{nope")
        assert main(["run", str(path)]) == 2

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["run", str(tmp_path / "ghost.cfg")]) == 2

    def test_unknown_space_kind(self, tmp_path):
        cfg = write_cfg(tmp_path, space={"kind": "banach", "dim": 3})
        assert main(["run", str(cfg)]) == 2

    def test_space_missing_parameter(self, tmp_path):
        cfg = write_cfg(tmp_path, space={"kind": "lorentz"})
        assert main(["run", str(cfg)]) == 2

    def test_unknown_suite_flag(self, tmp_path):
        cfg = write_cfg(tmp_path)
        assert main(["run", str(cfg), "--suite", "scenic"]) == 2

    def test_unknown_suite_in_config(self, tmp_path):
        cfg = write_cfg(tmp_path, suites=["approx", "scenic"])
        assert main(["run", str(cfg)]) == 2

    def test_unknown_config_entry(self, tmp_path):
        cfg = write_cfg(tmp_path, author="nobody")
        assert main(["run", str(cfg)]) == 2

    def test_unknown_tolerance_key(self, tmp_path):
        cfg = write_cfg(tmp_path, tolerances={"nope": 1.0})
        assert main(["run", str(cfg)]) == 2

    def test_bad_tol_flag_format(self, tmp_path):
        cfg = write_cfg(tmp_path)
        assert main(["run", str(cfg), "--tol", "ratio_slack"]) == 2
        assert main(["run", str(cfg), "--tol", "nope=1"]) == 2

    def test_nan_tol_flag_exits_2(self, tmp_path):
        # a NaN tolerance would make every "gap > tol" check pass
        cfg = write_cfg(tmp_path)
        out = tmp_path / "o"
        for value in ("nan", "-1"):
            assert main(["run", str(cfg), "--suite", "boundary", "--tol",
                         f"equiv_identity={value}", "--out", str(out)]) == 2
        assert not (out / "report.json").exists()

    def test_nan_tolerance_in_config_exits_2(self, tmp_path):
        cfg = write_cfg(tmp_path, tolerances={"equiv_identity": float("nan")})
        out = tmp_path / "o"
        assert main(["run", str(cfg), "--suite", "boundary",
                     "--out", str(out)]) == 2
        assert not (out / "report.json").exists()

    def test_missing_seed_exits_2(self, tmp_path):
        cfg = write_cfg(tmp_path, seed=None)
        assert main(["run", str(cfg), "--suite", "boundary"]) == 2

    def test_seed_flag_rescues_missing_seed(self, tmp_path):
        cfg = write_cfg(tmp_path, seed=None)
        out = tmp_path / "o"
        rc = main(["run", str(cfg), "--suite", "boundary",
                   "--seed", "3", "--out", str(out)])
        assert rc == 0
        assert report_of(out)["seed"] == 3

    def test_non_integer_seed(self, tmp_path):
        cfg = write_cfg(tmp_path, seed="lucky")
        assert main(["run", str(cfg)]) == 2

    def test_bad_sample_budget(self, tmp_path):
        cfg = write_cfg(tmp_path, samples={"approx": 0})
        assert main(["run", str(cfg)]) == 2
        cfg = write_cfg(tmp_path, samples={"nonsense": 10})
        assert main(["run", str(cfg)]) == 2

    def test_unknown_preset(self, tmp_path):
        cfg = write_cfg(tmp_path, decomposition={"preset": "fancy"})
        assert main(["run", str(cfg)]) == 2

    def test_pieces_dim_mismatch(self, tmp_path):
        cfg = write_cfg(tmp_path,
                        decomposition={"pieces": [[[1.0, 0.0]]]})
        assert main(["run", str(cfg)]) == 2

    def test_closure_must_contain_own_piece(self, tmp_path):
        decomposition = {
            "pieces": [[[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]],
                       [[0.0, 1.0, 0.0], [0.0, -1.0, 0.0]],
                       [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]],
            "closure": [{"piece": 0, "member": 0, "pieces": [1]}],
        }
        cfg = write_cfg(tmp_path, decomposition=decomposition)
        assert main(["run", str(cfg)]) == 2

    def test_epsilon_out_of_range(self, tmp_path):
        cfg = write_cfg(tmp_path, epsilon=1.5)
        assert main(["run", str(cfg)]) == 2

    def test_bad_factor_space(self, tmp_path):
        cfg = write_cfg(tmp_path, factor_space={"kind": "sup_finite",
                                                "dim": 2})
        assert main(["run", str(cfg)]) == 2

    def test_smooth_dim_mismatch(self, tmp_path):
        cfg = write_cfg(tmp_path, smooth={"point": [1.0, 1.0],
                                          "direction": [1.0, -1.0],
                                          "steps": [1e-3]})
        assert main(["run", str(cfg)]) == 2

    @pytest.mark.parametrize("change", [
        {"steps": []},
        {"steps": [float("nan")]},
        {"steps": [float("inf"), 1e-3]},
        {"steps": [-1e-3, -1e-4]},
        {"steps": [1e-4, 1e-3]},
        {"point": [0.0, 0.0, 0.0]},
        {"point": [float("nan"), 1.0, 0.0]},
        {"direction": [float("inf"), -1.0, 0.0]},
        {"direction": [0.0, 0.0, 0.0]},
        {"steps": [1e-20]},
    ], ids=["no_steps", "nan_step", "inf_step", "negative_steps",
            "increasing_steps", "zero_point", "nan_point", "inf_direction",
            "zero_direction", "underflowing_step"])
    def test_bad_smooth_probe_exits_2(self, tmp_path, change):
        """Each of these used to load, then fail the smooth suite with
        exit 1."""
        probe = {"point": [1.0, 1.0, 0.0], "direction": [1.0, -1.0, 0.0],
                 "steps": [1e-3, 1e-4], **change}
        cfg = write_cfg(tmp_path, smooth=probe)
        assert main(["run", str(cfg), "--suite", "smooth",
                     "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o" / "report.json").exists()

    @pytest.mark.parametrize("section, value, key", [
        ("space", {"kind": "sup_finite", "dim": 3, "weights": [1, 2],
                   "exponent": 4}, "weights"),
        ("space", {"kind": "lorentz", "weights": [1.0, 0.5], "dim": 2},
         "dim"),
        ("decomposition", {"preset": "unit_vectors",
                           "closure": [{"piece": 5, "member": 0,
                                        "pieces": [5]}],
                           "pieces": [[[7, 7, 7]]]}, "preset"),
        ("decomposition", {"preset": "per_direction", "pieces": []},
         "preset"),
        ("decomposition", {"pieces": [[[1, 0, 0], [-1, 0, 0]]],
                           "presets": "unit_vectors"}, "presets"),
        ("decomposition", {"pieces": [[[1, 0, 0], [-1, 0, 0]]],
                           "closure": [{"piece": 0, "member": 0,
                                        "pieces": [0], "weight": 2}]},
         "weight"),
        ("factor_space", {"kind": "euclidean", "dim": 2, "weights": [1]},
         "weights"),
        ("smooth", {"point": [1.0, 1.0, 0.0], "direction": [1.0, -1.0, 0.0],
                    "steps": [1e-3, 1e-4], "stepz": [1e-5]}, "stepz"),
    ], ids=["space", "space_lorentz_dim", "decomposition_preset_and_pieces",
            "decomposition_preset_and_empty_pieces", "decomposition",
            "closure_entry", "factor_space", "smooth"])
    def test_unused_entry_exits_2(self, tmp_path, capsys, section, value,
                                  key):
        """Each of these used to run with the entry ignored, exit 0."""
        cfg = write_cfg(tmp_path, **{section: value})
        assert main(["run", str(cfg), "--suite", "boundary",
                     "--out", str(tmp_path / "o")]) == 2
        assert repr(key) in capsys.readouterr().err
        assert not (tmp_path / "o" / "report.json").exists()

    def test_bad_parallel(self, tmp_path):
        cfg = write_cfg(tmp_path)
        assert main(["run", str(cfg), "--parallel", "0"]) == 2

    def test_resolve_suites_fixed_order(self):
        assert _resolve_suites(["smooth", "approx"]) == ("approx",
                                                         "smooth")
        assert _resolve_suites(["all"]) == SUITES
        assert _resolve_suites(["approx", "approx"]) == ("approx",)
        with pytest.raises(ConfigError):
            _resolve_suites(["scenic"])

    def test_load_config_fields(self, tmp_path):
        cfg = write_cfg(tmp_path)
        loaded = load_config(cfg)
        assert loaded.space.kind == "sup_finite"
        assert loaded.epsilon == 0.1
        assert loaded.seed == 7
        assert loaded.budgets["approx"] == 32
        assert loaded.budgets["claim2d"] == 200
        assert loaded.sha256 == hashlib.sha256(
            cfg.read_bytes()).hexdigest()


class TestRunReport:
    def test_exit_zero(self, demo_run):
        rc, _, _ = demo_run
        assert rc == 0

    def test_all_suites_recorded(self, demo_run):
        _, _, out = demo_run
        report = report_of(out)
        assert set(report["suites"]) == set(SUITES)
        assert report["passed"] is True
        for name, rec in report["suites"].items():
            assert rec["passed"] is True
            expected = "skipped" if name == "tensor" else "passed"
            assert rec["status"] == expected

    def test_tensor_skip_notes_scalar_factor(self, demo_run):
        _, _, out = demo_run
        assert "scalar" in report_of(out)["suites"]["tensor"]["note"]

    def test_config_sha_matches_file(self, demo_run):
        _, cfg, out = demo_run
        digest = hashlib.sha256(cfg.read_bytes()).hexdigest()
        assert report_of(out)["config_sha256"] == digest

    def test_no_wall_times_in_report(self, demo_run):
        # wall times go to stdout only; the report must be replayable
        _, _, out = demo_run
        def keys(node):
            if isinstance(node, dict):
                for k, v in node.items():
                    yield k
                    yield from keys(v)
            elif isinstance(node, list):
                for v in node:
                    yield from keys(v)
        assert not [k for k in keys(report_of(out))
                    if "time" in k or "wall" in k]

    def test_approx_record_quantities(self, demo_run):
        _, _, out = demo_run
        rec = report_of(out)["suites"]["approx"]
        assert rec["samples"] == 32
        m = rec["measured"]
        assert m["violations"] == 0
        assert 1.0 < m["min_ratio"] <= m["max_ratio"] <= 1.1 * (1 + 1e-9)
        assert m["min_rel_gap"] == pytest.approx(m["min_ratio"] - 1.0)
        with (out / "approx_samples.csv").open() as fh:
            table = list(csv.DictReader(fh))
        base, phi = (np.array([float(r[k]) for r in table])
                     for k in ("base_norm", "phi_norm"))
        assert m["min_rel_gap"] == np.min((phi - base) / base)

    def test_equiv_record_tables(self, demo_run):
        # unit-vector functionals norm the sup sphere at every level
        _, _, out = demo_run
        m = report_of(out)["suites"]["equiv"]["measured"]
        assert m["route"] == "direct"
        assert m["level_ids"] == [1, 2, 3]
        assert m["b_values"] == [1.0, 1.0, 1.0]
        assert m["c_values"] == [1.0, 1.0, 1.0]
        assert m["bc_gap"] == 0.0

    def test_boundary_record(self, demo_run):
        _, _, out = demo_run
        m = report_of(out)["suites"]["boundary"]["measured"]
        assert m["min_sup"] >= 1.0 - 1e-9
        assert m["lrc_passed"] is True
        assert m["lrc_cardinalities"] == [[1], [1], [1]]

    def test_approx_table_contract(self, demo_run):
        _, _, out = demo_run
        with (out / "approx_samples.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["sample_id", "x0", "x1", "x2",
                           "base_norm", "phi_norm", "ratio"]
        assert len(rows) == 1 + 32
        for i, row in enumerate(rows[1:]):
            assert int(row[0]) == i
            base, phi, ratio = (float(row[4]), float(row[5]),
                                float(row[6]))
            # repr round-trip: the quotient of the printed floats
            assert ratio == phi / base

    def test_smooth_table_contract(self, demo_run):
        _, _, out = demo_run
        with (out / "smooth_finite_differences.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["norm", "point", "direction", "step",
                           "first_difference", "second_difference"]
        assert [r[0] for r in rows[1:]] == ["base", "base", "phi", "phi"]
        base_d2 = [float(r[5]) for r in rows[1:3]]
        steps = [float(r[3]) for r in rows[1:3]]
        # the default probe sits on the first sup ridge
        np.testing.assert_allclose(base_d2,
                                   [2.0 / h for h in steps], rtol=1e-9)
        phi_d2 = [abs(float(r[5])) for r in rows[3:]]
        assert max(phi_d2) < 1.0


class TestSuiteSelection:
    def test_smooth_only_report(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "o"
        rc = main(["run", str(cfg), "--suite", "smooth",
                   "--out", str(out)])
        assert rc == 0
        report = report_of(out)
        assert list(report["suites"]) == ["smooth"]
        assert (out / "smooth_finite_differences.csv").exists()
        assert not (out / "approx_samples.csv").exists()

    def test_repeated_flag_selects_both(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "o"
        rc = main(["run", str(cfg), "--suite", "smooth",
                   "--suite", "approx", "--out", str(out)])
        assert rc == 0
        assert set(report_of(out)["suites"]) == {"approx", "smooth"}

    def test_config_suites_entry_is_default(self, tmp_path):
        cfg = write_cfg(tmp_path, suites=["claim1"])
        out = tmp_path / "o"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        assert list(report_of(out)["suites"]) == ["claim1"]


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path)
        args = ["run", str(cfg), "--suite", "all"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        for name in ("report.json", "approx_samples.csv",
                     "smooth_finite_differences.csv"):
            assert (out_a / name).read_bytes() == \
                (out_b / name).read_bytes()

    def test_parallel_does_not_change_bytes(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        base = ["run", str(cfg), "--suite", "approx",
                "--suite", "claim1"]
        assert main(base + ["--out", str(out_a)]) == 0
        assert main(base + ["--parallel", "3", "--out", str(out_b)]) == 0
        assert (out_a / "report.json").read_bytes() == \
            (out_b / "report.json").read_bytes()
        assert (out_a / "approx_samples.csv").read_bytes() == \
            (out_b / "approx_samples.csv").read_bytes()

    def test_seed_changes_report(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["run", str(cfg), "--suite", "approx", "--out", str(out_a)])
        main(["run", str(cfg), "--suite", "approx", "--seed", "8",
              "--out", str(out_b)])
        assert (out_a / "report.json").read_bytes() != \
            (out_b / "report.json").read_bytes()

    def test_suite_record_independent_of_selection(self, tmp_path,
                                                   demo_run):
        # fixed per-suite seed positions: approx alone equals approx
        # inside the full run
        _, _, out_full = demo_run
        cfg = write_cfg(tmp_path)
        out = tmp_path / "o"
        main(["run", str(cfg), "--suite", "approx", "--out", str(out)])
        assert report_of(out)["suites"]["approx"] == \
            report_of(out_full)["suites"]["approx"]


class TestFailuresExitOne:
    def test_single_piece_ridge_kink_fails_smooth(self, tmp_path):
        # one shared piece keeps the psi weights tied, so the built
        # norm inherits the ridge; the report survives the failure
        cfg = write_cfg(tmp_path,
                        decomposition={"preset": "unit_vectors"})
        out = tmp_path / "o"
        rc = main(["run", str(cfg), "--suite", "smooth",
                   "--out", str(out)])
        assert rc == 1
        rec = report_of(out)["suites"]["smooth"]
        assert rec["status"] == "failed"
        assert rec["measured"]["phi_kink"] is True
        assert report_of(out)["passed"] is False

    def test_tol_override_fails_and_is_recorded(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "o"
        rc = main(["run", str(cfg), "--suite", "smooth",
                   "--tol", "richardson=0", "--out", str(out)])
        assert rc == 1
        rec = report_of(out)["suites"]["smooth"]
        assert rec["measured"]["richardson_tol"] == 0.0

    def test_non_norming_pieces_fail_with_note(self, tmp_path):
        # valid decomposition whose functionals stop short of the
        # sphere: the build error is reported, not raised
        decomposition = {"pieces": [[[0.5, 0.0, 0.0],
                                     [-0.5, 0.0, 0.0]]]}
        cfg = write_cfg(tmp_path, decomposition=decomposition)
        out = tmp_path / "o"
        rc = main(["run", str(cfg), "--suite", "approx",
                   "--out", str(out)])
        assert rc == 1
        rec = report_of(out)["suites"]["approx"]
        assert rec["status"] == "failed"
        assert rec["note"].startswith("error:")


class TestBoundaryTolerance:
    def test_boundary_tol_reaches_the_build(self, tmp_path):
        # functionals of norm 1 - 1e-8 norm the sphere within the
        # configured 1e-6, so the build's own check must use it too
        c = 0.99999999
        cfg = write_cfg(
            tmp_path, space={"kind": "sup_finite", "dim": 2},
            decomposition={"pieces": [[[c, 0.0], [-c, 0.0]],
                                      [[0.0, c], [0.0, -c]]]},
            tolerances={"boundary": 1e-6},
            suites=["boundary", "claim2d", "localdep"])
        out = tmp_path / "o"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        suites = report_of(out)["suites"]
        assert {k: v["status"] for k, v in suites.items()} == {
            "boundary": "passed", "claim2d": "passed",
            "localdep": "passed"}
        assert suites["boundary"]["measured"]["boundary_tol"] == 1e-6


class TestFactorSpace:
    def test_euclidean_factor_runs_all_suites(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            factor_space={"kind": "euclidean", "dim": 2},
            samples={"approx": 8, "claim1": 8, "claim2d": 100,
                     "localdep": 3, "boundary": 20, "tensor": 6,
                     "equiv": 16, "build": 64})
        out = tmp_path / "o"
        rc = main(["run", str(cfg), "--suite", "all", "--out", str(out)])
        assert rc == 0
        report = report_of(out)
        assert report["suites"]["tensor"]["status"] == "passed"
        assert report["suites"]["smooth"]["status"] == "skipped"
        m = report["suites"]["tensor"]["measured"]
        assert m["identity_max_dev"] <= 1e-12
        assert m["product_attained"] is True
        # matrix inputs flatten to dim X * dim Y coordinate columns
        with (out / "approx_samples.csv").open() as fh:
            header = next(csv.reader(fh))
        assert header[1:7] == [f"x{i}" for i in range(6)]


class TestEntryPoints:
    def test_module_invocation(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "o"
        proc = subprocess.run(
            [sys.executable, "-m", "smoothnorm.cli", "run", str(cfg),
             "--suite", "boundary", "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "[boundary] passed" in proc.stdout
        assert (out / "report.json").exists()

    def test_console_script(self, tmp_path):
        exe = shutil.which("smoothnorm")
        if exe is None:
            pytest.skip("console script not on PATH")
        cfg = write_cfg(tmp_path)
        out = tmp_path / "o"
        proc = subprocess.run(
            [exe, "run", str(cfg), "--suite", "boundary",
             "--out", str(out)], capture_output=True, text=True)
        assert proc.returncode == 0

    def test_no_arguments_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2
