"""Smoke test of the benchmark harness at tiny input sizes.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
from workloads import WORKLOADS, Size  # noqa: E402

_BUDGETS = {"approx": 16, "claim1": 16, "claim2d": 40, "localdep": 2,
            "boundary": 20, "tensor": 4, "equiv": 16, "build": 32}
TINY = Size(predual_dim=4, predual_samples=_BUDGETS, euclid_samples=_BUDGETS,
            predual_rows=64, predual_part=32, small_rows=64, small_part=32,
            latency_points=2, latency_repeats=1, small_setup_repeats=2)
# exact work counters: identical for the same seed on the same code
EXACT_COUNTERS = [k for k, unit in harness.PER_LAYER.items()
                  if unit == "count"]


def _bindings():
    """Every function bound in a smoothnorm module, plus the methods the
    tracer wraps, by identity."""
    from smoothnorm import boundary, cli, equiv, orlicz, spaces
    out = {}
    for mod in list(sys.modules.values()):
        name = getattr(mod, "__name__", "")
        if name == "smoothnorm" or name.startswith("smoothnorm."):
            for key, value in vars(mod).items():
                if callable(value):
                    out[(name, key)] = value
    for cls in (boundary.Decomposition, spaces.ModelSpace,
                equiv.BoundaryNormSpace, orlicz.OrliczFamily):
        for key, value in vars(cls).items():
            out[(cls.__name__, key)] = value
    assert cli.main is out[("smoothnorm.cli", "main")]
    return out


def _run(name, tmp_path, trace):
    record = harness.run_workload(name, 3, 0, trace, tmp_path, ROOT,
                                  size=TINY)
    result = record["result"]
    assert result["correct"], record["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    json.dumps(result)
    return result["metrics"]


def test_benchmark_json_matches_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == harness.PER_LAYER


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_end_to_end_metric_emitted(name, tmp_path):
    metrics = _run(name, tmp_path, trace=False)
    assert {k: m["unit"] for k, m in metrics.items()} == harness.END_TO_END
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_counters_repeat_and_wrappers_restored(name, tmp_path):
    before = _bindings()
    first = _run(name, tmp_path / "a", trace=True)
    second = _run(name, tmp_path / "b", trace=True)
    assert {k: m["unit"] for k, m in first.items()} == harness.PER_LAYER
    for key in EXACT_COUNTERS:
        assert first[key]["value"] == second[key]["value"], key
    # the in-process operations are traced, not only the CLI child
    assert first["renorm.build_renorm_calls"]["value"] >= harness.MIN_ROUNDS
    assert first["renorm.phi_norm_batch_rows"]["value"] \
        >= harness.MIN_ROUNDS * TINY.predual_rows
    assert first["orlicz.term_evals"]["value"] > 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
