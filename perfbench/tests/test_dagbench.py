"""The benchmark's own tests: every workload at smoke size, the output contract,
the correctness gates against planted wrong outputs, and traced/untraced parity.

Run from the repository root:

    python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from dagbench import inputs, workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [w["name"] for w in SPEC["workloads"]]


def ctx(tmp_path: Path, seed: int = 3, seconds: float = 0.3) -> workloads.Ctx:
    tmp_path.mkdir(parents=True, exist_ok=True)
    return workloads.Ctx(ROOT, ROOT / "src", tmp_path, seed, seconds, workloads.SMOKE)


def run_cli(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_spec_matches_the_metrics_the_code_emits():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == workloads.PER_LAYER
    assert set(NAMES) == set(workloads.WORKLOADS)
    assert any(m["name"] == "setup_s" and m["better"] == "lower" for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_every_workload_runs_at_smoke_size(workload, trace):
    proc = run_cli(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1, proc.stdout
    expected = workloads.PER_LAYER if trace else workloads.END_TO_END
    assert set(doc["metrics"]) == set(expected)
    for name, metric in doc["metrics"].items():
        assert metric["unit"] == expected[name]
        assert math.isfinite(metric["value"])
        if not trace:
            assert metric["value"] > 0, name
        assert f"{name} = " in proc.stdout


def test_all_runs_every_workload():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seconds", "0.3", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert doc["correct"]
    assert set(doc["metrics"]) == {f"{w}.{m}" for w in NAMES for m in workloads.END_TO_END}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_cli(tmp_path, NAMES[0], 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("workload", NAMES)
def test_traced_and_untraced_runs_give_the_same_primary_outputs(workload, tmp_path):
    # Long enough for the untraced loop to visit every smoke-size query.
    plain = workloads.WORKLOADS[workload](ctx(tmp_path / "plain", seconds=1.5), False)
    traced = workloads.WORKLOADS[workload](ctx(tmp_path / "traced"), True)
    assert plain.failed == 0 and traced.failed == 0, plain.failures + traced.failures
    assert plain.outputs and plain.outputs == traced.outputs


def test_inputs_depend_only_on_the_seed(tmp_path):
    a = workloads.curate_inputs(ctx(tmp_path / "a"))
    b = workloads.curate_inputs(ctx(tmp_path / "b"))
    c = workloads.curate_inputs(ctx(tmp_path / "c", seed=4))
    assert a.dataset.read_bytes() == b.dataset.read_bytes()
    assert a.cassette.read_bytes() == b.cassette.read_bytes()
    assert a.dataset.read_bytes() != c.dataset.read_bytes()


# --- planted wrong outputs must fail their gates ----------------------------------


def _rewrite_entries(path: Path, change) -> None:
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["entries"] = change(doc["entries"])
    path.write_text(json.dumps(doc), encoding="utf-8")


def test_planner_returning_another_plan_fails(tmp_path, monkeypatch):
    original = workloads.agent_inputs

    def rotated(*args, **kwargs):
        ai = original(*args, **kwargs)
        def rotate(entries):
            keys = list(entries)
            return {k: entries[keys[(i + 1) % len(keys)]] for i, k in enumerate(keys)}
        _rewrite_entries(ai.planner, rotate)
        return ai

    monkeypatch.setattr(workloads, "agent_inputs", rotated)
    res = workloads.agent_local(ctx(tmp_path), False)
    assert res.attempted > 0 and res.failed == res.attempted


def test_registry_returning_a_wrong_digest_fails(tmp_path, monkeypatch):
    class WrongDigest(workloads.MockRegistry):
        def invoke(self, tool_id, args):
            out = super().invoke(tool_id, args)
            return {**out, "digest": out["digest"][::-1]}

    monkeypatch.setattr(workloads, "MockRegistry", WrongDigest)
    res = workloads.agent_skewed(ctx(tmp_path), False)
    assert res.attempted > 0 and res.failed == res.attempted


def test_oracle_recomputes_the_mock_digest():
    plan = inputs.Plan(("a.t", "b.t", "c.t"), ((0, 1), (0, 2), (1, 2)))
    registry = workloads.MockRegistry()
    args = inputs.agent_args(plan)
    first = registry.invoke("a.t", args[0])
    leaves = inputs.expected_leaves(plan)
    assert list(leaves) == ["n2"]
    second = registry.invoke("b.t", {"mode": "m1", "in0": first["digest"]})
    third = registry.invoke("c.t", {"mode": "m2", "in0": first["digest"], "in1": second["digest"]})
    assert leaves["n2"] == third


def test_curation_cassette_with_a_changed_rollout_fails(tmp_path, monkeypatch):
    original = workloads.curate_inputs

    def broken(*args, **kwargs):
        ci = original(*args, **kwargs)
        _rewrite_entries(ci.cassette, lambda entries: {k: "not a plan" for k in entries})
        return ci

    monkeypatch.setattr(workloads, "curate_inputs", broken)
    res = workloads.curate_replay(ctx(tmp_path), False)
    assert res.failed >= 1
    assert any("curate" in f for f in res.failures)


def test_wrong_reward_fails_the_trainer_gate(tmp_path, monkeypatch):
    def off_by_one(text, gold):
        breakdown = workloads.score_plan(text, gold)
        return type(breakdown)(breakdown.branch, breakdown.value - 1.0)

    monkeypatch.setattr(workloads, "trainer_pass", lambda golds, groups: (
        1.0, [([off_by_one(t, g) for t in texts], workloads.group_advantages([0.0] * len(texts)))
              for g, texts in zip(golds, groups)]))
    res = workloads.curate_replay(ctx(tmp_path), False)
    assert any("trainer step" in f for f in res.failures)


def test_eval_with_a_dropped_prediction_fails(tmp_path, monkeypatch):
    original = workloads.eval_inputs

    def dropped(*args, **kwargs):
        ei = original(*args, **kwargs)
        lines = ei.predictions.read_text(encoding="utf-8").splitlines()
        ei.predictions.write_text("\n".join(lines[1:]) + "\n", encoding="utf-8")
        return ei

    monkeypatch.setattr(workloads, "eval_inputs", dropped)
    res = workloads.dataset_eval(ctx(tmp_path), False)
    assert any(f.startswith("eval") for f in res.failures)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    values = [float(i) for i in range(1, 101)]
    assert workloads.tail(values) == (90.0, 90.0)
    assert workloads.tail([float(i) for i in range(1, 1001)]) == (99.0, 990.0)
