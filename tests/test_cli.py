"""CLI subcommands: exit codes, reproducibility, manifests, and wiring."""

from __future__ import annotations

import gc
import json
import os
import tracemalloc
import types
from pathlib import Path

import pytest

from dagplan import (
    Band,
    DifficultyConfig,
    FixtureClient,
    HttpRegistry,
    build_dataset,
    fixture_key,
    load_records,
    save_cassette,
    save_records,
    score_plan,
    serialize_plan,
    synth_library,
)
from dagplan import cli, clients
from dagplan.cli import main
from dagplan.plan import FormatError, read_text
from dagplan.prompts import replan_prompt
from helpers import cycles_left_by, loopback, make_plan, plan_text

LIB = synth_library(120, seed=0)

VALID = plan_text(
    [("a", "t1"), ("b", "t2"), ("c", "t3"), ("d", "t4")],
    [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")],
)
CYCLIC = plan_text([("a", "t1"), ("b", "t2")], [("a", "b"), ("b", "a")])


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# --- validate ------------------------------------------------------------------


def test_validate_exit_codes(tmp_path, capsys):
    assert main(["validate", write(tmp_path, "ok.json", VALID)]) == 0
    assert "valid" in capsys.readouterr().out
    assert main(["validate", write(tmp_path, "cyc.json", CYCLIC)]) == 1
    assert "a -> b -> a" in capsys.readouterr().out
    assert main(["validate", write(tmp_path, "bad.json", "junk")]) == 2
    assert "syntax error" in capsys.readouterr().out


def test_validate_json_report_and_dot(tmp_path, capsys):
    plan_file = write(tmp_path, "ok.json", VALID)
    dot_file = tmp_path / "plan.dot"
    assert main(["validate", plan_file, "--json", "--dot", str(dot_file)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["syntax_ok"] and doc["is_acyclic"] and doc["is_connected"]
    assert '"a" -> "b";' in dot_file.read_text()


def test_validate_self_loop_flag_flips_classification(tmp_path, capsys):
    loop = write(tmp_path, "loop.json", plan_text([("a", "t1")], [("a", "a")]))
    assert main(["validate", loop]) == 2
    capsys.readouterr()
    assert main(["validate", loop, "--self-loop", "cycle"]) == 1
    assert "a -> a" in capsys.readouterr().out


def test_validate_missing_file_is_io_error(tmp_path):
    assert main(["validate", str(tmp_path / "absent.json")]) == 2


# --- score ---------------------------------------------------------------------


def test_score_gold_vs_gold_all_max(tmp_path, capsys):
    records, _ = build_dataset(LIB, {"Easy": 4}, seed=1)
    dataset = tmp_path / "data.jsonl"
    save_records(records, dataset)
    candidates = tmp_path / "cands.jsonl"
    candidates.write_text(
        "".join(serialize_plan(r.gold_plan) + "\n" for r in records), encoding="utf-8"
    )
    out = tmp_path / "scores.jsonl"
    assert main(["score", "--candidates", str(candidates), "--golds", str(dataset),
                 "--out", str(out)]) == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(rows) == 4
    assert all(row["value"] == 10.0 for row in rows)
    summary = json.loads((tmp_path / "scores.jsonl.summary.json").read_text())
    assert summary["branches"] == {"fidelity": 4}
    assert (tmp_path / "scores.jsonl.manifest.json").exists()


def test_score_dataset_file_against_itself(tmp_path, capsys):
    records, _ = build_dataset(LIB, {"Easy": 3}, seed=9)
    dataset = tmp_path / "data.jsonl"
    save_records(records, dataset)
    assert main(["score", "--candidates", str(dataset), "--golds", str(dataset)]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [row["value"] for row in rows] == [10.0, 10.0, 10.0]
    assert rows[0]["id"] == records[0].record_id


def test_score_mixed_fixture_matches_library_oracle(tmp_path, capsys):
    gold = make_plan([("a", "t1"), ("b", "t2"), ("c", "t3")], [("a", "b"), ("a", "c")])
    texts = [
        "garbage",
        plan_text([("a", "t1"), ("b", "t2")], [("a", "b"), ("b", "a")]),
        plan_text([("a", "t1"), ("b", "t2"), ("c", "t3")], [("a", "b")]),
        serialize_plan(gold),
    ]
    candidates = tmp_path / "cands.jsonl"
    candidates.write_text(
        "".join(json.dumps({"id": f"c{i}", "candidate": t}) + "\n" for i, t in enumerate(texts)),
        encoding="utf-8",
    )
    golds = tmp_path / "golds.jsonl"
    golds.write_text((serialize_plan(gold) + "\n") * 4, encoding="utf-8")
    assert main(["score", "--candidates", str(candidates), "--golds", str(golds)]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    for row, text in zip(rows, texts):
        oracle = score_plan(text, gold)
        assert row["value"] == oracle.value
        assert row["branch"] == oracle.branch.value


def test_score_empty_input_is_empty_report(tmp_path, capsys):
    empty = write(tmp_path, "empty.jsonl", "")
    assert main(["score", "--candidates", empty, "--golds", empty]) == 0
    assert capsys.readouterr().out == ""


def test_score_length_mismatch_is_usage_error(tmp_path):
    a = write(tmp_path, "a.jsonl", '{"nodes":[],"edges":[]}\n')
    b = write(tmp_path, "b.jsonl", "")
    assert main(["score", "--candidates", a, "--golds", b]) == 2


@pytest.mark.parametrize("line, reason", [
    ('{"nodes": 5}', '"nodes" is not an array'),
    ('"text"', "top-level value is not an object"),
    ('{"gold_plan": {"nodes": [{"id": "a"}]}}', "node 'a' has no usable tool"),
    ("junk", "not valid JSON: Expecting value at position 0"),
], ids=["nodes-not-array", "json-string", "record-no-tool", "not-json"])
def test_score_gold_line_that_is_not_a_plan_exits_two_naming_the_line(tmp_path, capsys, line, reason):
    candidates = write(tmp_path, "c.jsonl", VALID + "\n" + VALID + "\n")
    golds = write(tmp_path, "g.jsonl", VALID + "\n" + line + "\n")
    assert main(["score", "--candidates", candidates, "--golds", golds]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"dagplan: {golds} line 2: {reason}\n"
    assert captured.out == ""


def test_score_cyclic_gold_exits_one(tmp_path, capsys):
    candidates = write(tmp_path, "c.jsonl", VALID + "\n")
    golds = write(tmp_path, "g.jsonl", CYCLIC + "\n")
    assert main(["score", "--candidates", candidates, "--golds", golds]) == 1
    assert capsys.readouterr().err == "dagplan: gold plan is cyclic: a -> b -> a\n"


# --- eval ----------------------------------------------------------------------


def test_eval_perfect_predictions(tmp_path, capsys):
    records, _ = build_dataset(LIB, {"Easy": 3, "Hard": 3}, seed=2)
    dataset = tmp_path / "data.jsonl"
    save_records(records, dataset)
    predictions = tmp_path / "preds.jsonl"
    predictions.write_text(
        "".join(
            json.dumps({"id": r.record_id, "candidate": serialize_plan(r.gold_plan)}) + "\n"
            for r in records
        ),
        encoding="utf-8",
    )
    out = tmp_path / "summary.json"
    assert main(["eval", "--predictions", str(predictions), "--dataset", str(dataset),
                 "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "Easy" in stdout and "Hard" in stdout and "Overall" in stdout
    doc = json.loads(out.read_text())
    assert set(doc["groups"]) == {"Easy", "Hard"}
    assert doc["overall"]["exact_match"] == 1.0
    assert doc["overall"]["failures"] == 0


def test_eval_counts_missing_predictions_as_failures(tmp_path):
    records, _ = build_dataset(LIB, {"Easy": 2}, seed=3)
    dataset = tmp_path / "data.jsonl"
    save_records(records, dataset)
    predictions = tmp_path / "preds.jsonl"
    predictions.write_text(
        json.dumps({"id": records[0].record_id,
                    "candidate": serialize_plan(records[0].gold_plan)}) + "\n",
        encoding="utf-8",
    )
    out = tmp_path / "summary.json"
    assert main(["eval", "--predictions", str(predictions), "--dataset", str(dataset),
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["overall"]["failures"] == 1
    assert doc["overall"]["exact_match"] == 0.5


def test_eval_reports_every_difficulty_the_dataset_names(tmp_path, capsys):
    lines = [_record_line(id="r0", difficulty="Bogus"), _record_line(id="r1"),
             _record_line(id="r2", difficulty="Extra"), _record_line(id="r3", difficulty="Bogus")]
    dataset = write(tmp_path, "data.jsonl", "\n".join(lines) + "\n")
    predictions = write(tmp_path, "preds.jsonl", "".join(
        json.dumps({"id": f"r{i}", "candidate": json.loads(line)["gold_plan"]}) + "\n"
        for i, line in enumerate(lines[:2])))
    out = tmp_path / "summary.json"
    assert main(["eval", "--predictions", predictions, "--dataset", dataset, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert {name: (g["count"], g["failures"]) for name, g in doc["groups"].items()} == {
        "Easy": (1, 0), "Bogus": (2, 1), "Extra": (1, 1)}
    assert doc["overall"]["count"] == 4
    rows = [line.split()[:3] for line in capsys.readouterr().out.splitlines()[1:]]
    assert rows == [["Easy", "1", "0"], ["Bogus", "2", "1"], ["Extra", "1", "1"], ["Overall", "4", "2"]]


def test_eval_prediction_id_that_is_not_a_string_exits_two(tmp_path, capsys):
    dataset = write(tmp_path, "data.jsonl", _record_line() + "\n")
    predictions = write(tmp_path, "preds.jsonl", '{"id": [1], "candidate": "x"}\n')
    assert main(["eval", "--predictions", predictions, "--dataset", dataset]) == 2
    err = capsys.readouterr().err
    assert 'preds.jsonl line 1: field "id" is not a string' in err
    assert "Traceback" not in err


# --- gen -----------------------------------------------------------------------


def test_gen_offline_is_byte_reproducible(tmp_path):
    out1 = tmp_path / "one.jsonl"
    out2 = tmp_path / "two.jsonl"
    argv = ["gen", "--offline", "--counts", "Easy=4,Medium=2", "--seed", "11"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    records = load_records(out1)
    assert len(records) == 6
    stats = json.loads((tmp_path / "one.jsonl.stats.json").read_text())
    assert stats["generated"] == {"Easy": 4, "Medium": 2}
    manifest = json.loads((tmp_path / "one.jsonl.manifest.json").read_text())
    assert manifest["seed"] == 11
    assert manifest["subcommand"] == "gen"
    assert manifest["config_hash"]


def test_gen_requires_client_or_offline(tmp_path, monkeypatch):
    monkeypatch.delenv("DAGPLAN_BASE_URL", raising=False)
    assert main(["gen", "--out", str(tmp_path / "x.jsonl")]) == 2


def test_gen_resume_appends_only_missing_records(tmp_path):
    out = tmp_path / "data.jsonl"
    assert main(["gen", "--offline", "--counts", "Easy=5", "--seed", "4",
                 "--out", str(out)]) == 0
    first = out.read_text()
    assert main(["gen", "--offline", "--counts", "Easy=8", "--seed", "4",
                 "--out", str(out), "--resume"]) == 0
    combined = load_records(out)
    assert len(combined) == 8
    assert len({r.record_id for r in combined}) == 8
    assert out.read_text().startswith(first)
    stats = json.loads((tmp_path / "data.jsonl.stats.json").read_text())
    assert stats["written"] == 3
    assert stats["skipped_existing"] == 5


def test_gen_resume_over_a_malformed_line_exits_two_and_leaves_the_file(tmp_path, capsys):
    out = tmp_path / "data.jsonl"
    assert main(["gen", "--offline", "--counts", "Easy=2", "--seed", "4", "--out", str(out)]) == 0
    out.write_text(out.read_text().replace("\n", '\n{"id": 5}\n', 1))
    before = out.read_text()
    assert main(["gen", "--offline", "--counts", "Easy=4", "--seed", "4", "--out", str(out), "--resume"]) == 2
    assert f"{out} line 2: " in capsys.readouterr().err
    assert out.read_text() == before


def test_gen_bad_counts_is_usage_error(tmp_path):
    assert main(["gen", "--offline", "--counts", "Impossible=3",
                 "--out", str(tmp_path / "x.jsonl")]) == 2


def test_gen_with_difficulty_config_file(tmp_path):
    config = {"Easy": {"candidates": [3, 5], "required": [2, 3]}}
    config_file = write(tmp_path, "bands.json", json.dumps(config))
    out = tmp_path / "data.jsonl"
    assert main(["gen", "--offline", "--counts", "Easy=6", "--seed", "1",
                 "--difficulty-config", config_file, "--out", str(out)]) == 0
    for record in load_records(out):
        assert 3 <= len(record.candidate_tools) <= 5
        assert 2 <= len(record.gold_plan) <= 3


# --- curate --------------------------------------------------------------------


def curation_fixture(tmp_path, records, patterns, n=5):
    entries = {}
    for record, pattern in zip(records, patterns):
        prompt = replan_prompt(record.query, record.candidate_tools)
        for i in range(n):
            text = serialize_plan(record.gold_plan) if pattern[i % len(pattern)] else "nope"
            entries[fixture_key(prompt, i)] = text
    path = tmp_path / "cassette.json"
    save_cassette(entries, path)
    return str(path)


def test_curate_cli_end_to_end(tmp_path):
    records, _ = build_dataset(LIB, {"Easy": 5}, seed=6)
    dataset = tmp_path / "data.jsonl"
    save_records(records, dataset)
    patterns = [[0], [1, 0, 1, 0, 0], [1], [0, 1, 0, 0, 0], [1, 1, 0, 1, 1]]
    cassette = curation_fixture(tmp_path, records, patterns)
    out = tmp_path / "kept.jsonl"
    train = tmp_path / "train.jsonl"
    test = tmp_path / "test.jsonl"
    assert main(["curate", "--dataset", str(dataset), "--out", str(out),
                 "--fixture", cassette, "--seed", "2",
                 "--train-out", str(train), "--test-out", str(test)]) == 0
    kept = load_records(out)
    assert [r.record_id for r in kept] == [records[i].record_id for i in (1, 3, 4)]
    stats = json.loads((tmp_path / "kept.jsonl.stats.json").read_text())
    assert stats["input_count"] == 5
    assert stats["kept"] == 3
    assert stats["excluded_easy"] == 1
    assert stats["excluded_hard"] == 1
    assert stats["train_size"] + stats["test_size"] == 3
    assert len(load_records(train)) == stats["train_size"]


def test_curate_outputs_are_identical_across_jobs(tmp_path):
    records, _ = build_dataset(LIB, {"Easy": 6}, seed=6)
    dataset = tmp_path / "data.jsonl"
    save_records(records, dataset)
    cyclic = plan_text([("a", "t1"), ("b", "t2")], [("a", "b"), ("b", "a")])
    disconnected = plan_text([("a", "t1"), ("b", "t2")], [])
    entries = {}
    for k, record in enumerate(records[:-1]):  # the last record has no rollouts: unprofiled
        gold = serialize_plan(record.gold_plan)
        partial = serialize_plan(make_plan([("x", record.gold_plan.nodes[0].tool)], []))
        group = [gold, "nope", cyclic, disconnected, partial, gold, "nope", partial][k:] + [gold] * k
        prompt = replan_prompt(record.query, record.candidate_tools)
        entries.update((fixture_key(prompt, i), text) for i, text in enumerate(group))
    cassette = tmp_path / "cassette.json"
    save_cassette(entries, cassette)
    expected = {score_plan(text, records[0].gold_plan).branch.value for text in entries.values()}
    assert expected == {"syntax", "cycle", "connectivity", "fidelity"}

    outputs = []
    for jobs in (1, 2, 4):
        out = tmp_path / f"kept-{jobs}.jsonl"
        train, test = tmp_path / f"train-{jobs}.jsonl", tmp_path / f"test-{jobs}.jsonl"
        assert main(["curate", "--dataset", str(dataset), "--fixture", str(cassette),
                     "--rollouts", "8", "--jobs", str(jobs), "--seed", "3", "--out", str(out),
                     "--train-out", str(train), "--test-out", str(test)]) == 0
        outputs.append([p.read_bytes() for p in (out, train, test, tmp_path / f"kept-{jobs}.jsonl.stats.json")])
    assert outputs[0] == outputs[1] == outputs[2]
    stats = json.loads(outputs[0][3])
    assert stats["unprofiled"] == 1
    assert stats["histogram"] == {"2/8": 2, "3/8": 1, "4/8": 1, "5/8": 1}
    assert [r.record_id for r in load_records(tmp_path / "kept-1.jsonl")] == [r.record_id for r in records[:5]]


def test_client_settings_precedence(tmp_path, monkeypatch):
    import argparse

    from dagplan.cli import _resolve_client

    config = tmp_path / "client.json"
    config.write_text(json.dumps({"base_url": "http://file", "model": "file-model"}))

    def resolve(**flags):
        """The client resolved from these flags; the settings it used are written back onto args."""
        namespace = argparse.Namespace(**{"offline": False, "fixture": None, "base_url": None,
                                          "model": None, "client_config": str(config), **flags})
        client = _resolve_client(namespace)
        if client is not None:
            assert (namespace.base_url, namespace.model) == (client.base_url, client.model_name)
        return client

    monkeypatch.delenv("DAGPLAN_BASE_URL", raising=False)
    monkeypatch.delenv("DAGPLAN_MODEL", raising=False)
    client = resolve()
    assert client.base_url == "http://file"
    assert client.model_name == "file-model"
    assert (client.api_key_env, client.timeout) == ("DAGPLAN_API_KEY", 60.0)

    monkeypatch.setenv("DAGPLAN_BASE_URL", "http://env")
    monkeypatch.setenv("DAGPLAN_MODEL", "env-model")
    client = resolve()
    assert client.base_url == "http://env"
    assert client.model_name == "env-model"

    client = resolve(base_url="http://flag", model="flag-model")
    assert client.base_url == "http://flag"
    assert client.model_name == "flag-model"

    # the offline flag beats everything
    assert resolve(base_url="http://flag", model="flag-model", offline=True) is None

    config.write_text(json.dumps({"api_key_env": "OTHER_KEY", "timeout": 5}))
    client = resolve()
    assert (client.api_key_env, client.timeout) == ("OTHER_KEY", 5)


def test_curate_requires_planner(tmp_path, monkeypatch):
    monkeypatch.delenv("DAGPLAN_BASE_URL", raising=False)
    records, _ = build_dataset(LIB, {"Easy": 1}, seed=6)
    dataset = tmp_path / "data.jsonl"
    save_records(records, dataset)
    assert main(["curate", "--dataset", str(dataset),
                 "--out", str(tmp_path / "kept.jsonl")]) == 2


# --- exec ----------------------------------------------------------------------


def test_exec_diamond_reports_three_waves(tmp_path, capsys):
    plan_file = write(tmp_path, "plan.json", VALID)
    trace_file = tmp_path / "trace.json"
    dot_file = tmp_path / "trace.dot"
    assert main(["exec", "--plan", plan_file, "--trace-out", str(trace_file),
                 "--dot", str(dot_file)]) == 0
    stdout = capsys.readouterr().out
    assert "waves=3" in stdout
    trace_doc = json.loads(trace_file.read_text())
    assert trace_doc["waves"] == 3
    assert "wave" in dot_file.read_text()


def test_exec_failure_policy_and_exit_code(tmp_path, capsys):
    plan_file = write(tmp_path, "plan.json", VALID)
    assert main(["exec", "--plan", plan_file, "--fail", "t2"]) == 1
    stdout = capsys.readouterr().out
    assert "failed" in stdout and "skipped" in stdout


def test_exec_cyclic_plan_rejected(tmp_path):
    plan_file = write(tmp_path, "plan.json", CYCLIC)
    assert main(["exec", "--plan", plan_file]) == 1


def test_exec_unparseable_plan_is_io_error(tmp_path):
    plan_file = write(tmp_path, "plan.json", "not a plan")
    assert main(["exec", "--plan", plan_file]) == 2


def test_exec_plan_that_is_not_a_plan_names_the_file(tmp_path, capsys):
    plan_file = write(tmp_path, "bad.json", '{"nodes": 5}')
    assert main(["exec", "--plan", plan_file]) == 2
    assert capsys.readouterr().err == f'dagplan: {plan_file}: cannot parse plan: "nodes" is not an array\n'


def test_exec_plan_over_the_node_limit_is_io_error(tmp_path, capsys):
    # Node i references node i // 2: each far reference costs preflight a walk.
    n = 3000
    nodes = [(f"n{i}", f"t{i}", {"x": f"$n{i // 2}.digest"} if i else {}) for i in range(n)]
    plan = plan_text(nodes, [(f"n{i}", f"n{i + 1}") for i in range(n - 1)])
    assert main(["exec", "--plan", write(tmp_path, "plan.json", plan)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "3000 nodes, more than 1000" in err


def test_exec_plan_over_the_length_limit_is_io_error(tmp_path, capsys):
    from dagplan.plan import MAX_PLAN_CHARS

    plan = VALID + " " * (MAX_PLAN_CHARS + 1 - len(VALID))
    assert main(["exec", "--plan", write(tmp_path, "plan.json", plan)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"more than {MAX_PLAN_CHARS}" in err


@pytest.mark.parametrize("argv", [
    ["exec", "--jobs", "0"],
    ["exec", "--jobs", "-1"],
    ["run", "--query", "q", "--jobs", "0"],
], ids=["exec-jobs-0", "exec-jobs-minus-1", "run-jobs-0"])
def test_exec_and_run_jobs_below_one_are_usage_errors(tmp_path, capsys, argv):
    if argv[0] == "exec":
        argv = argv + ["--plan", write(tmp_path, "plan.json", VALID)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "must be >= 1" in capsys.readouterr().err


# --- run -----------------------------------------------------------------------


def test_run_with_fixture_planner(tmp_path, capsys):
    tools = ["cat0.tool0", "cat0.tool1", "cat0.tool2"]
    plan = make_plan(
        [("a", tools[0]), ("b", tools[1]), ("c", tools[2])],
        [("a", "b"), ("a", "c")],
    )
    prompt = replan_prompt("merge the reports", LIB.subset(tools))
    cassette = tmp_path / "cassette.json"
    save_cassette({fixture_key(prompt): serialize_plan(plan)}, cassette)
    assert main(["run", "--query", "merge the reports",
                 "--candidates", ",".join(tools),
                 "--fixture", str(cassette), "--synth-tools", "120"]) == 0
    out, err = capsys.readouterr()
    doc = json.loads(out)
    assert set(doc) == {"b", "c"}
    assert "inference_steps=1" in err


def test_run_without_candidates_offers_the_whole_library(tmp_path, capsys):
    tools = ["cat0.tool0", "cat0.tool1"]
    plan = make_plan([("a", tools[0]), ("b", tools[1])], [("a", "b")])
    prompt = replan_prompt("merge the reports", LIB.subset(LIB.ids()))
    cassette = tmp_path / "cassette.json"
    save_cassette({fixture_key(prompt): serialize_plan(plan)}, cassette)
    assert main(["run", "--query", "merge the reports", "--fixture", str(cassette),
                 "--synth-tools", "120"]) == 0
    out, err = capsys.readouterr()
    assert set(json.loads(out)) == {"b"}
    assert "inference_steps=1" in err


def test_run_rejected_plan_exits_one(tmp_path, capsys):
    tools = ["cat0.tool0", "cat0.tool1"]
    prompt = replan_prompt("impossible", LIB.subset(tools))
    cassette = tmp_path / "cassette.json"
    save_cassette({fixture_key(prompt): "not a plan"}, cassette)
    assert main(["run", "--query", "impossible", "--candidates", ",".join(tools),
                 "--fixture", str(cassette), "--synth-tools", "120"]) == 1
    assert "plan rejected (syntax)" in capsys.readouterr().err


# --- report --------------------------------------------------------------------


def test_report_renders_each_summary_kind(tmp_path, capsys):
    eval_doc = {"groups": {"Easy": {"count": 2, "failures": 0, "node_p": 1.0, "node_r": 1.0,
                                    "node_f1": 1.0, "edge_p": 1.0, "edge_r": 1.0,
                                    "edge_f1": 1.0, "exact_match": 1.0}},
                "overall": {"count": 2, "failures": 0, "node_p": 1.0, "node_r": 1.0,
                            "node_f1": 1.0, "edge_p": 1.0, "edge_r": 1.0,
                            "edge_f1": 1.0, "exact_match": 1.0}}
    assert main(["report", write(tmp_path, "eval.json", json.dumps(eval_doc))]) == 0
    assert "Overall" in capsys.readouterr().out

    score_doc = {"count": 3, "branches": {"fidelity": 2, "syntax": 1}, "mean_value": 3.3}
    assert main(["report", write(tmp_path, "score.json", json.dumps(score_doc))]) == 0
    assert "syntax" in capsys.readouterr().out

    curation_doc = {"input_count": 5, "kept": 2, "excluded_easy": 2, "excluded_hard": 1,
                    "unprofiled": 0, "histogram": {"2/5": 2}}
    assert main(["report", write(tmp_path, "cur.json", json.dumps(curation_doc))]) == 0
    assert "solve rate" in capsys.readouterr().out

    gen_doc = {"requested": {"Easy": 4}, "generated": {"Easy": 4}}
    assert main(["report", write(tmp_path, "gen.json", json.dumps(gen_doc))]) == 0
    assert "Easy" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["curate", "--rollouts", "1"],
    ["curate", "--jobs", "0"],
    ["gen", "--jobs", "0"],
    ["gen", "--jobs", "many"],
], ids=["curate-rollouts-1", "curate-jobs-0", "gen-jobs-0", "gen-jobs-many"])
def test_out_of_range_counts_are_usage_errors(tmp_path, argv):
    records, _ = build_dataset(LIB, {"Easy": 2}, seed=6)
    dataset = tmp_path / "data.jsonl"
    save_records(records, dataset)
    cassette = curation_fixture(tmp_path, records, [[1, 0], [0, 1]])
    if argv[0] == "curate":
        argv = argv + ["--dataset", str(dataset), "--fixture", cassette]
    else:
        argv = argv + ["--offline"]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "out.jsonl")])
    assert exc.value.code == 2
    assert not (tmp_path / "out.jsonl").exists()


# --- malformed input files -------------------------------------------------------


def _record_line(**changes) -> str:
    records, _ = build_dataset(LIB, {"Easy": 1}, seed=5)
    doc = records[0].to_dict()
    doc.update(changes)
    return json.dumps(doc)


@pytest.mark.parametrize("line, field", [
    ("{}", 'missing field "id"'),
    ("[1,2]", "record is not an object"),
    (_record_line(provenance="oops"), 'field "provenance" is not an object'),
    (_record_line(candidate_tools="abc"), 'field "candidate_tools" is not an array'),
    (_record_line(candidate_tools=["a", 1]), 'field "candidate_tools" is not an array of strings'),
    (_record_line(gold_plan={"nodes": [{"id": "a"}]}), 'field "gold_plan": node \'a\' has no usable tool'),
    (_record_line(query=float("nan")), "not valid JSON: number NaN is not finite"),
    ("[" * 100_000, "not valid JSON"),
], ids=["empty-object", "array", "provenance-string", "tools-string", "tools-mixed",
        "gold-no-tool", "nan", "deep-nesting"])
def test_malformed_dataset_line_exits_two_naming_line_and_field(tmp_path, capsys, line, field):
    dataset = write(tmp_path, "data.jsonl", _record_line() + "\n" + line + "\n")
    predictions = write(tmp_path, "preds.jsonl", "")
    assert main(["eval", "--predictions", predictions, "--dataset", dataset]) == 2
    err = capsys.readouterr().err
    assert f"data.jsonl line 2: {field}" in err
    assert "Traceback" not in err


def test_eval_stops_at_a_malformed_dataset_line_and_writes_no_summary(tmp_path, capsys):
    lines = [_record_line(id=f"r{i}") for i in range(5)]
    lines[3] = _record_line(id="r3", difficulty=5)
    dataset = write(tmp_path, "data.jsonl", "".join(line + "\n" for line in lines))
    predictions = write(tmp_path, "preds.jsonl", json.dumps(
        {"id": "r0", "candidate": json.loads(lines[0])["gold_plan"]}) + "\n")
    out = tmp_path / "summary.json"
    assert main(["eval", "--predictions", predictions, "--dataset", dataset, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f'dagplan: {dataset} line 4: field "difficulty" is not a string\n'
    assert captured.out == ""
    assert not out.exists() and not (tmp_path / "summary.json.manifest.json").exists()


def test_eval_reports_malformed_predictions_before_a_malformed_dataset(tmp_path, capsys):
    dataset = write(tmp_path, "data.jsonl", "{}\n")
    predictions = write(tmp_path, "preds.jsonl", '{"id": 5, "candidate": "x"}\n')
    assert main(["eval", "--predictions", predictions, "--dataset", dataset]) == 2
    assert capsys.readouterr().err == f'dagplan: {predictions} line 1: field "id" is not a string\n'


def test_eval_peak_memory_is_under_half_of_loading_the_dataset(tmp_path):
    dataset = tmp_path / "data.jsonl"
    assert main(["gen", "--offline", "--counts", "Easy=700,Medium=700,Hard=600", "--seed", "4",
                 "--out", str(dataset)]) == 0
    first = json.loads(dataset.read_text(encoding="utf-8").splitlines()[0])
    predictions = write(tmp_path, "preds.jsonl",
                        json.dumps({"id": first["id"], "candidate": first["gold_plan"]}) + "\n")
    out = tmp_path / "summary.json"
    tracemalloc.start()
    try:
        assert len(load_records(dataset)) == 2000
        load_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        assert main(["eval", "--predictions", predictions, "--dataset", str(dataset),
                     "--out", str(out)]) == 0
        eval_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert json.loads(out.read_text())["overall"]["count"] == 2000
    assert eval_peak < load_peak / 2, (eval_peak, load_peak)


def test_a_loaded_record_stays_under_5000_live_bytes_and_20_tracked_objects(tmp_path):
    # With an instance dict per plan node, a record took about 6010 B and 24.1 tracked objects.
    dataset = tmp_path / "data.jsonl"
    assert main(["gen", "--offline", "--counts", "Easy=700,Medium=700,Hard=600", "--seed", "4",
                 "--out", str(dataset)]) == 0
    gc.collect()
    before = len(gc.get_objects())
    tracemalloc.start()
    try:
        records = load_records(dataset)
        gc.collect()
        live = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    tracked = len(gc.get_objects()) - before
    assert len(records) == 2000
    assert live / 2000 < 5000, live / 2000
    assert tracked / 2000 < 20, tracked / 2000


@pytest.mark.parametrize("argv, name, text, message", [
    (["curate", "--dataset", "{data}", "--out", "{tmp}/kept.jsonl", "--fixture", "{file}"],
     "cassette.json", "[1, 2]", "a cassette is an object of response strings"),
    (["curate", "--dataset", "{data}", "--out", "{tmp}/kept.jsonl", "--fixture", "{file}"],
     "cassette.json", '{"entries": {"k": 5}}', "entry 'k' is not a string"),
    (["run", "--query", "q", "--fixture", "{file}"],
     "cassette.json", "[]", "a cassette is an object of response strings"),
    (["gen", "--out", "{tmp}/gen.jsonl", "--fixture", "{file}"],
     "cassette.json", '"text"', "a cassette is an object of response strings"),
    (["exec", "--plan", "{plan}", "--registry", "{file}"],
     "bindings.json", "[]", "bindings are an object of tool id -> binding"),
    (["exec", "--plan", "{plan}", "--registry", "{file}"],
     "bindings.json", '{"t1": {"url": 5}}', 'field "t1.url" is not a string starting http:// or https://'),
    (["exec", "--plan", "{plan}", "--registry", "{file}"],
     "bindings.json", '{"t1": "http://x"}', 'field "t1" is not an object'),
    (["exec", "--plan", "{plan}", "--registry", "{file}"],
     "bindings.json", '{"t1": {"url": "nonsense"}}', 'field "t1.url" is not a string starting http:// or https://'),
    (["exec", "--plan", "{plan}", "--registry", "{file}"],
     "bindings.json", '{"t1": {"url": "http://127.0.0.1:9", "headers": "oops"}}',
     'field "t1.headers" is not an object of strings'),
    (["exec", "--plan", "{plan}", "--registry", "{file}"],
     "bindings.json", '{"t1": {"url": "http://127.0.0.1:9", "headers": {"X-Try": 2}}}',
     'field "t1.headers" is not an object of strings'),
    (["exec", "--plan", "{plan}", "--registry", "{file}"],
     "bindings.json", '{"t1": {"url": "http://127.0.0.1:9", "timeout": "soon"}}',
     'field "t1.timeout" is not a number of seconds above 0'),
    (["exec", "--plan", "{plan}", "--registry", "{file}"],
     "bindings.json", '{"t1": {"url": "http://127.0.0.1:9", "timeout": true}}',
     'field "t1.timeout" is not a number of seconds above 0'),
    (["exec", "--plan", "{plan}", "--registry", "{file}"],
     "bindings.json", '{"t1": {"url": "http://127.0.0.1:9", "timeout": 1e10}}',
     'field "t1.timeout" is not a number of seconds above 0'),
    (["exec", "--plan", "{plan}", "--registry", "{file}"],
     "bindings.json", '{"t1": {"url": "http://127.0.0.1:9", "method": "DELETE"}}',
     'field "t1.method" is not GET or POST'),
], ids=["curate-cassette-list", "curate-cassette-number", "run-cassette-list",
        "gen-cassette-string", "exec-bindings-list", "exec-url-number", "exec-binding-string",
        "exec-url-not-http",
        "exec-headers-string", "exec-header-number", "exec-timeout-string", "exec-timeout-bool",
        "exec-timeout-beyond-timeout-max",
        "exec-method-delete"])
def test_malformed_cassette_or_bindings_exits_two(tmp_path, capsys, argv, name, text, message):
    records, _ = build_dataset(LIB, {"Easy": 1}, seed=5)
    save_records(records, tmp_path / "data.jsonl")
    paths = {"data": tmp_path / "data.jsonl", "tmp": tmp_path,
             "plan": write(tmp_path, "plan.json", VALID), "file": write(tmp_path, name, text)}
    assert main([arg.format(**paths) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert f"{name}: {message}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, name, text, message", [
    (["gen", "--offline", "--library", "{file}"], "catalog.json", "[" * 100_000, "not valid JSON"),
    (["gen", "--offline", "--library", "{file}"], "catalog.json", '{"tools": []}',
     "top-level value is not an array"),
    (["gen", "--offline", "--difficulty-config", "{file}"], "bands.json", '{"Easy": 5}',
     'field "Easy" is not an object'),
    (["gen", "--offline", "--difficulty-config", "{file}"], "bands.json",
     '{"Easy": {"candidates": [5, 4], "required": [1, 2]}}', "band ranges must be non-empty"),
    (["gen", "--client-config", "{file}"], "client.json", "[1, 2]", "top-level value is not an object"),
    (["gen", "--client-config", "{file}"], "client.json", '{"base_url": "http://x", "timeout": [1]}',
     'field "timeout" is not a number of seconds above 0'),
    (["gen", "--client-config", "{file}"], "client.json", '{"base_url": "http://127.0.0.1:9", "timeout": -1}',
     'field "timeout" is not a number of seconds above 0'),
    (["gen", "--client-config", "{file}"], "client.json", '{"base_url": "http://127.0.0.1:9", "timeout": false}',
     'field "timeout" is not a number of seconds above 0'),
    (["gen", "--client-config", "{file}"], "client.json", '{"base_url": "http://127.0.0.1:9", "timeout": 1e10}',
     'field "timeout" is not a number of seconds above 0'),
], ids=["catalog-deep-nesting", "catalog-object", "bands-number", "bands-empty-range",
        "client-config-list", "client-config-timeout-list", "client-config-timeout-negative",
        "client-config-timeout-bool", "client-config-timeout-beyond-timeout-max"])
def test_malformed_catalog_or_config_exits_two(tmp_path, capsys, argv, name, text, message):
    paths = {"file": write(tmp_path, name, text)}
    argv = [arg.format(**paths) for arg in argv] + ["--counts", "Easy=1", "--out", str(tmp_path / "gen.jsonl")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{name}: " in err and message in err
    assert "Traceback" not in err
    assert not (tmp_path / "gen.jsonl").exists()


def _bad_documents(test, name: str, *more: str) -> list[str]:
    """The JSON text of each case of ``test`` that writes a file called ``name``, then ``more``."""
    mark = next(m for m in test.pytestmark if m.name == "parametrize")
    return [text for _, file, text, _ in mark.args[1] if file == name] + list(more)


def _same_error_in_memory_and_from_file(tmp_path, text, build, read):
    """``build`` of the decoded document raises the FormatError that ``read`` of a
    file holding it raises, but for the file's name."""
    path = write(tmp_path, "doc.json", text)
    with pytest.raises(FormatError) as from_file:
        read(path)
    with pytest.raises(FormatError) as in_memory:
        build(json.loads(text))
    assert str(from_file.value) == f"{path}: {in_memory.value}"


@pytest.mark.parametrize("text", _bad_documents(
    test_malformed_cassette_or_bindings_exits_two, "bindings.json",
    '{"t": {"url": "http://127.0.0.1:9", "method": "DELETE", "timeout": "soon"}}',
    '{"t": {"url": "ftp://127.0.0.1:9"}}', '{"t": {"url": "http://127.0.0.1:9", "method": 5}}'))
def test_http_registry_rejects_in_memory_what_its_file_reader_rejects(tmp_path, text):
    _same_error_in_memory_and_from_file(tmp_path, text, HttpRegistry, HttpRegistry.from_file)


# A JSON string is left out: a string passed to FixtureClient is a cassette's path.
@pytest.mark.parametrize("text", [t for t in _bad_documents(
    test_malformed_cassette_or_bindings_exits_two, "cassette.json", '{"k": 5}', '{"entries": [1]}')
    if not isinstance(json.loads(t), str)])
def test_fixture_client_rejects_in_memory_what_its_file_reader_rejects(tmp_path, text):
    _same_error_in_memory_and_from_file(tmp_path, text, FixtureClient, FixtureClient)


@pytest.mark.parametrize("text", _bad_documents(
    test_malformed_catalog_or_config_exits_two, "bands.json",
    '{"Easy": {"candidates": [5.5, 10], "required": [2, 4]}}',
    '{"Easy": {"candidates": [true, 10], "required": [1, 4]}}',
    '{"Easy": {"candidates": [5, 10, 15], "required": [2, 4]}}',
    '{"Trivial": {"candidates": [5, 10], "required": [2, 4]}}', "[]"))
def test_band_config_rejects_in_memory_what_its_file_reader_rejects(tmp_path, text):
    _same_error_in_memory_and_from_file(tmp_path, text, DifficultyConfig.from_dict,
                                        DifficultyConfig.from_file)


def test_band_config_in_memory_takes_tuples():
    config = DifficultyConfig.from_dict({"Easy": {"candidates": (5, 10), "required": (2, 4)}})
    assert config.bands["Easy"] == Band((5, 10), (2, 4))


@pytest.mark.parametrize("argv, env, expected", [
    (["--base-url", "ftp://127.0.0.1:9"], {}, "does not start with http:// or https://"),
    ([], {"DAGPLAN_BASE_URL": "nonsense"}, "does not start with http:// or https://"),
    (["--client-config", "{file}"], {},
     'client.json: field "base_url" is not a string starting http:// or https://'),
], ids=["flag", "environment", "client-config"])
def test_base_url_that_is_not_http_exits_two(tmp_path, capsys, monkeypatch, argv, env, expected):
    monkeypatch.delenv("DAGPLAN_BASE_URL", raising=False)
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    config = write(tmp_path, "client.json", '{"base_url": "nonsense"}')
    out = tmp_path / "gen.jsonl"
    assert main(["gen", *(arg.format(file=config) for arg in argv), "--counts", "Easy=1",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert expected in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("doc, field", [
    ({"groups": 5}, 'field "groups" is not an object'),
    ({"groups": {"Easy": {"count": "two"}}}, 'field "groups.Easy" is not an object of numbers'),
    ({"groups": {}, "overall": []}, 'field "overall" is not an object of numbers'),
    ({"branches": []}, 'field "branches" is not an object of numbers'),
    ({"branches": {}, "mean_value": "high"}, 'field "mean_value" is not a number'),
    ({"histogram": 3}, 'field "histogram" is not an object of numbers'),
    ({"generated": {}, "requested": {"Easy": None}}, 'field "requested" is not an object of numbers'),
], ids=["groups-number", "group-string", "overall-list", "branches-list", "mean-string",
        "histogram-number", "requested-null"])
def test_report_with_mistyped_section_exits_two_naming_the_field(tmp_path, capsys, doc, field):
    assert main(["report", write(tmp_path, "summary.json", json.dumps(doc))]) == 2
    out, err = capsys.readouterr()
    assert field in err
    assert out == ""


@pytest.mark.parametrize("value", ['"\\ud800"', '"three"', "[1]", "null"],
                         ids=["surrogate", "string", "array", "null"])
def test_report_curation_count_that_is_not_a_number_exits_two_naming_the_field(tmp_path, capsys, value):
    # A lone surrogate printed to a UTF-8 stdout would fail mid-table with exit 1.
    summary = write(tmp_path, "stats.json", '{"histogram": {}, "input_count": 3, "kept": %s}' % value)
    assert main(["report", summary]) == 2
    out, err = capsys.readouterr()
    assert err == f'dagplan: {summary}: field "kept" is not a number\n'
    assert out == ""


def test_report_prints_an_absent_curation_count_as_none(tmp_path, capsys):
    assert main(["report", write(tmp_path, "stats.json", '{"histogram": {"0.5": 1}, "kept": 1}')]) == 0
    assert capsys.readouterr().out == (
        "kept 1 / None (easy None, hard None, unprofiled None)\nsolve rate    tasks\n0.5               1\n")


def test_band_range_error_names_the_band(tmp_path, capsys):
    doc = {"Easy": {"candidates": [5, 10], "required": [2, 4]}, "Hard": {"candidates": [5, 4], "required": [1, 2]}}
    with pytest.raises(FormatError, match=r"^band 'Hard': band ranges must be non-empty and positive"):
        DifficultyConfig.from_dict(doc)
    bands = write(tmp_path, "bands.json", json.dumps(doc))
    assert main(["gen", "--offline", "--difficulty-config", bands, "--counts", "Easy=1",
                 "--out", str(tmp_path / "gen.jsonl")]) == 2
    assert capsys.readouterr().err.startswith(f"dagplan: {bands}: band 'Hard': band ranges must be non-empty")


@pytest.mark.parametrize("argv, name", [
    (["gen", "--offline", "--library", "{file}", "--counts", "Easy=1", "--out", "{tmp}/gen.jsonl"],
     "catalog.json"),
    (["gen", "--offline", "--difficulty-config", "{file}", "--counts", "Easy=1", "--out", "{tmp}/gen.jsonl"],
     "bands.json"),
    (["gen", "--client-config", "{file}", "--counts", "Easy=1", "--out", "{tmp}/gen.jsonl"], "client.json"),
    (["eval", "--predictions", "{preds}", "--dataset", "{file}"], "data.jsonl"),
    (["eval", "--predictions", "{file}", "--dataset", "{data}"], "preds.jsonl"),
    (["score", "--candidates", "{file}", "--golds", "{data}"], "cands.jsonl"),
    (["score", "--candidates", "{preds}", "--golds", "{file}"], "golds.jsonl"),
    (["run", "--query", "q", "--fixture", "{file}"], "cassette.json"),
    (["exec", "--plan", "{plan}", "--registry", "{file}"], "bindings.json"),
    (["exec", "--plan", "{file}"], "plan.json"),
    (["validate", "{file}"], "plan.json"),
    (["report", "{file}"], "summary.json"),
], ids=["catalog", "bands", "client-config", "dataset", "predictions", "candidates", "golds",
        "cassette", "bindings", "exec-plan", "validate-plan", "summary"])
def test_input_file_that_is_not_utf8_exits_two_naming_the_file(tmp_path, capsys, argv, name):
    records, _ = build_dataset(LIB, {"Easy": 1}, seed=5)
    save_records(records, tmp_path / "data.jsonl")
    file = tmp_path / name
    file.write_bytes(b"\xff\xfe" + '{"a": 1}\n'.encode("utf-16-le"))
    paths = {"tmp": tmp_path, "data": tmp_path / "data.jsonl", "file": file,
             "preds": write(tmp_path, "ok-preds.jsonl", json.dumps({"id": "x", "candidate": VALID}) + "\n"),
             "plan": write(tmp_path, "ok-plan.json", VALID)}
    assert main([arg.format(**paths) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert f"{file}: not valid UTF-8 (invalid start byte, byte 0xff)" in err
    assert "Traceback" not in err


# --- exit codes of paths the tests above do not reach -----------------------------


def test_validate_disconnected_plan_names_the_isolated_node(tmp_path, capsys):
    plan_file = write(tmp_path, "plan.json", plan_text([("a", "t1"), ("b", "t2"), ("c", "t3")],
                                                       [("a", "b")]))
    assert main(["validate", plan_file]) == 1
    assert capsys.readouterr().out == "disconnected (c)\n"


def test_eval_prediction_without_id_is_usage_error(tmp_path, capsys):
    dataset = write(tmp_path, "data.jsonl", _record_line() + "\n")
    predictions = write(tmp_path, "preds.jsonl", VALID + "\n")
    assert main(["eval", "--predictions", predictions, "--dataset", dataset]) == 2
    assert capsys.readouterr().err == f'dagplan: {predictions} line 1: missing field "id"\n'


def test_gen_counts_that_are_not_integers_are_usage_errors(tmp_path, capsys):
    assert main(["gen", "--offline", "--counts", "Easy=abc",
                 "--out", str(tmp_path / "x.jsonl")]) == 2
    assert capsys.readouterr().err == "dagplan: invalid literal for int() with base 10: 'abc'\n"
    assert not (tmp_path / "x.jsonl").exists()


def test_gen_catalog_with_duplicate_tool_id_exits_two(tmp_path, capsys):
    tool = {"id": "cat0.tool0", "name": "t", "description": "d"}
    library = write(tmp_path, "dup.json", json.dumps([tool, tool]))
    assert main(["gen", "--offline", "--library", library, "--counts", "Easy=1",
                 "--out", str(tmp_path / "x.jsonl")]) == 2
    assert capsys.readouterr().err == f"dagplan: {library}: duplicate tool id 'cat0.tool0'\n"


@pytest.mark.parametrize("doc, message", [
    ([5], "tool #0 is not an object"),
    ([{"id": "a", "params": [{"name": "x", "type": "weird"}]}], "tool 'a': parameter 'x' has unknown type 'weird'"),
], ids=["tool-number", "unknown-param-type"])
def test_gen_catalog_error_starts_with_the_catalog_path(tmp_path, capsys, doc, message):
    library = write(tmp_path, "cat.json", json.dumps(doc))
    assert main(["gen", "--offline", "--library", library, "--counts", "Easy=1",
                 "--out", str(tmp_path / "x.jsonl")]) == 2
    assert capsys.readouterr().err == f"dagplan: {library}: {message}\n"


@pytest.mark.parametrize("argv, name, doc, message", [
    (["report", "{file}"], "s.json", {"groups": 5}, 'field "groups" is not an object'),
    (["gen", "--client-config", "{file}", "--counts", "Easy=1", "--out", "{tmp}/x.jsonl"], "c.json",
     {"model": 5}, 'field "model" is not a string'),
], ids=["report", "client-config"])
def test_report_and_client_config_errors_start_with_the_path_and_name_the_field(
        tmp_path, capsys, argv, name, doc, message):
    file = write(tmp_path, name, json.dumps(doc))
    assert main([arg.format(file=file, tmp=tmp_path) for arg in argv]) == 2
    out, err = capsys.readouterr()
    assert err == f"dagplan: {file}: {message}\n"
    assert out == ""


RUN_TOOLS = ["cat0.tool0", "cat0.tool1", "cat0.tool2"]


def run_cassette(tmp_path, plan_json: str, query: str = "merge the reports") -> str:
    """A cassette answering ``query`` over RUN_TOOLS with ``plan_json``."""
    cassette = tmp_path / "cassette.json"
    save_cassette({fixture_key(replan_prompt(query, LIB.subset(RUN_TOOLS))): plan_json}, cassette)
    return str(cassette)


def test_run_without_planner_is_usage_error(monkeypatch, capsys):
    monkeypatch.delenv("DAGPLAN_BASE_URL", raising=False)
    assert main(["run", "--query", "q"]) == 2
    assert capsys.readouterr().err == (
        "dagplan: run needs a planner: pass --fixture or client settings\n")


def test_run_with_unknown_candidate_is_usage_error(tmp_path, capsys):
    cassette = run_cassette(tmp_path, VALID)
    assert main(["run", "--query", "q", "--candidates", "nope.tool", "--fixture", cassette]) == 2
    assert capsys.readouterr().err == "dagplan: no tool with id 'nope.tool'\n"


def test_run_plan_that_fails_preflight_exits_one(tmp_path, capsys):
    plan = plan_text([("a", RUN_TOOLS[0]), ("b", RUN_TOOLS[1], {"bad": "$c.digest"}),
                      ("c", RUN_TOOLS[2])], [("a", "b"), ("a", "c")])
    assert main(["run", "--query", "merge the reports", "--candidates", ",".join(RUN_TOOLS),
                 "--fixture", run_cassette(tmp_path, plan)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("dagplan: ") and "not a predecessor" in err
    assert "Traceback" not in err


def test_run_cassette_without_the_key_exits_one(tmp_path, capsys):
    cassette = run_cassette(tmp_path, VALID, query="another query")
    assert main(["run", "--query", "merge the reports", "--candidates", ",".join(RUN_TOOLS),
                 "--fixture", cassette]) == 1
    err = capsys.readouterr().err
    assert err.startswith("dagplan: no fixture entry for key ")
    assert "Traceback" not in err


def test_run_trace_out_writes_trace_and_manifest(tmp_path, capsys):
    plan = plan_text([("a", RUN_TOOLS[0]), ("b", RUN_TOOLS[1])], [("a", "b")])
    trace_file = tmp_path / "trace.json"
    assert main(["run", "--query", "merge the reports", "--candidates", ",".join(RUN_TOOLS),
                 "--fixture", run_cassette(tmp_path, plan), "--trace-out", str(trace_file)]) == 0
    trace = json.loads(trace_file.read_text())
    assert trace["inference_steps"] == 1
    assert set(trace["nodes"]) == {"a", "b"}
    manifest = json.loads((tmp_path / "trace.json.manifest.json").read_text())
    assert manifest["subcommand"] == "run"
    assert manifest["config"]["query"] == "merge the reports"


def sized_inputs(tmp_path, n: int) -> dict[str, str]:
    """``manifest_inputs`` over 2n records, plus inputs that grow with n: a chain
    plan of 4n nodes, a junk candidate per record (as score candidates and as
    eval predictions), a run cassette whose plan chains 2n tools, and a score
    summary of 3n branches with a malformed twin."""
    tmp_path.mkdir()
    inputs = manifest_inputs(tmp_path, 2 * n)
    ids = [r.record_id for r in load_records(inputs["data"])]
    tools = LIB.ids()[:2 * n]
    run_plan = plan_text([(f"n{i}", t) for i, t in enumerate(tools)],
                         [(f"n{i}", f"n{i + 1}") for i in range(len(tools) - 1)])
    save_cassette({fixture_key(replan_prompt("merge the reports", LIB.subset(tools))): run_plan},
                  tmp_path / "run.json")
    branches = {f"b{i}": 1 for i in range(3 * n)}
    return {**inputs, "n": str(2 * n), "tools": ",".join(tools), "first_tool": tools[0],
            "run_cassette": str(tmp_path / "run.json"), "out": str(tmp_path / "out.json"),
            "chain": write(tmp_path, "chain.json", plan_text(
                [(f"n{i}", f"t{i}") for i in range(4 * n)], [(f"n{i}", f"n{i + 1}") for i in range(4 * n - 1)])),
            "junk": write(tmp_path, "junk.jsonl", "{junk\n" * len(ids)),
            "junk_predictions": write(tmp_path, "predictions.jsonl", "".join(
                json.dumps({"id": i, "candidate": "{junk"}) + "\n" for i in ids)),
            "summary": write(tmp_path, "summary.json", json.dumps({"branches": branches, "mean_value": 1.0})),
            "bad_summary": write(tmp_path, "bad.json", json.dumps({"branches": list(branches)}))}


# Per subcommand: the argv of a run that succeeds and of one down a failure
# path, over ``sized_inputs``; ``busy`` is a server that answers 503 to everything.
SIZED_RUNS = {
    "validate": (["validate", "{chain}"], ["validate", "{junk}"]),
    "score": (["score", "--candidates", "{data}", "--golds", "{data}", "--out", "{out}"],
              ["score", "--candidates", "{junk}", "--golds", "{data}", "--out", "{out}"]),
    "eval": (["eval", "--predictions", "{data}", "--dataset", "{data}", "--out", "{out}"],
             ["eval", "--predictions", "{junk_predictions}", "--dataset", "{data}", "--out", "{out}"]),
    "gen": (["gen", "--offline", "--counts", "Easy={n}", "--out", "{out}"],
            ["gen", "--base-url", "{busy}", "--counts", "Easy={n}", "--out", "{out}"]),
    "curate": (["curate", "--dataset", "{data}", "--fixture", "{cassette}", "--out", "{out}"],
               ["curate", "--dataset", "{data}", "--base-url", "{busy}", "--rollouts", "2", "--out", "{out}"]),
    "exec": (["exec", "--plan", "{chain}"], ["exec", "--plan", "{chain}", "--fail", "t1", "--trace-out", "{out}"]),
    "run": (["run", "--query", "merge the reports", "--candidates", "{tools}", "--fixture", "{run_cassette}",
             "--trace-out", "{out}"],
            ["run", "--query", "merge the reports", "--candidates", "{tools}", "--fixture", "{run_cassette}",
             "--fail", "{first_tool}"]),
    "report": (["report", "{summary}"], ["report", "{bad_summary}"]),
}


@pytest.fixture
def no_backoff(monkeypatch):
    """HTTP retries go out at once instead of after their backoff sleeps."""
    monkeypatch.setattr(clients, "time", types.SimpleNamespace(sleep=lambda seconds: None))


@pytest.mark.parametrize("command, failing", [(c, f) for c in sorted(SIZED_RUNS) for f in (False, True)],
                         ids=[c + ("-failing" if f else "") for c in sorted(SIZED_RUNS) for f in (False, True)])
def test_main_leaves_no_reference_cycles(tmp_path, capsys, no_backoff, command, failing):
    # Each command runs with the collector paused, so any cyclic garbage it
    # makes stays until the next collection: it must not grow with the input
    # or with the number of failures.  The first run also starts what a process
    # starts once (such as the shared pool's threads), so it is not compared.
    left = []
    with loopback(503, b"{}") as busy:
        for run, n in enumerate((1, 1, 3)):
            inputs = {**sized_inputs(tmp_path / str(run), n), "busy": busy}
            argv = [a.format(**inputs) for a in SIZED_RUNS[command][failing]]
            left.append(cycles_left_by(lambda: main(argv)))
    assert left[2] == left[1]
    # json's indenting encoder leaves a constant; a run that writes no JSON leaves nothing.
    if "{out}" not in SIZED_RUNS[command][failing]:
        assert left[1] == 0


def test_main_pauses_the_collector_for_the_command_alone(tmp_path, monkeypatch):
    seen = []

    def read_text_spy(path):
        seen.append(gc.isenabled())
        return read_text(path)

    def interrupt(path):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "read_text", read_text_spy)
    runs = [(["validate", write(tmp_path, "ok.json", VALID)], 0),
            (["validate", write(tmp_path, "cyclic.json", CYCLIC)], 1),
            (["validate", str(tmp_path / "absent.json")], 2)]
    try:
        for collecting in (True, False):
            (gc.enable if collecting else gc.disable)()
            for argv, code in runs:
                assert main(argv) == code
                assert gc.isenabled() is collecting
        gc.enable()
        monkeypatch.setattr(cli, "read_text", interrupt)
        with pytest.raises(KeyboardInterrupt):
            main(runs[0][0])
        assert gc.isenabled()
    finally:
        gc.enable()
    assert seen == [False] * 6


@pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="counts open descriptors in /proc/self/fd")
def test_gen_against_a_busy_server_leaves_no_socket_open(tmp_path, no_backoff):
    # A retried 503 must not keep its response, and so its socket, in cyclic
    # garbage that only a collection would free.
    gc.collect()
    gc.disable()
    try:
        before = len(os.listdir("/proc/self/fd"))
        with loopback(503, b"{}") as busy:
            code = main(["gen", "--base-url", busy, "--counts", "Easy=2", "--out", str(tmp_path / "gen.jsonl")])
        after = len(os.listdir("/proc/self/fd"))
    finally:
        gc.enable()
    assert code == 1
    assert after <= before


def test_gen_counts_a_completion_that_is_not_utf8_as_a_client_error(tmp_path, capsys):
    out = tmp_path / "gen.jsonl"
    with loopback(200, b"\xff\xfe") as url:
        assert main(["gen", "--base-url", url, "--counts", "Easy=1", "--out", str(out)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    stats = json.loads((tmp_path / "gen.jsonl.stats.json").read_text())
    assert sum(stats["generated"].values()) == 0
    assert stats["client_errors"] == stats["attempts"] > 0


def test_curate_leaves_a_task_whose_completion_is_not_utf8_unprofiled(tmp_path, capsys):
    inputs = manifest_inputs(tmp_path)
    with loopback(200, b"\xff\xfe") as url:
        assert main(["curate", "--dataset", inputs["data"], "--base-url", url, "--rollouts", "2",
                     "--out", str(tmp_path / "kept.jsonl")]) == 0
    stats = json.loads((tmp_path / "kept.jsonl.stats.json").read_text())
    assert stats["unprofiled"] == stats["input_count"] == 2


# --- manifests -----------------------------------------------------------------

# Per subcommand: the argv of one run, and its output options; the first names
# the file the manifest sits beside.
MANIFEST_RUNS = {
    "score": (["score", "--candidates", "{data}", "--golds", "{data}"], ["--out"]),
    "eval": (["eval", "--predictions", "{data}", "--dataset", "{data}"], ["--out"]),
    "gen": (["gen", "--offline", "--counts", "Easy=1"], ["--out"]),
    "curate": (["curate", "--dataset", "{data}", "--fixture", "{cassette}"],
               ["--out", "--train-out", "--test-out"]),
    "exec": (["exec", "--plan", "{plan}"], ["--trace-out", "--dot"]),
    "run": (["run", "--query", "merge the reports", "--candidates", ",".join(RUN_TOOLS),
             "--fixture", "{cassette}"], ["--trace-out"]),
}


def manifest_inputs(tmp_path, count: int = 2) -> dict[str, str]:
    """The input files the MANIFEST_RUNS read, over ``count`` records; two
    cassettes with the same entries."""
    records, _ = build_dataset(LIB, {"Easy": count}, seed=6)
    save_records(records, tmp_path / "data.jsonl")
    plan = plan_text([("a", RUN_TOOLS[0]), ("b", RUN_TOOLS[1])], [("a", "b")])
    entries = {fixture_key(replan_prompt("merge the reports", LIB.subset(tools))): plan
               for tools in (RUN_TOOLS, RUN_TOOLS[:2])}
    entries.update((fixture_key(replan_prompt(r.query, r.candidate_tools), i),
                    serialize_plan(r.gold_plan)) for r in records for i in range(5))
    for name in ("one.json", "two.json"):
        save_cassette(entries, tmp_path / name)
    return {"data": str(tmp_path / "data.jsonl"), "plan": write(tmp_path, "plan.json", VALID),
            "cassette": str(tmp_path / "one.json"), "other_cassette": str(tmp_path / "two.json")}


def manifest_of(tmp_path, argv, outputs, tag) -> dict:
    """Run ``argv`` with each output option writing to a file named after ``tag``."""
    paths = [str(tmp_path / f"{tag}-{i}.out") for i in range(len(outputs))]
    assert main([*argv, *(arg for pair in zip(outputs, paths) for arg in pair)]) in (0, 1)
    return json.loads(Path(paths[0] + ".manifest.json").read_text())


@pytest.mark.parametrize("command, change", [
    ("exec", ["--fail", "t2"]),
    ("run", ["--fixture", "{other_cassette}"]),
    ("run", ["--candidates", ",".join(RUN_TOOLS[:2])]),
    ("gen", ["--synth-tools", "60"]),
    ("curate", ["--fixture", "{other_cassette}"]),
], ids=["exec-fail", "run-fixture", "run-candidates", "gen-synth-tools", "curate-fixture"])
def test_manifest_config_hash_tells_apart_runs_that_differ_in_one_option(tmp_path, command, change):
    inputs = manifest_inputs(tmp_path)
    argv, outputs = MANIFEST_RUNS[command]
    first = manifest_of(tmp_path, [a.format(**inputs) for a in argv], outputs, "first")
    second = manifest_of(tmp_path, [a.format(**inputs) for a in argv + change], outputs, "second")
    assert first["config_hash"] != second["config_hash"]


@pytest.mark.parametrize("command", sorted(MANIFEST_RUNS))
def test_manifest_config_is_the_parsed_options_but_the_output_paths(tmp_path, command):
    inputs = manifest_inputs(tmp_path)
    argv, outputs = MANIFEST_RUNS[command]
    argv = [a.format(**inputs) for a in argv]
    first, second = (manifest_of(tmp_path, argv, outputs, tag) for tag in ("first", "second"))
    assert first["subcommand"] == command
    assert first["config"] == second["config"]
    assert first["config_hash"] == second["config_hash"]
    assert not {"func", "command", "out", "trace_out", "dot", "train_out", "test_out"} & set(first["config"])


def test_gen_manifest_records_the_resolved_counts_and_bands(tmp_path):
    argv = ["gen", "--offline", "--counts", "easy=1", "--seed", "5"]
    manifest = manifest_of(tmp_path, argv, ["--out"], "gen")
    assert manifest["config"]["counts"] == {"Easy": 1}
    assert manifest["config"]["difficulty_config"] == DifficultyConfig().to_dict()
    assert manifest["config"]["synth_tools"] == 120
    assert manifest["seed"] == 5
