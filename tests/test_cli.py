"""CLI subcommands: exit codes, reproducibility, manifests, and wiring."""

from __future__ import annotations

import json

import pytest

from dagplan import (
    build_dataset,
    fixture_key,
    load_records,
    save_cassette,
    save_records,
    score_plan,
    serialize_plan,
    synth_library,
)
from dagplan.cli import main
from dagplan.prompts import replan_prompt
from helpers import make_plan, plan_text

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


def test_eval_prediction_id_that_is_not_a_string_exits_two(tmp_path, capsys):
    dataset = write(tmp_path, "data.jsonl", _record_line() + "\n")
    predictions = write(tmp_path, "preds.jsonl", '{"id": [1], "candidate": "x"}\n')
    assert main(["eval", "--predictions", predictions, "--dataset", dataset]) == 2
    err = capsys.readouterr().err
    assert 'preds.jsonl: a prediction "id" is not a string' in err
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
    namespace = argparse.Namespace(
        offline=False, fixture=None, client_config=str(config), base_url=None, model=None
    )
    monkeypatch.delenv("DAGPLAN_BASE_URL", raising=False)
    monkeypatch.delenv("DAGPLAN_MODEL", raising=False)
    client = _resolve_client(namespace)
    assert client.base_url == "http://file"
    assert client.model_name == "file-model"

    monkeypatch.setenv("DAGPLAN_BASE_URL", "http://env")
    monkeypatch.setenv("DAGPLAN_MODEL", "env-model")
    client = _resolve_client(namespace)
    assert client.base_url == "http://env"
    assert client.model_name == "env-model"

    namespace.base_url = "http://flag"
    namespace.model = "flag-model"
    client = _resolve_client(namespace)
    assert client.base_url == "http://flag"
    assert client.model_name == "flag-model"

    namespace.offline = True  # the offline flag beats everything
    assert _resolve_client(namespace) is None


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
     "bindings.json", '{"t1": {"url": 5}}', "binding 't1' has no string \"url\""),
    (["exec", "--plan", "{plan}", "--registry", "{file}"],
     "bindings.json", '{"t1": "http://x"}', "binding 't1' has no string \"url\""),
], ids=["curate-cassette-list", "curate-cassette-number", "run-cassette-list",
        "gen-cassette-string", "exec-bindings-list", "exec-url-number", "exec-binding-string"])
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
     'bands are objects of "candidates" and "required"'),
    (["gen", "--offline", "--difficulty-config", "{file}"], "bands.json",
     '{"Easy": {"candidates": [5, 4], "required": [1, 2]}}', "band ranges must be non-empty"),
    (["gen", "--client-config", "{file}"], "client.json", "[1, 2]", "not an object of strings"),
    (["gen", "--client-config", "{file}"], "client.json", '{"base_url": "http://x", "timeout": [1]}',
     'a numeric "timeout"'),
], ids=["catalog-deep-nesting", "catalog-object", "bands-number", "bands-empty-range",
        "client-config-list", "client-config-timeout-list"])
def test_malformed_catalog_or_config_exits_two(tmp_path, capsys, argv, name, text, message):
    paths = {"file": write(tmp_path, name, text)}
    argv = [arg.format(**paths) for arg in argv] + ["--counts", "Easy=1", "--out", str(tmp_path / "gen.jsonl")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{name}: " in err and message in err
    assert "Traceback" not in err
    assert not (tmp_path / "gen.jsonl").exists()


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
