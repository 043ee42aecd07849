"""Every CLI file option outside the config readers is total over mutated files.

Each property breaks a valid seed file by the edits of ``test_config_readers``
(byte flips, truncation, splices, deep nesting, lone surrogate escapes and
huge numbers) and runs the command in-process.  The command exits 0, 1 or 2
and prints no traceback, and an exit-2 message starts with the path of the
file at fault: ``<path>: `` for a whole file, ``<path> line N: `` for a line
of a JSONL file.  The two exits 2 that name no file are ``validate``'s own
``syntax error:`` verdict on stdout and ``score``'s count mismatch.  Stdout
is a strict UTF-8 stream, as a terminal's is.  ``exec`` runs on the mock
registry, so no property opens a socket.
"""

from __future__ import annotations

import contextlib
import io
import json

from hypothesis import given
from hypothesis import strategies as st

from dagplan import build_dataset, synth_library
from dagplan.cli import main
from dagplan.plan import plan_doc
from helpers import plan_text
from test_config_readers import FUZZ, mutated

RECORDS, _ = build_dataset(synth_library(120, 0), {"Easy": 2, "Medium": 1}, seed=0)
DATASET = "".join(json.dumps(r.to_dict(), ensure_ascii=False, sort_keys=True) + "\n" for r in RECORDS)
PLAN = plan_text([("a", "t1", {"q": "x"}), ("b", "t2", {"in": "$a.digest"}), ("c", "t3", {"n": 2.5})],
                 [("a", "b"), ("a", "c")])
# A candidate of each kind: plan text, a plan document, and a dataset record's gold plan.
PREDICTIONS = "".join(json.dumps(doc) + "\n" for doc in [
    {"id": RECORDS[0].record_id, "candidate": PLAN},
    {"id": RECORDS[1].record_id, "candidate": plan_doc(RECORDS[1].gold_plan)},
    RECORDS[2].to_dict(),
])
# A score stream line of each kind: a predictions object, plan text, a bare plan document.
CANDIDATES = PREDICTIONS.splitlines(keepends=True)[0] + "not a plan\n" + PLAN + "\n"
COUNT_MISMATCH = "golds; counts must match\n"


def run(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of ``dagplan argv`` run in-process."""
    out, err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out.flush()
    return code, out.buffer.getvalue().decode("utf-8"), err.getvalue()


def assert_exit_names(code: int, err: str, path) -> None:
    """The exit contract: 0, 1 or 2, no traceback, and an exit-2 message that starts with ``path``."""
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith(f"dagplan: {path}"), err


def one_of_files(**seeds: str):
    """The name of one of ``seeds`` and its text, mutated."""
    return st.one_of(*(mutated(text.encode("utf-8")).map(lambda data, name=name: (name, data))
                       for name, text in seeds.items()))


def write_files(tmp_path, seeds: dict[str, str], broken: tuple[str, bytes]):
    """Write each seed as ``<name>.jsonl``, the broken one mutated; the broken one's path."""
    for name, text in seeds.items():
        (tmp_path / f"{name}.jsonl").write_text(text, encoding="utf-8")
    name, data = broken
    (tmp_path / f"{name}.jsonl").write_bytes(data)
    return tmp_path / f"{name}.jsonl"


@FUZZ
@given(mutated(PLAN.encode("utf-8")))
def test_validate_exits_0_1_or_2_naming_the_plan(tmp_path, data):
    path = tmp_path / "plan.json"
    path.write_bytes(data)
    code, out, err = run(["validate", str(path)])
    if code == 2 and not err:
        assert out.startswith("syntax error: "), out
    else:
        assert_exit_names(code, err, path)


SCORE = {"candidates": CANDIDATES, "golds": DATASET}


@FUZZ
@given(one_of_files(**SCORE))
def test_score_exits_0_1_or_2_naming_the_stream(tmp_path, broken):
    path = write_files(tmp_path, SCORE, broken)
    code, _, err = run(["score", "--candidates", str(tmp_path / "candidates.jsonl"),
                        "--golds", str(tmp_path / "golds.jsonl")])
    if not (code == 2 and err.endswith(COUNT_MISMATCH)):
        assert_exit_names(code, err, path)


EVAL = {"predictions": PREDICTIONS, "dataset": DATASET}


@FUZZ
@given(mutated(PREDICTIONS.encode("utf-8")).map(lambda data: ("predictions", data)))
def test_eval_exits_0_1_or_2_naming_the_predictions(tmp_path, broken):
    path = write_files(tmp_path, EVAL, broken)
    code, _, err = run(["eval", "--predictions", str(path), "--dataset", str(tmp_path / "dataset.jsonl")])
    assert_exit_names(code, err, path)


@FUZZ
@given(mutated(DATASET.encode("utf-8")).map(lambda data: ("dataset", data)))
def test_eval_exits_0_1_or_2_naming_the_dataset(tmp_path, broken):
    path = write_files(tmp_path, EVAL, broken)
    code, _, err = run(["eval", "--predictions", str(tmp_path / "predictions.jsonl"), "--dataset", str(path)])
    assert_exit_names(code, err, path)


@FUZZ
@given(mutated(PLAN.encode("utf-8")))
def test_exec_exits_0_1_or_2_naming_the_plan(tmp_path, data):
    path = tmp_path / "plan.json"
    path.write_bytes(data)
    code, _, err = run(["exec", "--plan", str(path)])
    assert_exit_names(code, err, path)


@FUZZ
@given(mutated(DATASET.encode("utf-8")))
def test_gen_resume_exits_0_1_or_2_naming_the_dataset(tmp_path, data):
    path = tmp_path / "gen.jsonl"
    path.write_bytes(data)
    code, _, err = run(["gen", "--offline", "--counts", "Easy=2,Medium=2", "--seed", "0", "--resume",
                        "--out", str(path)])
    assert_exit_names(code, err, path)
