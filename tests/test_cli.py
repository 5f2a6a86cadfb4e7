"""CLI subcommands: exit codes, file outputs, manifests, idempotence."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import DATA_DIR, FORMAT_1_INDEX, with_meta


def run_cli(*args, cwd=None, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "radkit", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=timeout,
    )


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run the file-based stage chain once and hand the paths to the tests."""
    work = tmp_path_factory.mktemp("pipeline")
    paths = {
        "index": work / "index.json",
        "train": work / "train.jsonl",
        "cands": work / "cands.jsonl",
        "model": work / "model.json",
        "retrieved": work / "retrieved.jsonl",
        "metrics": work / "metrics.json",
    }
    steps = [
        ("index", "--corpus", str(DATA_DIR / "corpus.jsonl"), "--out", str(paths["index"])),
        (
            "emit-train",
            "--index", str(paths["index"]),
            "--rationales", str(DATA_DIR / "rationales.jsonl"),
            "--out", str(paths["train"]),
            "--k", "1",
            "--template", "medqa",
        ),
        (
            "candidates",
            "--index", str(paths["index"]),
            "--rationales", str(DATA_DIR / "rationales.jsonl"),
            "--out", str(paths["cands"]),
            "--kappa1", "4",
            "--kappa2", "2",
        ),
        (
            "rerank-train",
            "--index", str(paths["index"]),
            "--candidates", str(paths["cands"]),
            "--out", str(paths["model"]),
            "--epochs", "10",
            "--dim", "64",
        ),
        (
            "rerank-infer",
            "--index", str(paths["index"]),
            "--questions", str(DATA_DIR / "rationales.jsonl"),
            "--model", str(paths["model"]),
            "--out", str(paths["retrieved"]),
            "--kappa-star", "10",
            "--k", "3",
        ),
        (
            "eval",
            "--index", str(paths["index"]),
            "--rationales", str(DATA_DIR / "rationales.jsonl"),
            "--retrieved", str(paths["retrieved"]),
            "--ks", "1,3",
            "--out", str(paths["metrics"]),
        ),
    ]
    results = []
    for step in steps:
        proc = run_cli(*step)
        assert proc.returncode == 0, f"{step[0]} failed: {proc.stderr}"
        results.append((step, proc))
    return paths, steps, results


class TestIndexCommand:
    def test_valid_corpus(self, tmp_path):
        out = tmp_path / "index.json"
        proc = run_cli("index", "--corpus", str(DATA_DIR / "corpus.jsonl"), "--out", str(out))
        assert proc.returncode == 0
        assert out.exists()
        assert "12 documents" in proc.stdout

    def test_duplicate_id_exits_one_and_names_id(self, tmp_path):
        corpus = tmp_path / "bad.jsonl"
        row = {"id": "dup-1", "title": "", "text": "alpha beta"}
        corpus.write_text(json.dumps(row) + "\n" + json.dumps(row) + "\n")
        proc = run_cli("index", "--corpus", str(corpus), "--out", str(tmp_path / "x.json"))
        assert proc.returncode == 1
        assert "dup-1" in proc.stderr

    def test_missing_file_exits_one_and_names_path(self, tmp_path):
        missing = tmp_path / "nope.jsonl"
        proc = run_cli("index", "--corpus", str(missing), "--out", str(tmp_path / "x.json"))
        assert proc.returncode == 1
        assert str(missing) in proc.stderr


    def test_format_1_index_exits_one_without_traceback(self, tmp_path):
        index = tmp_path / "index.json"
        index.write_bytes(FORMAT_1_INDEX)
        proc = run_cli(
            "emit-train", "--index", str(index),
            "--rationales", str(DATA_DIR / "rationales.jsonl"), "--out", str(tmp_path / "out"),
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines() == [
            f"error: {index}: unknown file format version 1 (expected 2)"
        ], proc.stderr

    def test_index_without_documents_is_one_error_line(self, pipeline, tmp_path):
        paths, _, _ = pipeline
        index = tmp_path / "index.npz"
        index.write_bytes(with_meta(paths["index"].read_bytes(), lambda m: m.update(documents=[])))
        proc = run_cli(
            "rerank-infer", "--index", str(index), "--questions", str(DATA_DIR / "rationales.jsonl"),
            "--out", str(tmp_path / "out.jsonl"), "--kappa-star", "10",
        )
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            f"error: {index}: unknown file format version None (expected 2)"
        ], proc.stderr


class TestPipeline:
    def test_training_examples_parse_and_carry_knowledge(self, pipeline):
        paths, _, _ = pipeline
        rows = [json.loads(line) for line in paths["train"].read_text().splitlines()]
        assert len(rows) == 5  # filtering removed one wrong and one undeclared rationale
        for row in rows:
            assert row["input"].startswith("The following are multiple-choice questions")
            assert "\n\nKnowledge: " in row["input"]
            assert len(row["doc_ids"]) == 1

    def test_candidate_sets_shape(self, pipeline):
        paths, _, _ = pipeline
        rows = [json.loads(line) for line in paths["cands"].read_text().splitlines()]
        assert rows, "no candidate sets produced"
        for row in rows:
            assert len(row["doc_ids"]) == len(set(row["doc_ids"]))
            assert len(row["doc_ids"]) <= 6
            assert len(row["teacher_scores"]) == len(row["doc_ids"])

    def test_retrieved_lists_feed_metrics(self, pipeline):
        paths, _, _ = pipeline
        metrics = json.loads(paths["metrics"].read_text())
        assert set(metrics["hits"]) == {"1", "3"}
        for value in metrics["hits"].values():
            assert 0.0 <= value <= 1.0
        assert metrics["counts"]["examples"] == 4

    def test_manifests_record_digests(self, pipeline):
        paths, _, _ = pipeline
        manifest = json.loads((Path(str(paths["index"]) + ".manifest.json")).read_text())
        assert manifest["command"] == "index"
        assert manifest["version"]
        import hashlib

        digest = hashlib.sha256((DATA_DIR / "corpus.jsonl").read_bytes()).hexdigest()
        assert manifest["inputs"][str(DATA_DIR / "corpus.jsonl")] == digest
        assert str(paths["index"]) in manifest["outputs"]

    def test_rerun_is_byte_identical(self, pipeline, tmp_path):
        paths, steps, _ = pipeline
        for step in steps:
            args = list(step)
            out_at = args.index("--out") + 1
            original = Path(args[out_at])
            rerun_out = tmp_path / ("rerun-" + original.name)
            args[out_at] = str(rerun_out)
            proc = run_cli(*args)
            assert proc.returncode == 0, proc.stderr
            assert rerun_out.read_bytes() == original.read_bytes()


class TestRerankInferOptions:
    def test_external_score_file_overrides_model(self, pipeline, tmp_path):
        paths, _, _ = pipeline
        # force med-009 to the top for ex-01 regardless of the model
        score_rows = [{"id": "ex-01", "doc_id": "med-009", "score": 99.0}]
        score_file = tmp_path / "scores.jsonl"
        score_file.write_text("".join(json.dumps(r) + "\n" for r in score_rows))
        questions = tmp_path / "q.jsonl"
        questions.write_text(
            json.dumps({"id": "ex-01", "question": "thyroid hormone excess treatment"}) + "\n"
        )
        out = tmp_path / "ext.jsonl"
        proc = run_cli(
            "rerank-infer",
            "--index", str(paths["index"]),
            "--questions", str(questions),
            "--out", str(out),
            "--score-file", str(score_file),
            "--kappa-star", "10",
            "--k", "1",
        )
        assert proc.returncode == 0, proc.stderr
        row = json.loads(out.read_text())
        assert row["doc_ids"] == ["med-009"]


    @pytest.mark.parametrize(
        "content, expected",
        [
            ('{"format_version": 1}', "unknown file format version 1 (expected 2)"),
            ("[1]", "unknown file format version None (expected 2)"),
            ("not json", "unknown file format version None (expected 2)"),
        ],
        ids=["missing-field", "not-an-object", "not-json"],
    )
    def test_bad_model_file_is_one_line_naming_it(self, pipeline, tmp_path, content, expected):
        paths, _, _ = pipeline
        model = tmp_path / "model.json"
        model.write_text(content + "\n")
        proc = run_cli(
            "rerank-infer", "--index", str(paths["index"]),
            "--questions", str(DATA_DIR / "rationales.jsonl"), "--model", str(model),
            "--out", str(tmp_path / "out.jsonl"), "--kappa-star", "10",
        )
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [f"error: {model}: {expected}"], proc.stderr


@pytest.mark.parametrize(
    "command, reason",
    [
        (
            "rerank-train --index {index} --candidates {cands} --out {out} --epochs -1",
            "epochs must be >= 0, got -1",
        ),
        (
            "rerank-train --index {index} --candidates {cands} --out {out} --dim 0",
            "embedding dim must be >= 1, got 0",
        ),
        (
            "emit-train --index {index} --rationales {rationales} --out {out}"
            " --max-knowledge-chars -5",
            "--max-knowledge-chars must be >= 1, got -5",
        ),
        (
            "emit-train --index {index} --rationales {rationales} --out {out}"
            " --max-knowledge-chars 0",
            "--max-knowledge-chars must be >= 1, got 0",
        ),
        (
            "eval --index {index} --rationales {rationales} --retrieved {retrieved} --out {out}"
            " --j-gold -1",
            "--j-gold must be >= 0, got -1",
        ),
        (
            "eval --index {index} --rationales {rationales} --retrieved {retrieved} --out {out}"
            " --ks 1,,3",
            "--ks '1,,3': invalid literal for int() with base 10: ''",
        ),
        ("index --corpus {corpus} --out {out} --k1 nan", "k1 must be finite and >= 0, got nan"),
        ("index --corpus {corpus} --out {out} --k1 inf", "k1 must be finite and >= 0, got inf"),
        ("index --corpus {corpus} --out {out} --k1 -0.5", "k1 must be finite and >= 0, got -0.5"),
        ("index --corpus {corpus} --out {out} --b 5", "b must lie in [0, 1], got 5.0"),
        ("index --corpus {corpus} --out {out} --b -0.1", "b must lie in [0, 1], got -0.1"),
    ],
    ids=[
        "epochs-negative", "dim-zero", "chars-negative", "chars-zero", "j-gold-negative",
        "ks-empty", "k1-nan", "k1-inf", "k1-negative", "b-above-one", "b-negative",
    ],
)
def test_bad_number_is_one_error_line_and_writes_nothing(pipeline, tmp_path, command, reason):
    paths, _, _ = pipeline
    out = tmp_path / "out"
    where = {
        **paths,
        "corpus": DATA_DIR / "corpus.jsonl",
        "rationales": DATA_DIR / "rationales.jsonl",
        "out": out,
    }
    proc = run_cli(*command.format(**where).split())
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [f"error: {reason}"], proc.stderr
    assert not out.exists()


class TestEmitTrainOptions:
    def test_filter_none_keeps_every_rationale(self, pipeline, tmp_path):
        paths, _, _ = pipeline
        out = tmp_path / "train-all.jsonl"
        proc = run_cli(
            "emit-train", "--index", str(paths["index"]),
            "--rationales", str(DATA_DIR / "rationales.jsonl"),
            "--out", str(out), "--filter", "none",
        )
        assert proc.returncode == 0, proc.stderr
        assert len(out.read_text().splitlines()) == 7  # 3 + 1 + 2 + 1 rationales

    def test_verdict_file_filter(self, pipeline, tmp_path):
        paths, _, _ = pipeline
        verdicts = tmp_path / "verdicts.jsonl"
        verdicts.write_text(
            json.dumps({"id": "ex-01", "j": 0, "keep": True}) + "\n"
            + json.dumps({"id": "ex-02", "j": 0, "keep": False}) + "\n"
        )
        out = tmp_path / "train-verdict.jsonl"
        proc = run_cli(
            "emit-train", "--index", str(paths["index"]),
            "--rationales", str(DATA_DIR / "rationales.jsonl"),
            "--out", str(out), "--filter", f"verdict-file:{verdicts}",
        )
        assert proc.returncode == 0, proc.stderr
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert [(r["id"], r["j"]) for r in rows] == [("ex-01", 0)]

    def test_no_knowledge_emits_plain_template(self, pipeline, tmp_path):
        paths, _, _ = pipeline
        out = tmp_path / "train-plain.jsonl"
        proc = run_cli(
            "emit-train", "--index", str(paths["index"]),
            "--rationales", str(DATA_DIR / "rationales.jsonl"),
            "--out", str(out), "--no-knowledge",
        )
        assert proc.returncode == 0, proc.stderr
        for line in out.read_text().splitlines():
            row = json.loads(line)
            assert "Knowledge:" not in row["input"]
            assert row["doc_ids"] == []

    def test_custom_manifest_path(self, pipeline, tmp_path):
        paths, _, _ = pipeline
        out = tmp_path / "train-m.jsonl"
        manifest = tmp_path / "custom-manifest.json"
        proc = run_cli(
            "emit-train", "--index", str(paths["index"]),
            "--rationales", str(DATA_DIR / "rationales.jsonl"),
            "--out", str(out), "--manifest-out", str(manifest),
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(manifest.read_text())["command"] == "emit-train"


class TestEvalOptions:
    def test_all_silver_mode_not_above_any_mode(self, pipeline, tmp_path):
        paths, _, _ = pipeline
        strict_out = tmp_path / "metrics-strict.json"
        proc = run_cli(
            "eval", "--index", str(paths["index"]),
            "--rationales", str(DATA_DIR / "rationales.jsonl"),
            "--retrieved", str(paths["retrieved"]), "--ks", "1,3",
            "--all-silver", "--out", str(strict_out),
        )
        assert proc.returncode == 0, proc.stderr
        strict = json.loads(strict_out.read_text())
        loose = json.loads(paths["metrics"].read_text())
        assert strict["mode"] == "all"
        for k in ("1", "3"):
            assert strict["hits"][k] <= loose["hits"][k]


class TestEvalPredictions:
    def test_accuracy_from_predictions_file(self, tmp_path):
        preds = tmp_path / "preds.jsonl"
        rows = [
            {"id": "e1", "texts": ["x Answer: B", "y Answer: B"], "gold": "B"},
            {"id": "e2", "texts": ["no declaration"], "gold": "A"},
        ]
        preds.write_text("".join(json.dumps(r) + "\n" for r in rows))
        proc = run_cli("eval", "--predictions", str(preds))
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["accuracy"] == 0.5


class TestSimulateCommand:
    def test_default_small_run_prints_report(self):
        proc = run_cli(
            "simulate", "--N", "6", "--n", "12", "--d", "16", "--R", "4",
            "--eps", "0.2", "--trials", "5", "--tests", "20", "--quiet",
        )
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["config"]["N"] == 6
        assert 0.0 <= report["err_phi"] <= 1.0

    def test_sweep_emits_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        proc = run_cli(
            "simulate", "--N", "4", "--n", "8", "--d", "12", "--eps", "0.2",
            "--trials", "3", "--tests", "10", "--sweep", "R=0:4:2", "--out", str(out),
        )
        assert proc.returncode == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("param,value,m,")
        assert len(lines) == 4  # header + R in {0, 2, 4}

    def test_same_seed_same_output(self):
        args = ("simulate", "--N", "4", "--n", "8", "--d", "12", "--R", "2",
                "--eps", "0.2", "--trials", "4", "--tests", "25", "--seed", "77")
        assert run_cli(*args).stdout == run_cli(*args).stdout

    def test_eps_sweep(self, tmp_path):
        out = tmp_path / "sweep.csv"
        proc = run_cli(
            "simulate", "--N", "4", "--n", "8", "--d", "12", "--R", "2",
            "--trials", "3", "--tests", "10", "--sweep", "eps=0.1:0.3:0.1",
            "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        assert len(out.read_text().splitlines()) == 4

    @pytest.mark.parametrize(
        "spec, reason",
        [
            ("eps=0.1:0.5:0", "need a step above 0 and a finite start and stop"),
            ("R=0:4:-2", "need a step above 0 and a finite start and stop"),
            ("R=0:4", "expected param=start:stop:step"),
            ("R=4:0:1", "start is above stop, so there is nothing to run"),
            ("R=0:x:1", "invalid literal for int() with base 10: 'x'"),
            ("q=0:4:1", "unknown parameter 'q'"),
        ],
    )
    def test_bad_sweep_is_one_error_line(self, tmp_path, spec, reason):
        out = tmp_path / "sweep.csv"
        proc = run_cli(
            "simulate", "--N", "4", "--n", "8", "--d", "12", "--trials", "1", "--tests", "5",
            "--sweep", spec, "--out", str(out), timeout=60,
        )
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [f"error: --sweep {spec!r}: {reason}"], proc.stderr
        assert not out.exists()



# Every JSONL input of every stage: a valid row, the fields its reader
# requires, and the stage invocation that reads it from {bad}.
JSONL_INPUTS = {
    "corpus": (
        {"id": "d1", "title": "t", "text": "alpha beta"},
        ("id", "text"),
        "index --corpus {bad} --out {out}",
    ),
    "rationales": (
        {"id": "r1", "question": "q (A) x (B) y", "answer": "A", "rationales": ["Answer: A"]},
        ("id", "question", "answer"),
        "emit-train --index {index} --rationales {bad} --out {out}",
    ),
    "verdict file": (
        {"id": "ex-01", "j": 0, "keep": True},
        ("id", "j", "keep"),
        "emit-train --index {index} --rationales {rationales} --out {out}"
        " --filter verdict-file:{bad}",
    ),
    "candidates": (
        {"example_id": "ex-01", "j": 0, "question": "thyroid",
         "doc_ids": ["med-001", "med-002"], "teacher_scores": [1.0, 0.5]},
        ("example_id", "j", "question", "doc_ids", "teacher_scores"),
        "rerank-train --index {index} --candidates {bad} --out {out} --epochs 1 --dim 8",
    ),
    "questions": (
        {"id": "ex-01", "question": "thyroid hormone"},
        ("id", "question"),
        "rerank-infer --index {index} --questions {bad} --out {out} --kappa-star 10",
    ),
    "score file": (
        {"id": "ex-01", "doc_id": "med-001", "score": 1.0},
        ("id", "doc_id", "score"),
        "rerank-infer --index {index} --questions {rationales} --out {out} --kappa-star 10"
        " --score-file {bad}",
    ),
    "retrieved": (
        {"id": "ex-01", "doc_ids": ["med-001"], "scores": [1.0]},
        ("id", "doc_ids"),
        "eval --index {index} --rationales {rationales} --retrieved {bad}",
    ),
    "predictions": (
        {"id": "e1", "texts": ["x Answer: B"], "gold": "B"},
        ("id", "texts", "gold"),
        "eval --predictions {bad}",
    ),
}


def _second_line(name: str, field: str | None) -> tuple[bytes, str]:
    """A line without ``field`` (a bare number for None) and the error it must give."""
    if field is None:
        return b"5", "expected a JSON object"
    row = {k: v for k, v in JSONL_INPUTS[name][0].items() if k != field}
    return json.dumps(row).encode(), f'missing field "{field}"'


# Each required field left out and a line that is not an object, then lines
# that parse but are still wrong.
MALFORMED_CASES = [
    pytest.param(name, *_second_line(name, field), id=f"{name}-{field or 'non-object'}")
    for name, (_, fields, _) in JSONL_INPUTS.items()
    for field in (*fields, None)
] + [
    pytest.param(
        "corpus", b'{"id": "d2", "text": "caf\xe9"}', "not valid UTF-8", id="corpus-latin-1"
    ),
    pytest.param(
        "rationales",
        json.dumps({**JSONL_INPUTS["rationales"][0], "answer": "E"}).encode(),
        "answer 'E' is not among options",
        id="rationales-answer-not-in-options",
    ),
    pytest.param(
        "candidates",
        json.dumps({**JSONL_INPUTS["candidates"][0], "doc_ids": ["med-001", "zz"]}).encode(),
        'unknown doc id "zz"',
        id="candidates-unknown-doc-id",
    ),
] + [
    # A string where a list belongs, and values that do not convert.
    pytest.param(
        name,
        json.dumps({**JSONL_INPUTS[name][0], field: value}).encode(),
        expected,
        id=f"{name.replace(' ', '-')}-{field}-{value}",
    )
    for name, field, value, expected in [
        ("candidates", "teacher_scores", "12", 'field "teacher_scores" must be a list'),
        ("candidates", "doc_ids", "med-001", 'field "doc_ids" must be a list'),
        ("candidates", "j", "x", 'field "j": invalid literal'),
        ("verdict file", "j", "x", 'field "j": invalid literal'),
        ("score file", "score", "x", 'field "score": could not convert'),
        ("score file", "score", math.nan, 'field "score": must be finite, got nan'),
        ("score file", "score", -math.inf, 'field "score": must be finite, got -inf'),
    ]
]


class TestMalformedInput:
    @pytest.mark.parametrize("name,second,expected", MALFORMED_CASES)
    def test_one_error_line_names_file_line_and_field(
        self, pipeline, tmp_path, name, second, expected
    ):
        paths, _, _ = pipeline
        row, _, command = JSONL_INPUTS[name]
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(json.dumps(row).encode() + b"\n" + second + b"\n")
        where = {
            "bad": bad,
            "out": tmp_path / "out",
            "index": paths["index"],
            "rationales": DATA_DIR / "rationales.jsonl",
        }
        proc = run_cli(*(arg.format(**where) for arg in command.split()))
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert lines[0].startswith(f"error: {bad}: line 2: "), lines[0]
        assert expected in lines[0], lines[0]
