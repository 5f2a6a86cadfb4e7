"""CLI subcommands: exit codes, file outputs, manifests, idempotence."""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

try:
    import resource
except ImportError:  # not on Windows
    resource = None

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import radkit
from radkit.cli import main
from radkit.corpus import INDEX_FORMAT_VERSION
from radkit.records import arrays_bytes
from radkit.reranker import MODEL_FORMAT_VERSION
from helpers import (
    DATA_DIR,
    FORMAT_1_INDEX,
    decreasing,
    format_2_index,
    format_3_index,
    narrowest,
    unchecked_checkpoint,
    with_meta,
)


def run_cli(*args, cwd=None, timeout=None):
    """Run the CLI in a child that, like the suite (pyproject.toml), fails on a RuntimeWarning."""
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "radkit", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=timeout,
    )


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def assert_one_error_line(proc, path) -> None:
    """Exit code 1 and one ``error:`` line on stderr that names ``path``."""
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith("error: "), lines[0]
    assert str(path) in lines[0], lines[0]


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


# Each stage that reads an index, as an invocation with {index} and {out}.
INDEX_READERS = [
    "emit-train --index {index} --rationales {rationales} --out {out}",
    "candidates --index {index} --rationales {rationales} --out {out}",
    "rerank-train --index {index} --candidates {cands} --out {out}",
    "rerank-infer --index {index} --questions {rationales} --out {out}",
    "eval --index {index} --rationales {rationales} --retrieved {retrieved} --out {out}",
]
INDEX_READER_IDS = ["emit-train", "candidates", "rerank-train", "rerank-infer", "eval"]


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

    @pytest.mark.parametrize(
        "command",
        [
            "index --corpus {missing} --out {out}",
            "emit-train --index {missing} --rationales {rationales} --out {out}",
            "emit-train --index {index} --rationales {missing} --out {out}",
            "emit-train --index {index} --rationales {rationales} --out {out}"
            " --filter verdict-file:{missing}",
            "emit-train --index {index} --rationales {rationales} --out {out}"
            " --template custom:{missing}",
            "candidates --index {missing} --rationales {rationales} --out {out}",
            "candidates --index {index} --rationales {missing} --out {out}",
            "rerank-train --index {missing} --candidates {cands} --out {out}",
            "rerank-train --index {index} --candidates {missing} --out {out}",
            "rerank-infer --index {missing} --questions {rationales} --out {out}",
            "rerank-infer --index {index} --questions {missing} --out {out}",
            "rerank-infer --index {index} --questions {rationales} --out {out} --model {missing}",
            "rerank-infer --index {index} --questions {rationales} --out {out}"
            " --score-file {missing}",
            "eval --index {missing} --rationales {rationales} --retrieved {retrieved} --out {out}",
            "eval --index {index} --rationales {missing} --retrieved {retrieved} --out {out}",
            "eval --index {index} --rationales {rationales} --retrieved {missing} --out {out}",
            "eval --predictions {missing} --out {out}",
        ],
        ids=[
            "index-corpus", "emit-train-index", "emit-train-rationales", "emit-train-verdicts",
            "emit-train-template", "candidates-index", "candidates-rationales",
            "rerank-train-index", "rerank-train-cands", "rerank-infer-index",
            "rerank-infer-questions", "rerank-infer-model", "rerank-infer-scores", "eval-index",
            "eval-rationales", "eval-retrieved", "eval-predictions",
        ],
    )
    def test_missing_file_exits_one_and_names_path(self, pipeline, tmp_path, command):
        paths, _, _ = pipeline
        missing = tmp_path / "nope.jsonl"
        out = tmp_path / "out"
        where = {
            **paths, "missing": missing, "out": out, "rationales": DATA_DIR / "rationales.jsonl"
        }
        proc = run_cli(*command.format(**where).split())
        assert_one_error_line(proc, missing)
        assert not out.exists()

    def test_corpus_directory_is_one_error_line(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        out = tmp_path / "index.json"
        proc = run_cli("index", "--corpus", str(corpus), "--out", str(out))
        assert_one_error_line(proc, corpus)
        assert not out.exists()
        assert not list(tmp_path.glob("*.tmp"))


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
            f"error: {index}: unknown file format version 1 (expected 4)"
        ], proc.stderr

    @pytest.mark.parametrize("command", INDEX_READERS, ids=INDEX_READER_IDS)
    def test_format_2_index_is_one_error_line(self, pipeline, tmp_path, command):
        """An index written before the texts moved out of ``meta`` must be rebuilt."""
        paths, _, _ = pipeline
        index, out = tmp_path / "index.npz", tmp_path / "out"
        index.write_bytes(format_2_index(paths["index"].read_bytes()))
        where = {**paths, "index": index, "out": out, "rationales": DATA_DIR / "rationales.jsonl"}
        proc = run_cli(*command.format(**where).split())
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            f"error: {index}: unknown file format version 2 (expected 4)"
        ], proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("command", INDEX_READERS, ids=INDEX_READER_IDS)
    def test_format_3_index_is_one_error_line(self, pipeline, tmp_path, command):
        """An index of int32 CSR arrays, written before each member took its narrowest
        unsigned width, must be rebuilt."""
        paths, _, _ = pipeline
        index, out = tmp_path / "index.npz", tmp_path / "out"
        index.write_bytes(format_3_index(paths["index"].read_bytes()))
        where = {**paths, "index": index, "out": out, "rationales": DATA_DIR / "rationales.jsonl"}
        proc = run_cli(*command.format(**where).split())
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            f"error: {index}: unknown file format version 3 (expected 4)"
        ], proc.stderr
        assert not out.exists()

    def test_index_without_documents_is_one_error_line(self, pipeline, tmp_path):
        paths, _, _ = pipeline
        index = tmp_path / "index.npz"
        index.write_bytes(with_meta(paths["index"].read_bytes(), lambda m: m.update(doc_ids=[])))
        proc = run_cli(
            "rerank-infer", "--index", str(index), "--questions", str(DATA_DIR / "rationales.jsonl"),
            "--out", str(tmp_path / "out.jsonl"), "--kappa-star", "10",
        )
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            f"error: {index}: unknown file format version None (expected 4)"
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

    def test_every_stage_manifest_is_pinned(self, pipeline, tmp_path):
        """Each stage's manifest: command, exact params, input and output digests."""
        paths, steps, _ = pipeline
        preds = tmp_path / "preds.jsonl"
        preds.write_text(json.dumps({"id": "e1", "texts": ["x Answer: B"], "gold": "B"}) + "\n")
        extra = [
            ("eval", "--predictions", str(preds), "--out", str(tmp_path / "accuracy.json")),
            (
                "simulate", "--N", "4", "--n", "8", "--d", "12", "--eps", "0.2", "--trials", "3",
                "--tests", "10", "--sweep", "R=0:4:2", "--out", str(tmp_path / "sweep.csv"),
            ),
        ]
        for step in extra:
            proc = run_cli(*step)
            assert proc.returncode == 0, proc.stderr
        params = [
            {"k1": 0.9, "b": 0.4},
            {
                "k": 1, "template": "medqa", "filter": "answer-match",
                "max_knowledge_chars": None, "no_knowledge": False,
            },
            {"kappa1": 4, "kappa2": 2, "filter": "answer-match"},
            {"tau1": 1.0, "tau2": 100.0, "lr": 0.01, "epochs": 10, "dim": 64, "hash_seed": 0},
            {"kappa_star": 10, "k": 3},
            {"ks": "1,3", "j_gold": 0, "all_silver": False},
            {"ks": "1,3,10", "j_gold": 0, "all_silver": False},
            {
                "N": 4, "n": 8, "d": 12, "R": 100, "eps": 0.2, "trials": 3,
                "tests_per_trial": 10, "seed": 0, "sweep": "R=0:4:2",
            },
        ]
        input_flags = {
            "--corpus", "--index", "--rationales", "--candidates", "--questions", "--model",
            "--retrieved", "--predictions",
        }
        for step, expected in zip([*steps, *extra], params, strict=True):
            out = step[step.index("--out") + 1]
            inputs = [step[i + 1] for i, arg in enumerate(step) if arg in input_flags]
            manifest = json.loads(Path(out + ".manifest.json").read_text())
            assert manifest == {
                "tool": "radkit",
                "version": radkit.__version__,
                "command": step[0],
                "params": expected,
                "inputs": {path: sha256(path) for path in inputs},
                "outputs": {out: sha256(out)},
            }, step[0]

    def test_outputs_are_pinned(self, pipeline):
        """Bytes of the retrieval-driven outputs and the metrics, pinned so a scoring change
        cannot move them."""
        paths, _, _ = pipeline
        assert sha256(paths["train"]) == (
            "61238f5ab0b66cd84ec7408786f3371a206fa34006688ab0361fad328eacc5bb"
        )
        assert sha256(paths["cands"]) == (
            "ea42e15cbe07396be75ef4ae413254b0c3e2db4ea0bebdaa9ebd291ec60fafa7"
        )
        assert sha256(paths["metrics"]) == (
            "847c95651200d91b0c9e572b3b685b2a74cd015a41bad78db69df016ad16f221"
        )
        rows = [json.loads(line) for line in paths["retrieved"].read_text().splitlines()]
        assert [(row["id"], row["doc_ids"]) for row in rows] == [
            ("ex-01", ["med-005", "med-009", "med-008"]),
            ("ex-02", ["gen-003", "med-005", "gen-001"]),
            ("ex-03", ["med-005", "gen-001", "med-008"]),
            ("ex-04", ["med-001", "med-002", "med-007"]),
        ]

    def test_manifests_record_digests(self, pipeline):
        paths, _, _ = pipeline
        manifest = json.loads((Path(str(paths["index"]) + ".manifest.json")).read_text())
        assert manifest["command"] == "index"
        assert manifest["version"]
        corpus = DATA_DIR / "corpus.jsonl"
        assert manifest["inputs"][str(corpus)] == sha256(corpus)
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

    def test_only_a_run_without_scorer_builds_the_identity_model(
        self, pipeline, tmp_path, monkeypatch
    ):
        paths, _, _ = pipeline
        built = []
        identity = radkit.cli.RerankerModel.identity.__func__
        monkeypatch.setattr(
            radkit.cli.RerankerModel,
            "identity",
            classmethod(lambda cls, *args, **kw: built.append(args) or identity(cls, *args, **kw)),
        )
        score_file = tmp_path / "scores.jsonl"
        score_file.write_text(json.dumps({"id": "ex-01", "doc_id": "med-009", "score": 1.0}) + "\n")
        base = [
            "rerank-infer", "--index", str(paths["index"]), "--quiet",
            "--questions", str(DATA_DIR / "rationales.jsonl"), "--kappa-star", "10",
        ]
        assert main([*base, "--score-file", str(score_file), "--out", str(tmp_path / "f")]) == 0
        assert main([*base, "--model", str(paths["model"]), "--out", str(tmp_path / "m")]) == 0
        assert built == []
        assert main([*base, "--out", str(tmp_path / "i")]) == 0
        assert built == [()]

    def test_model_with_score_file_is_one_line_and_writes_nothing(self, pipeline, tmp_path):
        """Two scorers for one run: the checkpoint would be loaded, listed and never used."""
        paths, _, _ = pipeline
        score_file = tmp_path / "scores.jsonl"
        score_file.write_text(json.dumps({"id": "ex-01", "doc_id": "med-009", "score": 1.0}) + "\n")
        out = tmp_path / "out.jsonl"
        proc = run_cli(
            "rerank-infer", "--index", str(paths["index"]),
            "--questions", str(DATA_DIR / "rationales.jsonl"), "--model", str(paths["model"]),
            "--score-file", str(score_file), "--out", str(out), "--kappa-star", "10",
        )
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            "error: --model and --score-file are two scorers: pass only one"
        ], proc.stderr
        assert list(tmp_path.iterdir()) == [score_file]

    def test_question_line_is_the_same_alone_and_in_the_full_file(self, pipeline, tmp_path):
        """A question's scores do not depend on the other questions of its file."""
        paths, steps, _ = pipeline
        full = paths["retrieved"].read_bytes().splitlines(keepends=True)
        lines = (DATA_DIR / "rationales.jsonl").read_bytes().splitlines(keepends=True)
        assert len(full) == len(lines) > 1
        infer = list(next(step for step in steps if step[0] == "rerank-infer"))
        for n, (line, want) in enumerate(zip(lines, full)):
            questions, out = tmp_path / f"q{n}.jsonl", tmp_path / f"out{n}.jsonl"
            questions.write_bytes(line)
            argv = list(infer)
            argv[argv.index("--questions") + 1] = str(questions)
            argv[argv.index("--out") + 1] = str(out)
            proc = run_cli(*argv)
            assert proc.returncode == 0, proc.stderr
            assert out.read_bytes() == want


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

    @pytest.mark.parametrize("weight", ["query_projection", "doc_projection", "bias"])
    def test_non_finite_checkpoint_is_one_line_naming_it(self, pipeline, tmp_path, weight):
        """A checkpoint holding NaN or inf is rejected, not ranked into NaN scores."""
        paths, _, _ = pipeline
        model = radkit.reranker.load_model(paths["model"])
        if weight == "bias":
            model.bias = math.inf
        else:
            getattr(model, weight)[0, 0] = math.nan
        bad = tmp_path / "nan-model.npz"
        bad.write_bytes(unchecked_checkpoint(model))
        out = tmp_path / "out.jsonl"
        proc = run_cli(
            "rerank-infer", "--index", str(paths["index"]),
            "--questions", str(DATA_DIR / "rationales.jsonl"), "--model", str(bad),
            "--out", str(out), "--kappa-star", "10",
        )
        expected = "checkpoint weights must be finite"
        if weight == "bias":
            expected = 'field "bias": expected a finite number, got Infinity'
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [f"error: {bad}: {expected}"], proc.stderr
        assert not out.exists()


# Each array file: the stage invocation that reads it from {bad}, and its format version.
ARRAY_FILE_READERS = {
    "index": ("emit-train --index {bad} --rationales {rationales} --out {out}", INDEX_FORMAT_VERSION),
    "model": (
        "rerank-infer --index {index} --model {bad} --questions {rationales} --out {out}",
        MODEL_FORMAT_VERSION,
    ),
}


def _read_with_meta(paths, tmp_path, file, name, value):
    """Run the stage that reads ``file``, rewritten by arrays_bytes with meta ``name`` = ``value``.

    A callable ``value`` is applied to the old value. Returns the process and the file's path.
    """
    with np.load(paths[file]) as members:
        arrays = {key: members[key] for key in members.files if key != "meta"}
        meta = json.loads(members["meta"].tobytes())
    holder = meta["build_params"] if name in ("k1", "b") else meta
    holder[name] = value(holder[name]) if callable(value) else value
    bad = tmp_path / f"{file}.npz"
    bad.write_bytes(arrays_bytes(meta, arrays))
    command, _ = ARRAY_FILE_READERS[file]
    where = {
        "bad": bad,
        "out": tmp_path / "out.jsonl",
        "index": paths["index"],
        "rationales": DATA_DIR / "rationales.jsonl",
    }
    return run_cli(*(arg.format(**where) for arg in command.split())), bad


class TestArrayFileMetaOverflow:
    @pytest.mark.parametrize(
        "file, name, value, expected",
        [
            ("model", "E", math.inf, 'field "E": expected an integer, got Infinity'),
            ("model", "hash_seed", math.inf, 'field "hash_seed": expected an integer, got Infinity'),
            ("model", "step", math.inf, 'field "step": expected an integer, got Infinity'),
            ("index", "k1", 10**400, f'field "k1": expected a finite number, got 1{"0" * 39}'),
            ("index", "b", 10**400, f'field "b": expected a finite number, got 1{"0" * 39}'),
            ("index", "k1", math.nan, 'field "k1": expected a finite number, got NaN'),
        ],
        ids=["model-E", "model-hash_seed", "model-step", "index-k1", "index-b", "index-k1-nan"],
    )
    def test_number_int_or_float_cannot_convert_is_one_line(
        self, pipeline, tmp_path, file, name, value, expected
    ):
        """A meta number json.loads reads that is no integer or no finite number.

        json.loads reads a 1e400 as inf, as it reads the ``Infinity`` arrays_bytes writes:
        a float, so the checkpoint's integers name the field. A 400-digit integer is too
        large for a float, and a NaN is no finite number, so ``k1`` and ``b`` name the field too.
        """
        paths, _, _ = pipeline
        proc, bad = _read_with_meta(paths, tmp_path, file, name, value)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.splitlines() == [f"error: {bad}: {expected}"], proc.stderr
        assert not (tmp_path / "out.jsonl").exists()


@pytest.mark.parametrize(
    "file, name, value",
    [
        ("index", "doc_ids", lambda ids: [[i] for i in range(len(ids))]),
        ("index", "doc_ids", "ab"),
        ("index", "titles", lambda titles: [{"x": 1}] + [None] * (len(titles) - 1)),
        ("index", "terms", lambda terms: [*terms[:-1], 7]),
        ("index", "k1", "0.9"),
        ("index", "k1", True),
        ("index", "b", False),
        ("model", "E", True),
        ("model", "hash_seed", 2.5),
        ("model", "hash_seed", True),
        ("model", "step", 2.5),
        ("model", "bias", True),
    ],
    ids=[
        "doc_ids-lists", "doc_ids-string", "titles-not-strings", "terms-number", "k1-string",
        "k1-true", "b-false", "E-true", "hash_seed-float", "hash_seed-true", "step-float",
        "bias-true",
    ],
)
def test_array_file_meta_of_another_type_is_one_line(pipeline, tmp_path, file, name, value):
    """A meta field of the wrong JSON type names the file and the field, whatever it would
    have loaded as."""
    paths, _, _ = pipeline
    proc, bad = _read_with_meta(paths, tmp_path, file, name, value)
    assert_one_error_line(proc, bad)
    assert proc.stderr.startswith(f'error: {bad}: field "{name}": '), proc.stderr
    assert not (tmp_path / "out.jsonl").exists()


def _array_file(path) -> tuple[dict, dict]:
    """An array file's meta and its other members."""
    with np.load(path) as members:
        arrays = {key: members[key] for key in members.files if key != "meta"}
        return json.loads(members["meta"].tobytes()), arrays


def _read_array_file(paths, tmp_path, file, meta, arrays) -> tuple[int, list[str], Path]:
    """Run the stage that reads ``file``, written from ``meta`` and ``arrays``, in-process.

    Returns its exit code, its stderr lines and the file's path.
    """
    bad = tmp_path / f"{file}.npz"
    bad.write_bytes(arrays_bytes(meta, arrays))
    command, _ = ARRAY_FILE_READERS[file]
    where = {
        "bad": bad,
        "out": tmp_path / "out.jsonl",
        "index": paths["index"],
        "rationales": DATA_DIR / "rationales.jsonl",
    }
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([arg.format(**where) for arg in command.split()])
    return code, stderr.getvalue().splitlines(), bad


def _cast_projections(dtype):
    def cast(meta, arrays):
        for name in ("query_projection", "doc_projection"):
            arrays[name] = arrays[name].astype(dtype)

    return cast


@pytest.mark.parametrize(
    "file, change, expected",
    [
        ("index", lambda meta, arrays: meta.update(format_version=4.0),
         "unknown file format version 4.0 (expected 4)"),
        ("model", lambda meta, arrays: meta.update(format_version=2.0),
         "unknown file format version 2.0 (expected 2)"),
    ] + [
        ("model", _cast_projections(dtype), "unknown file format version None (expected 2)")
        for dtype in ("int64", "bool", "float32", "complex128")
    ],
    ids=[
        "index-version-float", "model-version-float",
        "model-int64", "model-bool", "model-float32", "model-complex128",
    ],
)
def test_array_file_radkit_does_not_write_is_one_line(pipeline, tmp_path, file, change, expected):
    """A version that is no JSON integer, or projections that are not float64, as
    ``serialize_index`` and ``serialize_model`` never write them."""
    paths, _, _ = pipeline
    meta, arrays = _array_file(paths[file])
    change(meta, arrays)
    code, lines, bad = _read_array_file(paths, tmp_path, file, meta, arrays)
    assert (code, lines) == (1, [f"error: {bad}: {expected}"])
    assert not (tmp_path / "out.jsonl").exists()


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
        (
            "rerank-train --index {index} --candidates {cands} --out {out} --tau2 nan",
            "softmax temperature must be finite and > 0, got nan",
        ),
        (
            "rerank-train --index {index} --candidates {cands} --out {out} --tau1 inf",
            "softmax temperature must be finite and > 0, got inf",
        ),
        (
            "rerank-train --index {index} --candidates {cands} --out {out} --lr nan",
            "lr must be finite, got nan",
        ),
        (
            "rerank-train --index {index} --candidates {cands} --out {out} --lr inf",
            "lr must be finite, got inf",
        ),
        (
            "candidates --index {index} --rationales {rationales} --out {out} --kappa1 -3"
            " --kappa2 4",
            "kappa1 and kappa2 must be >= 0, got -3 and 4",
        ),
    ],
    ids=[
        "epochs-negative", "dim-zero", "chars-negative", "chars-zero", "j-gold-negative",
        "ks-empty", "k1-nan", "k1-inf", "k1-negative", "b-above-one", "b-negative",
        "tau2-nan", "tau1-inf", "lr-nan", "lr-inf", "kappa1-negative",
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


class TestRerankTrainOverflow:
    @pytest.mark.parametrize(
        "flags, first",
        [(("--tau2", "1e-300"), "epoch 0 (loss inf)"), (("--lr", "1e300"), "epoch 1 (loss nan)")],
        ids=["tau2-tiny", "lr-huge"],
    )
    def test_diverged_training_is_one_error_line_and_writes_nothing(
        self, pipeline, tmp_path, flags, first
    ):
        """No warning, no checkpoint that rerank-infer would refuse, and no manifest."""
        paths, _, _ = pipeline
        out = tmp_path / "model.npz"
        proc = run_cli(
            "rerank-train", "--index", str(paths["index"]), "--candidates", str(paths["cands"]),
            "--out", str(out), "--epochs", "2", "--dim", "64", *flags,
        )
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            f"error: training diverged at {first}; no model written"
        ], proc.stderr
        assert list(tmp_path.iterdir()) == []

    def test_teacher_quotient_past_the_float_range_trains_as_its_limit(self, pipeline, tmp_path):
        """At --tau1 1e-300 each teacher row already puts all its mass on its highest scores.

        Smaller temperatures overflow score / tau1, and their limit is that same row.
        """
        paths, _, _ = pipeline
        checkpoints = []
        for tau1 in ("1e-300", "1e-307", "1e-320"):
            out = tmp_path / f"model-{tau1}.npz"
            proc = run_cli(
                "rerank-train", "--index", str(paths["index"]), "--candidates", str(paths["cands"]),
                "--out", str(out), "--epochs", "2", "--dim", "64", "--tau1", tau1, "--quiet",
            )
            assert proc.returncode == 0 and proc.stderr == "", proc.stderr
            checkpoints.append(out.read_bytes())
        assert checkpoints[1] == checkpoints[0]
        assert checkpoints[2] == checkpoints[0]

    def test_teacher_scores_past_the_float_range_train_without_a_warning(self, pipeline, tmp_path):
        paths, _, _ = pipeline
        cands = tmp_path / "cands.jsonl"
        row = {"example_id": "ex-01", "j": 0, "question": "thyroid",
               "doc_ids": ["med-001", "med-002"], "teacher_scores": [1e308, -1e308]}
        cands.write_text(json.dumps(row) + "\n")
        proc = run_cli(
            "rerank-train", "--index", str(paths["index"]), "--candidates", str(cands),
            "--out", str(tmp_path / "model.npz"), "--epochs", "2", "--dim", "8", "--quiet",
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""


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

    @pytest.mark.parametrize("part", ["header", "question"])
    def test_marker_the_parser_would_split_at_is_one_error_line(self, pipeline, tmp_path, part):
        """A header holding a question start, or a question holding a knowledge start,
        would parse back as other text: emit-train writes nothing."""
        paths, _, _ = pipeline
        header, rationales = tmp_path / "header.txt", tmp_path / "rationales.jsonl"
        header.write_text("Intro" + ("\n\nQuestion: x" if part == "header" else "") + "\n")
        question = "q (A) x (B) y" + ("\n\nKnowledge: z" if part == "question" else "")
        row = {"id": "r1", "question": question, "answer": "A", "rationales": ["goiter. Answer: A"]}
        rationales.write_text(json.dumps(row) + "\n")
        out = tmp_path / "train.jsonl"
        proc = run_cli(
            "emit-train", "--index", str(paths["index"]), "--rationales", str(rationales),
            "--out", str(out), "--template", f"custom:{header}",
        )
        assert_one_error_line(proc, header if part == "header" else "record 'r1' rationale 0")
        assert "holds '\\n\\n" in proc.stderr, proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("command", ["emit-train", "candidates"])
    def test_manifest_digests_the_verdict_and_template_files(self, pipeline, tmp_path, command):
        paths, _, _ = pipeline
        verdicts, header = tmp_path / "verdicts.jsonl", tmp_path / "header.txt"
        verdicts.write_text(json.dumps({"id": "ex-01", "j": 0, "keep": True}) + "\n")
        header.write_text("Answer the question.\n")
        read = [paths["index"], DATA_DIR / "rationales.jsonl", verdicts]
        flags = ["--filter", f"verdict-file:{verdicts}"]
        if command == "emit-train":
            read.append(header)
            flags += ["--template", f"custom:{header}"]
        out = tmp_path / "out.jsonl"
        proc = run_cli(
            command, "--index", str(paths["index"]),
            "--rationales", str(DATA_DIR / "rationales.jsonl"), "--out", str(out), *flags,
        )
        assert proc.returncode == 0, proc.stderr
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        assert manifest["inputs"] == {str(path): sha256(path) for path in read}

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

    def test_out_directory_is_one_error_line(self, tmp_path):
        preds = tmp_path / "preds.jsonl"
        preds.write_text(json.dumps({"id": "e1", "texts": ["Answer: B"], "gold": "B"}) + "\n")
        out = tmp_path / "metrics"
        out.mkdir()
        proc = run_cli("eval", "--predictions", str(preds), "--out", str(out))
        assert_one_error_line(proc, out)
        assert proc.stdout == ""
        assert not list(tmp_path.glob("*.tmp"))

    def test_failed_manifest_write_keeps_the_old_out(self, tmp_path):
        preds = tmp_path / "preds.jsonl"
        preds.write_text(json.dumps({"id": "e1", "texts": ["Answer: B"], "gold": "B"}) + "\n")
        out = tmp_path / "acc.json"
        out.write_text("old bytes\n")
        manifest = tmp_path / "manifest"
        manifest.mkdir()
        proc = run_cli(
            "eval", "--predictions", str(preds), "--out", str(out), "--manifest-out", str(manifest)
        )
        assert_one_error_line(proc, manifest)
        assert out.read_text() == "old bytes\n"
        assert not list(tmp_path.glob("*.tmp"))

    @pytest.mark.parametrize("flags", [["--index", "--rationales"], ["--index"], ["--rationales"]])
    def test_index_or_rationales_without_retrieved_is_one_error_line(self, tmp_path, flags):
        preds = tmp_path / "preds.jsonl"
        preds.write_text(json.dumps({"id": "e1", "texts": ["Answer: B"], "gold": "B"}) + "\n")
        out = tmp_path / "acc.json"
        paths = [arg for flag in flags for arg in (flag, str(tmp_path / "missing"))]
        proc = run_cli("eval", "--predictions", str(preds), *paths, "--out", str(out))
        assert_one_error_line(proc, "--retrieved")
        assert "--index and --rationales" in proc.stderr
        assert not out.exists()


@pytest.mark.parametrize(
    "command, params",
    [
        ("eval --predictions {preds}", {"ks": "1,3,10", "j_gold": 0, "all_silver": False}),
        (
            "simulate --N 4 --n 8 --d 12 --R 2 --eps 0.2 --trials 2 --tests 10",
            {
                "N": 4, "n": 8, "d": 12, "R": 2, "eps": 0.2, "trials": 2,
                "tests_per_trial": 10, "seed": 0, "sweep": None,
            },
        ),
    ],
    ids=["eval", "simulate"],
)
def test_manifest_out_without_out_records_no_outputs(tmp_path, command, params):
    preds = tmp_path / "preds.jsonl"
    preds.write_text(json.dumps({"id": "e1", "texts": ["Answer: B"], "gold": "B"}) + "\n")
    manifest = tmp_path / "run.manifest.json"
    proc = run_cli(*command.format(preds=preds).split(), "--manifest-out", str(manifest))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)  # the report still goes to stdout
    written = json.loads(manifest.read_text())
    assert written["command"] == command.split()[0]
    assert written["params"] == params
    assert written["inputs"] == ({str(preds): sha256(preds)} if "{preds}" in command else {})
    assert written["outputs"] == {}


@pytest.mark.parametrize("manifest", ["{dir}/x.json", "{dir}/./x.json"], ids=["same", "dot"])
def test_manifest_out_naming_the_out_file_is_one_error_line(tmp_path, manifest):
    """Both files renamed onto one path would leave only the manifest there."""
    out = tmp_path / "x.json"
    out.write_text("old bytes\n")
    proc = run_cli(
        "simulate", "--N", "4", "--n", "8", "--d", "12", "--R", "2", "--eps", "0.2",
        "--trials", "2", "--tests", "10", "--out", str(out),
        "--manifest-out", manifest.format(dir=tmp_path),
    )
    assert_one_error_line(proc, out)
    assert out.read_text() == "old bytes\n"
    assert [path.name for path in tmp_path.iterdir()] == ["x.json"]


@pytest.mark.parametrize(
    "command",
    [
        "index --corpus {c} --out {c}",
        "index --corpus {c} --out {dir}/i.npz --manifest-out {c}",
        "index --corpus {c} --out {dir}/./c.jsonl",
        "index --corpus {c} --out {dir}/c.jsonl.npz --manifest-out {dir}/sub/../c.jsonl",
        "emit-train --index {i} --rationales {r} --out {dir}/t.jsonl"
        " --filter verdict-file:{v} --manifest-out {v}",
        "emit-train --index {i} --rationales {r} --out {h} --template custom:{h}",
        "rerank-infer --index {i} --questions {r} --out {dir}/x.jsonl --manifest-out {i}",
    ],
    ids=["out", "manifest", "out-dot", "manifest-dotdot", "verdict-file", "custom", "index"],
)
def test_output_naming_an_input_is_one_error_line(pipeline, tmp_path, command):
    """Every file the stage reads keeps its bytes, and no output is written."""
    paths, _, _ = pipeline
    (tmp_path / "sub").mkdir()
    where = {name: tmp_path / file for name, file in [
        ("c", "c.jsonl"), ("i", "i.npz"), ("r", "r.jsonl"), ("v", "v.jsonl"), ("h", "h.txt"),
    ]}
    where["c"].write_bytes((DATA_DIR / "corpus.jsonl").read_bytes())
    where["i"].write_bytes(paths["index"].read_bytes())
    where["r"].write_bytes((DATA_DIR / "rationales.jsonl").read_bytes())
    where["v"].write_text(json.dumps({"id": "ex-01", "j": 0, "keep": True}) + "\n")
    where["h"].write_text("Answer the question.\n")
    before = {path: path.read_bytes() for path in where.values()}
    proc = run_cli(*command.format(dir=tmp_path, **where).split())
    assert_one_error_line(proc, "names the input file")
    assert {path: path.read_bytes() for path in where.values()} == before
    assert sorted(tmp_path.iterdir()) == sorted([tmp_path / "sub", *before])


def test_output_naming_an_input_stops_the_stage_before_its_work(pipeline, tmp_path, monkeypatch):
    """The path checks run before the stage: a long training run is refused without training."""
    paths, _, _ = pipeline
    cands = tmp_path / "c.jsonl"
    cands.write_bytes(paths["cands"].read_bytes())
    monkeypatch.setattr(radkit.cli, "train", lambda *a, **kw: pytest.fail("train was called"))
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main([
            "rerank-train", "--index", str(paths["index"]), "--candidates", str(cands),
            "--out", str(cands), "--epochs", "3000", "--dim", "512",
        ])
    assert (code, stderr.getvalue().splitlines()) == (
        1, [f"error: --out {cands} names the input file {cands}"]
    )
    assert cands.read_bytes() == paths["cands"].read_bytes()
    assert list(tmp_path.iterdir()) == [cands]


def run_cli_capped(*args):
    """``run_cli`` in a child whose address space is capped at 2 GiB, so that an
    allocation past the cap fails at once instead of being made."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}  # one BLAS thread's buffers fit the cap
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "radkit", *args],
        capture_output=True, text=True, preexec_fn=cap, env=env,
    )


@pytest.mark.skipif(resource is None, reason="needs the resource module (POSIX)")
@pytest.mark.parametrize(
    "command, allocation",
    [
        ("simulate --N 100000000000 --d 128 --trials 1 --tests 1 --out {out}", "11.6 TiB"),
        ("rerank-train --index {index} --candidates {cands} --out {out} --dim 1000000", "7.28 TiB"),
    ],
    ids=["simulate", "rerank-train"],
)
def test_out_of_memory_is_one_error_line(pipeline, tmp_path, command, allocation):
    """A flag that sizes an allocation past memory stops the stage, and nothing is written."""
    paths, _, _ = pipeline
    out = tmp_path / "out"
    proc = run_cli_capped(*command.format(out=out, **paths).split())
    assert_one_error_line(proc, f"Unable to allocate {allocation}")
    assert list(tmp_path.iterdir()) == []


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

    @pytest.mark.parametrize(
        "config, digest",
        [
            ("--trials 4 --sweep R=0:200:50",
             "ae651186427abeee6c3ce9e63839053eec9b734f65732c12055c44bc6304c17f"),
            ("--trials 10 --R 100",
             "550a8b62d5f24637ac1710c12b7fe831e704a4c65b7d5b07823105a694cfd553"),
        ],
        ids=["rerank-2k-sweep", "kard-5k-report"],
    )
    def test_bench_configs_output_is_pinned(self, tmp_path, config, digest):
        """The bench workloads' simulate outputs, byte for byte.

        The digests hold for numpy's PCG64 ``Generator.integers`` stream
        (recorded with numpy 2.4.6): a numpy that draws bounded integers
        differently changes the reports, and with them these values.
        """
        out = tmp_path / "sim.txt"
        proc = run_cli(
            "simulate", "--N", "100", "--n", "100", "--d", "128", "--eps", "0.1",
            "--tests", "500", "--seed", "3", *config.split(), "--out", str(out), "--quiet",
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert sha256(out) == digest

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


# `radkit --help`, each subcommand's --help, and the usage errors for a missing
# and an unknown subcommand at COLUMNS=80: exit code, stdout and stderr.
HELP_PINS = json.loads((DATA_DIR / "cli_help.json").read_text(encoding="utf-8"))


class TestParser:
    @pytest.mark.parametrize("argv", list(HELP_PINS), ids=lambda argv: argv or "no-command")
    def test_help_and_usage_errors_are_pinned(self, monkeypatch, argv):
        """The parser adds arguments only to the subcommand it is asked for, yet
        every help text and usage error reads as when all of them had theirs."""
        monkeypatch.setenv("COLUMNS", "80")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with pytest.raises(SystemExit) as exited:
                main(argv.split())
        got = {"code": exited.value.code, "stdout": out.getvalue(), "stderr": err.getvalue()}
        assert got == HELP_PINS[argv]

    def test_main_without_argv_reads_sys_argv(self, monkeypatch, capsys):
        """The console script and ``python -m radkit`` call main() with no argv."""
        monkeypatch.setattr(sys, "argv", [
            "radkit", "simulate", "--N", "4", "--n", "8", "--d", "12", "--R", "2",
            "--eps", "0.2", "--trials", "2", "--tests", "10", "--quiet",
        ])
        assert main() == 0
        assert json.loads(capsys.readouterr().out)["config"]["N"] == 4


class TestLineBreakInPath:
    @pytest.mark.parametrize(
        "command, bad_text, expected",
        [
            (
                "index --corpus {bad} --out {out}",
                '{"id": "d1", "text": "alpha"}\n{"id": "d1", "text": "beta"}\n',
                ": line 2: duplicate document id: 'd1'",
            ),
            (
                "rerank-infer --index {bad} --questions {questions} --out {out}",
                "not an index\n",
                ": unknown file format version None",
            ),
            (
                "rerank-infer --index {index} --model {bad} --questions {questions} --out {out}",
                "not a checkpoint\n",
                ": unknown file format version None",
            ),
        ],
        ids=["index-duplicate-id", "rerank-infer-index", "rerank-infer-model"],
    )
    def test_error_line_escapes_a_line_break_in_the_path(
        self, pipeline, tmp_path, capsys, command, bad_text, expected
    ):
        """A path that holds U+2028 (a line break to str.splitlines) is printed escaped."""
        paths, _, _ = pipeline
        bad = tmp_path / "bad\u2028file"
        bad.write_text(bad_text)
        questions = tmp_path / "questions.jsonl"
        questions.write_text('{"id": "q1", "question": "thyroid"}\n')
        where = {"bad": bad, "out": tmp_path / "out", "index": paths["index"], "questions": questions}
        assert main([arg.format(**where) for arg in command.split()]) == 1
        lines = capsys.readouterr().err.splitlines()
        escaped = str(bad).replace("\u2028", "\\u2028")
        assert lines == [lines[0]] and lines[0].startswith(f"error: {escaped}{expected}"), lines
        assert not (tmp_path / "out").exists()



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


# The JSON type each reader takes for each field it reads; ``[kind]`` is a list of kind.
JSONL_FIELD_TYPES = {
    "corpus": {"id": str, "title": str, "text": str},
    "rationales": {"id": str, "question": str, "answer": str, "rationales": [str]},
    "verdict file": {"id": str, "j": int, "keep": bool},
    "candidates": {
        "example_id": str, "j": int, "question": str, "doc_ids": [str], "teacher_scores": [float],
    },
    "questions": {"id": str, "question": str},
    "score file": {"id": str, "doc_id": str, "score": float},
    "retrieved": {"id": str, "doc_ids": [str]},
    "predictions": {"id": str, "texts": [str], "gold": str},
}


def _has_json_type(value, kind) -> bool:
    """Whether JSON gives ``value`` as ``kind``: ``float`` is any finite number, not a boolean."""
    if isinstance(kind, list):
        return type(value) is list and all(_has_json_type(item, kind[0]) for item in value)
    if kind is float:
        return type(value) in (int, float) and abs(value) <= sys.float_info.max
    return type(value) is kind


def _second_line(name: str, field: str | None) -> tuple[bytes, str]:
    """A line without ``field`` (a bare number for None) and the error it must give."""
    if field is None:
        return b"5", "expected a JSON object"
    row = {k: v for k, v in JSONL_INPUTS[name][0].items() if k != field}
    return json.dumps(row).encode(), f'missing field "{field}"'


def _with_lone_surrogate(value):
    """A string field's value, or a list of strings, spelled with a lone surrogate; else None."""
    if isinstance(value, str):
        return "fever \ud800"
    if isinstance(value, list) and isinstance(value[0], str):
        return ["fever \ud800"]
    return None


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
        "corpus", b'{"id": "d1", "text": "gamma"}', "duplicate document id: 'd1'",
        id="corpus-duplicate-id",
    ),
    pytest.param(
        "corpus", b'{"id": "d2", "text": "..."}', "document 'd2' has no tokens",
        id="corpus-no-tokens",
    ),
] + [
    # A lone surrogate parses as JSON but cannot be written back as UTF-8.
    pytest.param(
        "corpus",
        json.dumps({"id": "d2", "title": "t", "text": "cough", field: "fever \ud800"}).encode(),
        f'field "{field}": \'utf-8\' codec can\'t encode character \'\\ud800\'',
        id=f"corpus-{field}-lone-surrogate",
    )
    for field in ("id", "title", "text")
] + [
    # Every other reader rejects one too, in any string field, alone or in a list.
    pytest.param(
        name,
        json.dumps({**row, field: _with_lone_surrogate(value)}).encode(),
        f'field "{field}": \'utf-8\' codec can\'t encode character \'\\ud800\'',
        id=f"{name.replace(' ', '-')}-{field}-lone-surrogate",
    )
    for name, (row, _, _) in JSONL_INPUTS.items()
    if name != "corpus"
    for field, value in row.items()
    if _with_lone_surrogate(value) is not None
] + [
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
    pytest.param(
        "candidates",
        json.dumps({**JSONL_INPUTS["candidates"][0], "doc_ids": ["med-001", "z\nz"]}).encode(),
        'unknown doc id "z\\nz"',
        id="candidates-unknown-doc-id-with-a-line-break",
    ),
    # U+2028 is a line break to str.splitlines, and json.dumps(ensure_ascii=False) keeps it.
    pytest.param(
        "candidates",
        json.dumps(
            {**JSONL_INPUTS["candidates"][0], "doc_ids": ["med-001", "x\u2028y"]},
            ensure_ascii=False,
        ).encode(),
        'unknown doc id "x\\u2028y"',
        id="candidates-unknown-doc-id-with-u2028",
    ),
    pytest.param(
        "questions", '"a\u2028b"'.encode(), 'expected a JSON object, got "a\\u2028b"',
        id="questions-non-object-with-u2028",
    ),
    pytest.param(
        "retrieved", b'{"id": "nope", "doc_ids": ["med-001"]}', "no silver set for example 'nope'",
        id="retrieved-id-without-silver",
    ),
    # A second list for an id is refused, not kept in place of the first.
    pytest.param(
        "retrieved", b'{"id": "ex-01", "doc_ids": ["med-004"]}', "repeated id 'ex-01'",
        id="retrieved-repeated-id",
    ),
] + [
    # The other files of one line per id refuse a second line for it too: a rationale
    # record would replace the first one's silver set, a question would be answered twice,
    # and a prediction counted twice.
    pytest.param(
        name, json.dumps(JSONL_INPUTS[name][0]).encode(),
        f"repeated id {JSONL_INPUTS[name][0]['id']!r}", id=f"{name}-repeated-id",
    )
    for name in ("rationales", "questions", "predictions")
] + [
    # A set read from a file obeys the two-document rule of a built one.
    pytest.param(
        "candidates",
        json.dumps(
            {**JSONL_INPUTS["candidates"][0], "example_id": "ex-03", "j": 1,
             "doc_ids": ["med-003"][:size], "teacher_scores": [1.0][:size]}
        ).encode(),
        f"record 'ex-03' rationale 1: only {size} distinct candidate document(s), need at least 2",
        id=f"candidates-{size}-documents",
    )
    for size in (0, 1)
] + [
    # The reader checks each line as it reads it: line 2 is named, not the broken line 3.
    pytest.param(name, second + b"\n{", expected, id=f"{name}-{label}-before-a-broken-line")
    for name, label, second, expected in [
        (
            "corpus", "duplicate-id", b'{"id": "d1", "text": "gamma"}',
            "duplicate document id: 'd1'",
        ),
        ("corpus", "no-tokens", b'{"id": "d2", "text": "..."}', "document 'd2' has no tokens"),
        (
            "candidates", "unknown-doc-id",
            json.dumps({**JSONL_INPUTS["candidates"][0], "doc_ids": ["med-001", "zz"]}).encode(),
            'unknown doc id "zz"',
        ),
    ]
] + [
    # A string where a list belongs, and values of another JSON type, which are not
    # converted into the field's type (str(), bool(), int() or float() would).
    pytest.param(
        name,
        json.dumps({**JSONL_INPUTS[name][0], field: value}).encode(),
        expected,
        id=f"{name.replace(' ', '-')}-{field}-{value}",
    )
    for name, field, value, expected in [
        (
            "candidates", "teacher_scores", "12",
            'field "teacher_scores": expected a list, got "12"',
        ),
        (
            "candidates", "teacher_scores", [math.nan, 1.0],
            'field "teacher_scores": expected a finite number, got NaN',
        ),
        (
            "candidates", "teacher_scores", [-math.inf, 1.0],
            'field "teacher_scores": expected a finite number, got -Infinity',
        ),
        ("candidates", "doc_ids", "med-001", 'field "doc_ids": expected a list, got "med-001"'),
        ("retrieved", "doc_ids", "med-001", 'field "doc_ids": expected a list, got "med-001"'),
        ("candidates", "j", "x", 'field "j": expected an integer, got "x"'),
        ("verdict file", "j", "x", 'field "j": expected an integer, got "x"'),
        ("score file", "score", "x", 'field "score": expected a finite number, got "x"'),
        ("score file", "score", math.nan, 'field "score": expected a finite number, got NaN'),
        (
            "score file", "score", -math.inf,
            'field "score": expected a finite number, got -Infinity',
        ),
        ("verdict file", "keep", "false", 'field "keep": expected true or false, got "false"'),
        ("verdict file", "j", 0.9, 'field "j": expected an integer, got 0.9'),
        ("verdict file", "j", True, 'field "j": expected an integer, got true'),
        ("questions", "id", None, 'field "id": expected a string, got null'),
        ("questions", "id", [1, 2], 'field "id": expected a string, got [1, 2]'),
        ("score file", "score", "7", 'field "score": expected a finite number, got "7"'),
        (
            "predictions", "texts", [None, 5, "Answer: B"],
            'field "texts": expected a string, got null',
        ),
        ("corpus", "id", 1, 'field "id": expected a string, got 1'),
        (
            "candidates", "teacher_scores", [True, 1.0],
            'field "teacher_scores": expected a finite number, got true',
        ),
    ]
] + [
    # Numbers that json.loads reads but that are no integer or no finite number.
    pytest.param(
        name,
        json.dumps({**JSONL_INPUTS[name][0], field: value}).encode(),
        expected,
        id=f"{name.replace(' ', '-')}-{field}-{label}",
    )
    for name, field, value, label, expected in [
        ("verdict file", "j", math.inf, "inf", 'field "j": expected an integer, got Infinity'),
        ("candidates", "j", -math.inf, "-inf", 'field "j": expected an integer, got -Infinity'),
        (
            "score file", "score", 10**400, "1e400",
            f'field "score": expected a finite number, got 1{"0" * 39}',
        ),
        (
            "candidates", "teacher_scores", [10**400, 1], "1e400",
            f'field "teacher_scores": expected a finite number, got 1{"0" * 39}',
        ),
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
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("content", [b"", b"\n  \n\t\n"], ids=["no-lines", "blank-lines"])
    def test_a_corpus_with_no_document_is_named(self, tmp_path, content):
        """A corpus with no line to index has no line to name: the error names the file."""
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_bytes(content)
        proc = run_cli("index", "--corpus", str(corpus), "--out", str(tmp_path / "out"))
        assert_one_error_line(proc, corpus)
        assert proc.stderr == f"error: {corpus}: no documents\n"
        assert not (tmp_path / "out").exists()


# Any JSON value, non-finite floats and huge integers included (json.loads reads both),
# with ids the fixture index knows and line breaks (str.splitlines's) drawn often.
EDGE_VALUES = st.sampled_from(
    [10**400, -math.inf, "med-001", "ex-01", "a\nb", "a\u2028b", "a\u2029b", "a\x85b"]
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8) | EDGE_VALUES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner),
    max_leaves=5,
)


def _of_type(kind) -> st.SearchStrategy:
    """Values JSON gives as ``kind``, as ``_has_json_type`` tells them."""
    if isinstance(kind, list):
        return st.lists(_of_type(kind[0]), max_size=3)
    finite = st.floats(allow_nan=False, allow_infinity=False) | st.integers(-(2**60), 2**60)
    return {str: st.text(max_size=8), int: st.integers(), bool: st.booleans(), float: finite}[kind]


# Inputs whose ids must differ from line to line: line 2 takes another id before its replacements.
SECOND_LINE_IDS = {
    "corpus": {"id": "d2"},
    "rationales": {"id": "r2"},
    "questions": {"id": "ex-02"},
    "retrieved": {"id": "ex-02"},
    "predictions": {"id": "e2"},
}


class TestArbitraryJsonlLine:
    @pytest.mark.parametrize("name", list(JSONL_INPUTS))
    @settings(
        max_examples=40, derandomize=True, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_stage_writes_its_output_or_one_error_line(self, pipeline, tmp_path, name, data):
        """Line 2 is the valid row with some fields replaced: by the value they had, by
        another value of the field's JSON type, or by an arbitrary JSON value.

        The stage runs in-process, so a traceback would raise here. A stage that writes
        its output has read every replaced field as its JSON type.
        """
        paths, _, _ = pipeline
        row, _, command = JSONL_INPUTS[name]
        second = {**row, **SECOND_LINE_IDS.get(name, {})}
        types = JSONL_FIELD_TYPES[name]
        values = {
            f: st.one_of(st.just(v), _of_type(types[f]) if f in types else JSON_VALUES, JSON_VALUES)
            for f, v in second.items()
        }
        replaced = data.draw(st.fixed_dictionaries({}, optional=values), label="replaced")
        second.update(replaced)
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps(row) + "\n" + json.dumps(second) + "\n")
        where = {
            "bad": bad,
            "out": tmp_path / "out",
            "index": paths["index"],
            "rationales": DATA_DIR / "rationales.jsonl",
        }
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([arg.format(**where) for arg in command.split()])
        lines = stderr.getvalue().splitlines()
        assert code == 0 and lines == [] or code == 1 and len(lines) == 1, stderr.getvalue()
        assert all(line.startswith("error: ") for line in lines), lines
        if code == 0:
            held = {f: _has_json_type(v, types[f]) for f, v in replaced.items() if f in types}
            assert all(held.values()), (replaced, held)


# The JSON type of each meta field radkit writes in each array file (k1, b and the
# tokenizer version sit in the index's build_params).
ARRAY_META_TYPES = {
    "index": {
        "format_version": int, "tokenizer_version": str, "k1": float, "b": float,
        "terms": [str], "doc_ids": [str], "titles": [str],
    },
    "model": {"format_version": int, "E": int, "hash_seed": int, "step": int, "bias": float},
}
# Huge integers, non-finite floats and the float spellings of the versions and of E, drawn often.
ARRAY_META_VALUES = JSON_VALUES | st.sampled_from(
    [10**400, -(10**400), math.inf, -math.inf, math.nan, 2.0, 3.0, 4.0, 64.0, True]
)
ARRAY_DTYPES = [
    "int32", "int64", "uint8", "uint16", "uint32", "uint64", ">u2", "bool", "float32", "float64",
    ">f8", "complex128",
]


class TestArbitraryArrayFile:
    @pytest.mark.parametrize("file", list(ARRAY_FILE_READERS))
    @settings(
        max_examples=40, derandomize=True, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_stage_writes_its_output_or_one_error_line(self, pipeline, tmp_path, file, data):
        """One meta field replaced by an arbitrary JSON value, one member by an array of
        another dtype or rank, or one index tf by a huge one, in the pipeline's index or checkpoint.

        The stage runs in-process, so a traceback would raise here. A stage that writes
        its output has read the field as its JSON type, or the member as radkit wrote it.
        A huge tf is refused with its document's length raised to match or not.
        """
        paths, _, _ = pipeline
        meta, arrays = _array_file(paths[file])
        kinds = ["meta field", "member"] + ["huge tf"] * (file == "index")
        kind = data.draw(st.sampled_from(kinds), label="replace")
        if kind == "huge tf":
            name, at = "tfs", data.draw(st.integers(0, len(arrays["tfs"]) - 1), label="posting")
            tf = data.draw(st.sampled_from([2**31 - 1, 10**6, 1000]), label="tf")
            tfs, lengths = arrays["tfs"].astype(np.int64), arrays["doc_lengths"].astype(np.int64)
            if data.draw(st.booleans(), label="length matches"):
                lengths[arrays["ordinals"][at]] += tf - tfs[at]
            tfs[at] = tf
            arrays["tfs"], arrays["doc_lengths"] = narrowest(tfs), narrowest(lengths)
            held = False  # every passage is under 1,000 code points
        elif kind == "meta field":
            name = data.draw(st.sampled_from(sorted(ARRAY_META_TYPES[file])), label="field")
            value = data.draw(ARRAY_META_VALUES, label="value")
            (meta if name in meta else meta["build_params"])[name] = value
            held = _has_json_type(value, ARRAY_META_TYPES[file][name])
        else:
            name = data.draw(st.sampled_from(sorted(arrays)), label="member")
            old = arrays[name]
            rank = data.draw(st.sampled_from(["same", "one more", "flat"]), label="rank")
            new = {"same": old, "one more": old[None], "flat": old.reshape(-1)}[rank]
            with np.errstate(invalid="ignore"):  # a cast may wrap a value; the file is bad anyway
                new = new.astype(data.draw(st.sampled_from(ARRAY_DTYPES), label="dtype"))
            arrays[name] = new
            held = (new.dtype, new.ndim) == (old.dtype, old.ndim)
        code, lines, _ = _read_array_file(paths, tmp_path, file, meta, arrays)
        assert code == 0 and lines == [] or code == 1 and len(lines) == 1, lines
        assert all(line.startswith("error: ") for line in lines), lines
        if code == 0:
            assert held, name

    @pytest.mark.parametrize(
        "name, edit",
        [
            ("ordinals", lambda a: a.astype(np.int32)),
            ("tfs", lambda a: a.astype(np.int16)),
            ("doc_lengths", lambda a: a.astype(np.float64)),
            ("text_offsets", lambda a: a.astype(np.float32)),
            ("ordinals", lambda a: a.astype(np.uint16)),
            ("ordinals", lambda a: a.astype(np.uint32)),
            ("text_offsets", lambda a: a.astype(np.uint32)),
            ("offsets", lambda a: a.astype(">u2")),
            ("offsets", decreasing),
            ("text_offsets", decreasing),
        ],
        ids=[
            "ordinals-signed", "tfs-signed", "lengths-float", "text-offsets-float",
            "ordinals-one-width-wider", "ordinals-two-widths-wider", "text-offsets-one-width-wider",
            "offsets-big-endian", "offsets-decrease", "text-offsets-decrease",
        ],
    )
    def test_index_member_format_4_does_not_write_is_one_line(self, pipeline, tmp_path, name, edit):
        """Format 4 stores each integer member unsigned, at the narrowest width of its largest
        value, and its offsets non-decreasing; tests/data's 12 documents fit ``uint8`` ordinals."""
        paths, _, _ = pipeline
        meta, arrays = _array_file(paths["index"])
        widths = {name: str(arrays[name].dtype) for name in ("ordinals", "offsets", "text_offsets")}
        assert widths == {"ordinals": "uint8", "offsets": "uint16", "text_offsets": "uint16"}
        arrays[name] = edit(arrays[name])
        code, lines, bad = _read_array_file(paths, tmp_path, "index", meta, arrays)
        expected = f"error: {bad}: unknown file format version None (expected 4)"
        assert (code, lines) == (1, [expected])
        assert not (tmp_path / "out.jsonl").exists()
