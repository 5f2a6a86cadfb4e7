"""Record writers: library savers write atomically, JSONL text is strict JSON."""

import math
import os

import pytest

from radkit.corpus import build_index, load_corpus_jsonl, save_index
from radkit.records import jsonl_text
from radkit.reranker import RerankerModel, save_model

from helpers import DATA_DIR


@pytest.mark.parametrize(
    "save",
    [
        lambda path: save_index(build_index(load_corpus_jsonl(DATA_DIR / "corpus.jsonl")), path),
        lambda path: save_model(RerankerModel.identity(embedding_dim=4), path),
    ],
    ids=["save_index", "save_model"],
)
def test_failed_replace_keeps_old_file_and_leaves_no_temp(tmp_path, monkeypatch, save):
    path = tmp_path / "artifact.json"
    path.write_text("old")

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        save(path)
    assert path.read_text() == "old"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact.json"]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_jsonl_text_rejects_non_finite_floats(value):
    """No stage can write NaN or Infinity, which are not JSON, into a JSONL file."""
    assert jsonl_text([{"scores": [1.5]}]) == '{"scores": [1.5]}\n'
    with pytest.raises(ValueError):
        jsonl_text([{"scores": [1.5, value]}])
