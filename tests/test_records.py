"""Library savers write atomically: a failed write keeps the old file."""

import os

import pytest

from radkit.corpus import build_index, load_corpus_jsonl, save_index
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
