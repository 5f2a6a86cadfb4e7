"""Records: savers write atomically, JSONL text is strict JSON, read strings are UTF-8."""

import math
import os

import pytest

from radkit.corpus import build_index, load_corpus_jsonl, save_index
from radkit.errors import ParseError
from radkit.records import jsonl_text, read_jsonl
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


@pytest.mark.parametrize(
    "line, fields",
    [
        (rb'{"a": "\ud83d\ude00", "b": "caf\u00e9"}', ["\U0001f600", "caf\xe9"]),
        (rb'{"a": "\\ud800", "b": ["x"]}', ["\\ud800", ["x"]]),
    ],
    ids=["surrogate-pair", "escaped-backslash"],
)
def test_read_jsonl_keeps_escapes_that_spell_utf8(tmp_path, line, fields):
    path = tmp_path / "rows.jsonl"
    path.write_bytes(line + b"\n")
    assert read_jsonl(path, lambda obj: [obj["a"], obj["b"]]) == [fields]


@pytest.mark.parametrize(
    "line, where",
    [
        (rb'{"a": "ok", "b": {"c": ["\udfff"]}}', 'field "b"'),
        (rb'{"a": "ok", "\ud800": 1}', 'field "\ud800"'),
    ],
    ids=["nested", "field-name"],
)
def test_read_jsonl_names_the_field_of_a_lone_surrogate(tmp_path, line, where):
    path = tmp_path / "rows.jsonl"
    path.write_bytes(b'{"a": "x"}\n' + line + b"\n")
    with pytest.raises(ParseError) as err:
        read_jsonl(path, dict)
    assert str(err.value).startswith(f"{path}: line 2: {where}: 'utf-8' codec can't encode")


def test_parse_error_escapes_every_line_break():
    """Input text echoed into the message, whatever it holds, cannot split the one error line."""
    every_code_point = "".join(map(chr, range(0x110000)))
    message = str(ParseError("rows\u2028.jsonl", 2, every_code_point))
    assert len(message.splitlines()) == 1
    assert message.startswith("rows\\u2028.jsonl: line 2: \x00")
    assert "\t\\u000a\\u000b\\u000c\\u000d\x0e" in message
