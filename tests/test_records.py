"""Records: savers write atomically, JSONL text is strict JSON, read strings are UTF-8,
and a field is read only as its JSON type."""

import math
import os

import pytest

from radkit.corpus import build_index, load_corpus_jsonl, save_index
from radkit.errors import ParseError, RadkitError
from radkit.records import field, jsonl_text, read_jsonl
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


@pytest.mark.parametrize(
    "value, kind, many, expected",
    [
        ("", str, False, ""),
        (-3, int, False, -3),
        (False, bool, False, False),
        (7, float, False, 7.0),
        (-2.5, float, False, -2.5),
        (["a", "b"], str, True, ("a", "b")),
        ([1, 0.5], float, True, (1.0, 0.5)),
        ([], int, True, ()),
    ],
)
def test_field_of_its_json_type_is_returned_as_that_type(value, kind, many, expected):
    got = field({"x": value}, "x", kind, many)
    assert got == expected
    assert all(type(item) is kind for item in got) if many else type(got) is kind


@pytest.mark.parametrize(
    "value, kind, many, expected",
    [
        (1, str, False, "expected a string, got 1"),
        (1.0, int, False, "expected an integer, got 1.0"),
        (0, bool, False, "expected true or false, got 0"),
        (True, float, False, "expected a finite number, got true"),
        (math.nan, float, False, "expected a finite number, got NaN"),
        (10**400, float, False, f"expected a finite number, got 1{'0' * 39}"),
        ("a", str, True, 'expected a list, got "a"'),
        (["a", None], str, True, "expected a string, got null"),
        ([1, -math.inf], float, True, "expected a finite number, got -Infinity"),
    ],
)
def test_field_of_another_json_type_names_the_field(value, kind, many, expected):
    with pytest.raises(RadkitError) as err:
        field({"x": value}, "x", kind, many)
    assert str(err.value) == f'field "x": {expected}'


def test_read_jsonl_reports_a_field_of_another_type_as_a_parse_error(tmp_path):
    """Library callers catch ParseError, and read its line number, for every malformed line."""
    path = tmp_path / "rows.jsonl"
    path.write_text('{"j": 1}\n{"j": "x"}\n')
    with pytest.raises(ParseError) as err:
        read_jsonl(path, lambda obj: field(obj, "j", int))
    assert err.value.line_no == 2
    assert str(err.value) == f'{path}: line 2: field "j": expected an integer, got "x"'
