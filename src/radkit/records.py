"""JSONL records, array files and atomic file writes.

Stages hand over to each other, and to external trainers and scorers,
through JSONL files of one JSON object per line. This module is the one
place that format is read and written: ``read_jsonl`` turns each line into a
record, ``field`` takes each field only as its JSON type, and a malformed
line is reported naming the file, the line and the field; ``atomic_write``
replaces files only with complete new content, so a failed write leaves the
old files as they were. The index and the reranker checkpoint are array
files (``arrays_bytes``, ``read_arrays``).
"""

from __future__ import annotations

import contextlib
import errno
import io
import json
import os
import sys
import tempfile
import zipfile
from pathlib import Path
from typing import Callable, Iterable, Mapping, TypeVar

import numpy as np

from .errors import FieldTypeError, ParseError, RadkitError, UnknownFormatVersion

T = TypeVar("T")


def read_jsonl(path: str | Path, make: Callable[[dict], T]) -> list[T]:
    """One ``make(obj)`` per non-blank line of a JSONL file, in file order.

    A line that is not UTF-8 or not a JSON object, a string that UTF-8 cannot
    encode (a lone surrogate escape such as ``"\\ud800"``), a field ``make``
    looks up and does not find (KeyError), or a value it rejects (TypeError,
    ValueError, FieldTypeError) raises ParseError with the file and line number.
    A RadkitError from ``make`` keeps its type and gains the same location.
    """
    records = []
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ParseError(path, line_no, "not valid UTF-8") from exc
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(path, line_no, f"invalid JSON: {exc}") from exc
            if not isinstance(obj, dict):
                raise ParseError(path, line_no, f"expected a JSON object, got {line.strip()[:40]}")
            if b"\\u" in raw:  # UTF-8 holds no surrogate, so only an escape can spell one
                _check_strings(obj, path, line_no)
            try:
                records.append(make(obj))
            except KeyError as exc:
                raise ParseError(path, line_no, f'missing field "{exc.args[0]}"') from exc
            except (TypeError, ValueError) as exc:
                raise ParseError(path, line_no, str(exc)) from exc
            except RadkitError as exc:
                exc.args = (f"{path}: line {line_no}: {exc}",)
                raise
    return records


def _check_strings(obj: dict, path, line_no: int) -> None:
    """Raise ParseError naming the first field of ``obj`` with a string UTF-8 cannot encode."""
    try:
        json.dumps(obj, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError:
        for name, value in obj.items():
            text = value if isinstance(value, str) else json.dumps(value, ensure_ascii=False)
            try:
                for part in (name, text):
                    part.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise ParseError(path, line_no, f'field "{name}": {exc}') from None


_KINDS = {str: "a string", int: "an integer", bool: "true or false", float: "a finite number"}


def field(obj: dict, name: str, kind: type = str, many: bool = False):
    """``obj[name]`` if JSON gave it as ``kind``, which ``_KINDS`` words (a number is returned
    as a float; a boolean is no number); with ``many``, a JSON list of ``kind`` as a tuple.
    Any other value raises FieldTypeError ``field "<name>": expected …, got <the value as JSON>``.
    """
    value = _of_kind(obj[name], name, list if many else kind)
    if many and kind is str:
        with contextlib.suppress(TypeError):  # else the loop below names the first non-str
            "".join(value)  # the quickest check that every item is a str
            return tuple(value)
    return tuple(_of_kind(item, name, kind) for item in value) if many else value


def _of_kind(value, name: str, kind: type):
    if kind is float and type(value) in (int, float) and abs(value) <= sys.float_info.max:
        return float(value)  # not NaN, not infinite, and no integer too large for a float
    if type(value) is kind and kind is not float:
        return value
    expected = _KINDS.get(kind, "a list")
    raise FieldTypeError(f'field "{name}": expected {expected}, got {json.dumps(value)[:40]}')


def jsonl_text(rows: Iterable[dict]) -> str:
    """One compact JSON object per line, non-ASCII text kept as is.

    A NaN or infinite float, which JSON cannot hold, raises ValueError.
    """
    return "".join(json.dumps(row, ensure_ascii=False, allow_nan=False) + "\n" for row in rows)


def arrays_bytes(meta: dict, arrays: Mapping[str, np.ndarray]) -> bytes:
    """An uncompressed ``.npz`` of ``arrays`` plus a ``meta`` member of compact UTF-8 JSON.

    Equal inputs give equal bytes: ``np.savez`` gives every member one fixed date.
    """
    text = json.dumps(meta, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    buf = io.BytesIO()
    np.savez(buf, meta=np.frombuffer(text.encode("utf-8"), dtype=np.uint8), **arrays)
    return buf.getvalue()


def read_arrays(path: str | Path, version: int, make: Callable[[dict, Mapping], T]) -> T:
    """``make(meta, members)`` for the array file at ``path``, if its meta's format is ``version``.

    A format-1 file (one JSON object) or another version raises UnknownFormatVersion
    with the version found; any other file, or a member, field or value ``make``
    cannot use (a number too large to convert included), raises
    UnknownFormatVersion(None, version). Every error about the content, a RadkitError from
    ``make`` included, starts with ``path``; a file that cannot be read raises OSError.
    """
    data = Path(path).read_bytes()  # one buffer: np.load through an open file faults far more pages
    try:
        if data[:1] == b"{":  # format 1 of both files was one JSON object
            raise UnknownFormatVersion(json.loads(data).get("format_version"), version)
        with np.load(io.BytesIO(data), allow_pickle=False) as members:
            meta = json.loads(members["meta"].tobytes().decode("utf-8"))
            found = meta.get("format_version")
            if type(found) is not int or found != version:  # a 3.0 equals 3, but is no integer
                raise UnknownFormatVersion(found, version)
            return make(meta, members)
    except RadkitError as exc:
        exc.args = (f"{path}: {exc}",)
        raise
    except (AttributeError, EOFError, KeyError, OverflowError, TypeError, ValueError, zipfile.BadZipFile) as exc:
        raise UnknownFormatVersion(None, version, path=path) from exc


def atomic_write(files: Mapping[str | Path, bytes | str]) -> None:
    """Write every file's data (str as UTF-8) to a temporary sibling, then rename them all.

    Every temporary file is written, and no path is a directory, before the
    first rename, so a failed write leaves every old file as it was.
    """
    renames = []
    try:
        for path, data in files.items():
            path = Path(path)
            if path.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
            renames.append((tmp, path))
            with os.fdopen(fd, "wb") as fh:
                fh.write(data.encode("utf-8") if isinstance(data, str) else data)
        for tmp, path in renames:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in renames:
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise
