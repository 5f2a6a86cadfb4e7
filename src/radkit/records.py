"""JSONL records, array files and atomic file writes.

Stages hand over to each other, and to external trainers and scorers,
through JSONL files of one JSON object per line. This module is the one
place that format is read and written: ``read_jsonl`` turns each line into
a record and reports a malformed line as a ParseError naming the file, the
line and the field; ``atomic_write`` replaces files only with complete
new content, so a failed write leaves the old files as they were. The index
and the reranker checkpoint are array files (``arrays_bytes``, ``read_arrays``).
"""

from __future__ import annotations

import errno
import io
import json
import os
import tempfile
import zipfile
from pathlib import Path
from typing import Callable, Iterable, Mapping, TypeVar

import numpy as np

from .errors import ParseError, RadkitError, UnknownFormatVersion

T = TypeVar("T")


def read_jsonl(path: str | Path, make: Callable[[dict], T]) -> list[T]:
    """One ``make(obj)`` per non-blank line of a JSONL file, in file order.

    A line that is not UTF-8 or not a JSON object, a string that UTF-8 cannot
    encode (a lone surrogate escape such as ``"\\ud800"``), a field ``make``
    looks up and does not find (KeyError), or a value it rejects
    (TypeError/ValueError) raises ParseError with the file and line number.
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


def field(obj: dict, name: str, convert: Callable, many: bool = False):
    """``convert(obj[name])``, per item into a tuple if ``many``; a bad value names the field."""
    value = obj[name]
    if many and not isinstance(value, list):
        raise ValueError(f'field "{name}" must be a list')
    try:
        return tuple(map(convert, value)) if many else convert(value)
    except (OverflowError, TypeError, ValueError) as exc:  # OverflowError: int(inf), float(10**400)
        raise ValueError(f'field "{name}": {exc}') from exc


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
            if meta.get("format_version") != version:
                raise UnknownFormatVersion(meta.get("format_version"), version)
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
