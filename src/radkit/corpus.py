"""Passage corpus ingestion and BM25 retrieval over an inverted index.

The index is immutable after build and safe for concurrent querying.
Scoring uses the Lucene-flavoured BM25 variant: the IDF has a +1 inside
the log so it is never negative, and the defaults are k1=0.9, b=0.4.
"""

from __future__ import annotations

import math
import re
from array import array
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import DuplicateDocId, EmptyDocument, InvalidOrdinal, UnknownFormatVersion
from .records import arrays_bytes, atomic_write, read_arrays, read_jsonl

INDEX_FORMAT_VERSION = 3
TOKENIZER_VERSION = "lower-alnum-2"

DEFAULT_K1 = 0.9
DEFAULT_B = 0.4

# The index file's CSR members, all int32.
_ARRAYS = ("offsets", "ordinals", "tfs", "doc_lengths")

# Unicode alphanumeric runs; underscore is a separator like any other punctuation.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


@dataclass(frozen=True)
class Document:
    """One corpus passage. ``title`` is carried metadata; only ``text`` is indexed."""

    doc_id: str
    title: str
    text: str


@dataclass(frozen=True)
class ScoredDoc:
    doc_id: str
    score: float
    rank: int


def tokenize(text: str) -> list[str]:
    """Alphanumeric runs of the lowercased text, repeats kept, in order; no stemming or stopwords."""
    return _TOKEN_RE.findall(text.lower())


class _Rows:
    """``rows[t]`` is ``values[offsets[t]:offsets[t + 1]]``, row ``t`` of a CSR array (a view)."""

    def __init__(self, offsets: np.ndarray, values: np.ndarray):
        self.offsets, self.values = offsets, values

    def __getitem__(self, row: int) -> np.ndarray:
        return self.values[self.offsets[row] : self.offsets[row + 1]]


class PostingsIndex:
    """Immutable BM25 inverted index in CSR form.

    Term ``t`` is ``terms[t]``, and ``vocabulary`` maps each term back to its id.
    Its postings, ``postings[t]``, are ``ordinals[offsets[t]:offsets[t + 1]]``,
    strictly ascending; ordinals follow corpus input order. ``tfs`` and
    ``impacts`` run parallel to ``ordinals``: a posting's BM25 contribution
    is ``idf * tf * (k1 + 1) / (tf + norm)``, evaluated in that order. The
    source passages are embedded as three lists indexed by ordinal,
    ``doc_ids``, ``titles`` and ``texts``, so downstream stages can resolve
    passage texts from the index file alone; ``document(doc_id)`` builds one
    ``Document`` from them. Arrays that are not 1-D int32 or do not fit the
    passages and terms, a repeated term, a tf or length below 1, k1 < 0, b outside
    [0, 1] or a non-finite k1 or b raise ValueError, whether built or loaded.
    """

    def __init__(
        self,
        doc_ids: list[str],
        titles: list[str],
        texts: list[str],
        terms: list[str],
        offsets: np.ndarray,
        ordinals: np.ndarray,
        tfs: np.ndarray,
        doc_lengths: np.ndarray,
        k1: float,
        b: float,
    ):
        _check_fit(
            len(doc_ids), len(titles), len(texts), len(terms),
            offsets, ordinals, tfs, doc_lengths, k1, b,
        )
        self.vocabulary = dict(zip(terms, range(len(terms))))
        if len(self.vocabulary) != len(terms):
            raise ValueError("terms must be distinct")
        self.doc_ids = doc_ids
        self.titles = titles
        self.texts = texts
        self.terms = terms
        self.offsets = offsets
        self.ordinals = ordinals
        self.tfs = tfs
        self.doc_lengths = doc_lengths
        self.k1 = k1
        self.b = b
        self.doc_count = len(doc_ids)
        self.avg_doc_length = int(doc_lengths.sum()) / self.doc_count
        # Rank of each ordinal's doc_id in ascending string order, the tie-break.
        self.doc_id_rank = np.argsort(sorted(range(self.doc_count), key=doc_ids.__getitem__))
        self.postings = _Rows(offsets, ordinals)
        # idf by math.log, not np.log, once per distinct document frequency.
        n, df = self.doc_count, np.diff(offsets)
        idf_of_df = np.bincount(df).astype(np.float64)
        distinct = np.flatnonzero(idf_of_df)
        idf_of_df[distinct] = [math.log(1.0 + (n - d + 0.5) / (d + 0.5)) for d in distinct.tolist()]
        norm = k1 * (1.0 - b + b * doc_lengths / self.avg_doc_length)
        # idf * tf * (k1 + 1) / (tf + norm), in place: the same bits, fewer temporaries.
        impacts = np.repeat(idf_of_df[df], df)
        impacts *= tfs
        impacts *= k1 + 1.0
        denominator = norm[ordinals]
        denominator += tfs
        impacts /= denominator
        self.impacts = impacts

    @cached_property
    def _ordinal_by_id(self) -> dict[str, int]:
        return {doc_id: i for i, doc_id in enumerate(self.doc_ids)}

    def ordinal(self, doc_id: str) -> int:
        return self._ordinal_by_id[doc_id]

    def document(self, doc_id: str) -> Document:
        o = self._ordinal_by_id[doc_id]
        return Document(doc_id, self.titles[o], self.texts[o])


def _check_fit(n_docs, n_titles, n_texts, n_terms, offsets, ordinals, tfs, doc_lengths, k1, b):
    """Raise ValueError unless the CSR arrays are 1-D int32 and fit the passages and terms,
    the passages have one title and one text each, and k1, b are valid."""
    if not (math.isfinite(k1) and k1 >= 0.0):
        raise ValueError(f"k1 must be finite and >= 0, got {k1}")
    if not 0.0 <= b <= 1.0:
        raise ValueError(f"b must lie in [0, 1], got {b}")
    if n_docs == 0:
        raise ValueError("cannot index an empty corpus")
    if not n_titles == n_texts == n_docs:
        raise ValueError(f"{n_titles} titles and {n_texts} texts for {n_docs} documents")
    for name, a in zip(_ARRAYS, (offsets, ordinals, tfs, doc_lengths)):
        if a.dtype != np.int32 or a.ndim != 1:
            raise ValueError(f"{name} must be a 1-D int32 array, got {a.ndim}-D {a.dtype}")
    if len(doc_lengths) != n_docs:
        raise ValueError(f"{len(doc_lengths)} document lengths for {n_docs} documents")
    if len(offsets) != n_terms + 1:
        raise ValueError(f"{len(offsets)} offsets for {n_terms} terms")
    if len(tfs) != len(ordinals) or offsets[0] != 0 or offsets[-1] != len(ordinals):
        raise ValueError("offsets must run from 0 to the number of postings")
    if np.any(np.diff(offsets) < 0):
        raise ValueError("offsets must be non-decreasing")
    if len(ordinals) and not 0 <= ordinals.min() <= ordinals.max() < n_docs:
        raise ValueError(f"posting ordinals must lie in [0, {n_docs})")
    if len(tfs) and tfs.min() < 1 or doc_lengths.min() < 1:
        raise ValueError("term frequencies and document lengths must be >= 1")


def _checked_tokens(doc: Document, seen: set[str]) -> list[str]:
    """``tokenize(doc.text)``; an id in ``seen`` or a text with no tokens raises."""
    if doc.doc_id in seen:
        raise DuplicateDocId(doc.doc_id)
    seen.add(doc.doc_id)
    tokens = tokenize(doc.text)
    if not tokens:
        raise EmptyDocument(doc.doc_id)
    return tokens


def build_index(
    docs: list[Document], k1: float = DEFAULT_K1, b: float = DEFAULT_B
) -> PostingsIndex:
    """Build a BM25 index; deterministic for identical input.

    Raises DuplicateDocId / EmptyDocument on bad input. Term ids follow the
    first document a term appears in, then alphabetical order within that
    document, so rebuilding from the same corpus serializes byte-identically.
    """
    seen: set[str] = set()
    vocabulary: dict[str, int] = {}
    term_ids, lengths = array("i"), array("i")  # one term id per token; tokens per document
    for doc in docs:
        tokens = _checked_tokens(doc, seen)
        for term in sorted(set(tokens).difference(vocabulary)):
            vocabulary[term] = len(vocabulary)
        term_ids.extend(map(vocabulary.__getitem__, tokens))
        lengths.append(len(tokens))
    # One key term_id * n + ordinal per token: np.unique's keys are the postings, counts the tfs.
    n, doc_lengths = len(docs), np.array(lengths, dtype=np.int32)
    keys = np.array(term_ids, dtype=np.int64)
    keys *= n
    keys += np.repeat(np.arange(n, dtype=np.int64), doc_lengths)
    keys, tfs = np.unique(keys, return_counts=True)
    offsets = np.searchsorted(keys, np.arange(len(vocabulary) + 1, dtype=np.int64) * n)
    ordinals, tfs, offsets = (a.astype(np.int32) for a in (keys % n, tfs, offsets))
    doc_ids, titles = [d.doc_id for d in docs], [d.title for d in docs]
    texts = [d.text for d in docs]
    return PostingsIndex(
        doc_ids, titles, texts, list(vocabulary), offsets, ordinals, tfs, doc_lengths, k1, b
    )


def bm25_scores(index: PostingsIndex, query_terms: list[str]) -> np.ndarray:
    """(doc_count,) BM25 scores of every document against the deduplicated query terms.

    Terms absent from the vocabulary contribute 0, so an empty query scores all zeros.
    This is the only BM25 scorer: ``retrieve`` and ``bm25_score`` read its array.
    """
    ids = [t for t in map(index.vocabulary.get, dict.fromkeys(query_terms)) if t is not None]
    rows = [slice(index.offsets[t], index.offsets[t + 1]) for t in ids]
    if not rows:
        return np.zeros(index.doc_count)
    ordinals = np.concatenate([index.ordinals[r] for r in rows])
    impacts = np.concatenate([index.impacts[r] for r in rows])
    # bincount adds each document's impacts in query-term order, as a loop would.
    return np.bincount(ordinals, weights=impacts, minlength=index.doc_count)


def top_ordinals(index: PostingsIndex, scores: np.ndarray, k: int) -> np.ndarray:
    """Ordinals of the top-k positive ``scores``, best first, ties by ascending doc_id."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    hits = np.flatnonzero(scores > 0.0)
    if len(hits) > k:  # keep every hit tied with the k-th best; the tie-break cuts
        hits = hits[scores[hits] >= np.partition(scores[hits], len(hits) - k)[len(hits) - k]]
    return hits[np.lexsort((index.doc_id_rank[hits], -scores[hits]))[:k]]


def bm25_score(index: PostingsIndex, query_terms: list[str], doc_ordinal: int) -> float:
    """BM25 score of one document against the query terms: its entry of ``bm25_scores``."""
    if not 0 <= doc_ordinal < index.doc_count:
        raise InvalidOrdinal(doc_ordinal, index.doc_count)
    return float(bm25_scores(index, query_terms)[doc_ordinal])


def retrieve(index: PostingsIndex, query: str, k: int) -> list[ScoredDoc]:
    """Top-k documents by BM25 for ``query``; zero-score documents are excluded.

    Ties are broken by ascending doc_id so results are reproducible.
    """
    scores = bm25_scores(index, tokenize(query))
    return [
        ScoredDoc(doc_id=index.doc_ids[o], score=float(scores[o]), rank=rank)
        for rank, o in enumerate(top_ordinals(index, scores, k).tolist(), start=1)
    ]


def _document(obj: dict) -> Document:
    obj.setdefault("title", "")
    return Document(*(str(obj[name]) for name in ("id", "title", "text")))


def load_corpus_jsonl(path: str | Path) -> list[Document]:
    """Read a JSONL corpus of {"id", "title", "text"} objects ("title" optional)."""
    return read_jsonl(path, _document)


def check_corpus_jsonl(path: str | Path) -> None:
    """Raise build_index's DuplicateDocId or EmptyDocument for a corpus file, naming the line."""
    seen: set[str] = set()
    read_jsonl(path, lambda obj: _checked_tokens(_document(obj), seen))


def serialize_index(index: PostingsIndex) -> bytes:
    """Index format 3: an array file of the int32 CSR arrays and the passage texts.

    The texts are one UTF-8 ``uint8`` member ``texts``, cut by the int64
    code-point offsets ``text_offsets``. Its ``meta`` holds the build
    parameters, the terms in id order, and the passage ids and titles.
    Impacts are recomputed at load.
    """
    meta = {
        "format_version": INDEX_FORMAT_VERSION,
        "build_params": {"tokenizer_version": TOKENIZER_VERSION, "k1": index.k1, "b": index.b},
        "terms": index.terms,
        "doc_ids": index.doc_ids,
        "titles": index.titles,
    }
    text_offsets = np.zeros(index.doc_count + 1, dtype=np.int64)
    np.cumsum([len(text) for text in index.texts], out=text_offsets[1:])
    texts = np.frombuffer("".join(index.texts).encode("utf-8"), dtype=np.uint8)
    arrays = {name: getattr(index, name) for name in _ARRAYS}
    return arrays_bytes(meta, {**arrays, "texts": texts, "text_offsets": text_offsets})


def _texts(blob: np.ndarray, offsets: np.ndarray, n_docs: int) -> list[str]:
    """The passage texts: ``blob`` decoded once, cut at the code-point ``offsets``.

    Raises ValueError unless ``blob`` is 1-D uint8 UTF-8 and ``offsets`` are
    1-D int64, ``n_docs + 1`` of them, running from 0 up to the decoded length.
    """
    if blob.dtype != np.uint8 or blob.ndim != 1:
        raise ValueError(f"texts must be a 1-D uint8 array, got {blob.ndim}-D {blob.dtype}")
    if offsets.dtype != np.int64 or offsets.ndim != 1 or len(offsets) != n_docs + 1:
        raise ValueError(f"text_offsets must be {n_docs + 1} int64 values")
    joined = str(blob.data, "utf-8")
    if offsets[0] != 0 or offsets[-1] != len(joined) or np.any(np.diff(offsets) < 0):
        raise ValueError("text_offsets must run non-decreasing from 0 to the text length")
    bounds = offsets.tolist()
    return [joined[i:j] for i, j in zip(bounds, bounds[1:])]


def _index(meta: dict, members) -> PostingsIndex:
    params = meta["build_params"]
    if params["tokenizer_version"] != TOKENIZER_VERSION:
        raise UnknownFormatVersion(params["tokenizer_version"], TOKENIZER_VERSION, "tokenizer")
    doc_ids, titles = meta["doc_ids"], meta["titles"]
    texts = _texts(members["texts"], members["text_offsets"], len(doc_ids))
    arrays = (members[name] for name in _ARRAYS)
    k1, b = float(params["k1"]), float(params["b"])
    return PostingsIndex(doc_ids, titles, texts, meta["terms"], *arrays, k1, b)


def save_index(index: PostingsIndex, path: str | Path) -> None:
    atomic_write({path: serialize_index(index)})


def load_index(path: str | Path) -> PostingsIndex:
    return read_arrays(path, INDEX_FORMAT_VERSION, _index)
